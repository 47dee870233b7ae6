"""Streaming R-peak (heart beat) detector.

The paper's Rpeak application calls, for every sample, "an algorithm
that returns 0 if the current sample is not a beat.  Otherwise, it
returns a positive value that indicates how many samples ago a beat was
detected in that channel" (Section 5.2).  This module implements such a
streaming detector with the same contract.

The algorithm is a lightweight adaptive-threshold peak picker suitable
for an MSP430-class MCU:

1. remove baseline wander with a slow exponential moving average;
2. track the running beat amplitude with a decaying peak estimate;
3. a sample crossing ``threshold_fraction`` of the tracked amplitude
   opens a *candidate* region; the local maximum inside it is the beat;
4. the beat is confirmed when the signal falls back below the
   threshold, at which point :meth:`process` returns the lag (in
   samples) between the confirmation sample and the peak sample;
5. a refractory period (default 250 ms) blocks double detection of the
   same QRS complex (T waves, noise).

Its modelled MCU cost is the calibrated ``rpeak_algorithm`` constant;
its Python cost is O(1) per sample.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class RPeakDetector:
    """Per-channel streaming beat detector.

    Args:
        sampling_hz: sampling frequency the sample stream arrives at.
        baseline_alpha: EMA coefficient for baseline removal.
        amplitude_decay: per-sample decay of the tracked beat amplitude.
        threshold_fraction: candidate threshold as a fraction of the
            tracked amplitude.
        refractory_s: minimum beat-to-beat spacing.
        warmup_s: initial interval during which the amplitude tracker
            trains and no beats are reported.
    """

    def __init__(self, sampling_hz: float,
                 baseline_alpha: float = 0.02,
                 amplitude_decay: float = 0.9995,
                 threshold_fraction: float = 0.5,
                 refractory_s: float = 0.25,
                 warmup_s: float = 0.5) -> None:
        if sampling_hz <= 0:
            raise ValueError(f"sampling rate must be positive: {sampling_hz}")
        if not 0 < baseline_alpha < 1:
            raise ValueError(f"baseline_alpha out of (0,1): {baseline_alpha}")
        if not 0 < amplitude_decay <= 1:
            raise ValueError(
                f"amplitude_decay out of (0,1]: {amplitude_decay}")
        if not 0 < threshold_fraction < 1:
            raise ValueError(
                f"threshold_fraction out of (0,1): {threshold_fraction}")
        self.sampling_hz = sampling_hz
        self._alpha = baseline_alpha
        self._decay = amplitude_decay
        self._fraction = threshold_fraction
        self._refractory = max(1, round(refractory_s * sampling_hz))
        self._warmup = max(1, round(warmup_s * sampling_hz))

        self._index = -1
        self._baseline: Optional[float] = None
        self._amplitude = 0.0
        self._last_beat_index: Optional[int] = None
        self._in_candidate = False
        self._candidate_peak = 0.0
        self._candidate_index = 0
        self.beats_detected = 0

    # ------------------------------------------------------------------
    def process(self, value: float) -> int:
        """Feed one sample; returns 0 or the lag to a confirmed beat.

        The returned lag counts samples between the beat's peak and the
        current sample (the paper's "how many samples ago" contract).
        """
        self._index += 1
        if self._baseline is None:
            self._baseline = value
        filtered = value - self._baseline
        self._baseline += self._alpha * (value - self._baseline)

        # Track the running beat amplitude (decaying max of |filtered|).
        self._amplitude *= self._decay
        if filtered > self._amplitude:
            self._amplitude = filtered

        if self._index < self._warmup:
            return 0

        threshold = self._fraction * self._amplitude
        if threshold <= 0:
            return 0

        if not self._in_candidate:
            if filtered >= threshold and self._refractory_passed():
                self._in_candidate = True
                self._candidate_peak = filtered
                self._candidate_index = self._index
            return 0

        # Inside a candidate region: follow the local maximum.
        if filtered > self._candidate_peak:
            self._candidate_peak = filtered
            self._candidate_index = self._index
            return 0
        if filtered >= threshold:
            return 0

        # Fell below threshold: confirm the beat at the tracked peak.
        self._in_candidate = False
        self._last_beat_index = self._candidate_index
        self.beats_detected += 1
        return self._index - self._candidate_index

    def process_block(self, values: Iterable[float]) -> List[Tuple[int, int]]:
        """Feed a block of samples; returns the confirmed beats.

        Each beat is ``(position in the block, lag)``, where ``lag`` is
        what :meth:`process` returns for that sample.  Bit for bit the
        same as ``[process(float(v)) for v in values]``: the same
        arithmetic, with the detector's state held in locals for the
        block.
        """
        alpha, decay = self._alpha, self._decay
        fraction, warmup = self._fraction, self._warmup
        refractory = self._refractory
        index = self._index
        baseline = self._baseline
        amplitude = self._amplitude
        last_beat = self._last_beat_index
        in_candidate = self._in_candidate
        peak, peak_index = self._candidate_peak, self._candidate_index
        beats: List[Tuple[int, int]] = []
        for position, value in enumerate(map(float, values)):
            index += 1
            if baseline is None:
                baseline = value
            filtered = value - baseline
            baseline += alpha * (value - baseline)
            amplitude *= decay
            if filtered > amplitude:
                amplitude = filtered
            if index < warmup:
                continue
            threshold = fraction * amplitude
            if threshold <= 0:
                continue
            if not in_candidate:
                if filtered >= threshold and (
                        last_beat is None
                        or index - last_beat >= refractory):
                    in_candidate = True
                    peak, peak_index = filtered, index
                continue
            if filtered > peak:
                peak, peak_index = filtered, index
                continue
            if filtered >= threshold:
                continue
            in_candidate = False
            last_beat = peak_index
            beats.append((position, index - peak_index))
        self._index = index
        self._baseline = baseline
        self._amplitude = amplitude
        self._last_beat_index = last_beat
        self._in_candidate = in_candidate
        self._candidate_peak, self._candidate_index = peak, peak_index
        self.beats_detected += len(beats)
        return beats

    def _refractory_passed(self) -> bool:
        if self._last_beat_index is None:
            return True
        return (self._index - self._last_beat_index) >= self._refractory

    @property
    def samples_processed(self) -> int:
        """Number of samples fed so far."""
        return self._index + 1

    @property
    def last_beat_index(self) -> Optional[int]:
        """Sample index of the most recent confirmed beat."""
        return self._last_beat_index


__all__ = ["RPeakDetector"]
