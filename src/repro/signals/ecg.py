"""Synthetic electrocardiogram generator.

The Rpeak case study (Section 5.2) feeds the node "an ECG signal with a
heart rate of 75 beats/min"; we synthesise an equivalent.  Each beat is
a sum of Gaussian bumps for the P, Q, R, S and T waves (the standard
phenomenological ECG model, cf. McSharry's ECGSYN), which gives a clean,
fully deterministic signal whose R-peak times are known exactly — the
detector's ground truth.

Heart-rate variability is modelled as a slow sinusoidal modulation of
the beat-to-beat interval (respiratory sinus arrhythmia at ~0.1 Hz); it
defaults to zero so the case-study rate is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Wave:
    """One Gaussian bump of the PQRST complex.

    Attributes:
        amplitude: peak value in millivolts (sign gives polarity).
        offset_s: centre position relative to the R peak, in seconds.
        width_s: Gaussian sigma in seconds.
    """

    amplitude: float
    offset_s: float
    width_s: float


#: Canonical PQRST morphology (lead-II-like), amplitudes in millivolts.
PQRST: Tuple[Wave, ...] = (
    Wave(amplitude=0.12, offset_s=-0.200, width_s=0.025),   # P
    Wave(amplitude=-0.15, offset_s=-0.025, width_s=0.010),  # Q
    Wave(amplitude=1.00, offset_s=0.000, width_s=0.012),    # R
    Wave(amplitude=-0.25, offset_s=0.025, width_s=0.010),   # S
    Wave(amplitude=0.35, offset_s=0.250, width_s=0.060),    # T
)


class SyntheticEcg:
    """Deterministic ECG signal with exact R-peak ground truth.

    Args:
        heart_rate_bpm: mean heart rate (the paper uses 75).
        amplitude_mv: R-peak amplitude scale (1.0 => the PQRST table's
            millivolt values are used as-is).
        hrv_fraction: peak fractional modulation of the RR interval
            (0 = metronomic).
        hrv_frequency_hz: modulation frequency (respiration, ~0.1 Hz).
        first_beat_s: time of the first R peak.
        morphology: the PQRST waves; override for abnormal beats.
    """

    def __init__(self, heart_rate_bpm: float = 75.0,
                 amplitude_mv: float = 1.0,
                 hrv_fraction: float = 0.0,
                 hrv_frequency_hz: float = 0.1,
                 first_beat_s: float = 0.35,
                 morphology: Sequence[Wave] = PQRST) -> None:
        if heart_rate_bpm <= 0:
            raise ValueError(f"heart rate must be positive: {heart_rate_bpm}")
        if not 0.0 <= hrv_fraction < 0.5:
            raise ValueError(
                f"hrv_fraction must be in [0, 0.5): {hrv_fraction}")
        self.heart_rate_bpm = heart_rate_bpm
        self.amplitude_mv = amplitude_mv
        self.hrv_fraction = hrv_fraction
        self.hrv_frequency_hz = hrv_frequency_hz
        self.morphology = tuple(morphology)
        # Hot path (value_at) iterates the morphology once per sample;
        # plain tuples avoid repeated dataclass attribute lookups.  Each
        # wave carries a cutoff distance beyond which exp() underflows
        # to exactly 0.0 (|dt/width| >= 38.73 => exponent <= -750, well
        # past the ~-745.2 double underflow), so skipping it adds the
        # same +/-0.0 the full evaluation would.
        self._waves: Tuple[Tuple[float, float, float, float], ...] = tuple(
            (w.amplitude, w.offset_s, w.width_s, w.width_s * 38.73)
            for w in self.morphology)
        self._mean_rr_s = 60.0 / heart_rate_bpm
        self._beats: List[float] = [first_beat_s]
        # One-entry and one-block memos: sources are pure functions of
        # time, and every ASIC channel wrapping this instance samples
        # the same instants, so consecutive repeats are common (one per
        # extra channel).
        self._memo_t: float = math.nan
        self._memo_v: float = 0.0
        self._block_times: List[float] = []
        self._block_values: List[float] = []

    # ------------------------------------------------------------------
    # Beat schedule
    # ------------------------------------------------------------------
    def _ensure_beats_until(self, t_seconds: float) -> None:
        # Generate one beat beyond t so interpolation near t is complete.
        horizon = t_seconds + 2.0 * self._mean_rr_s
        while self._beats[-1] < horizon:
            last = self._beats[-1]
            modulation = 1.0 + self.hrv_fraction * math.sin(
                2.0 * math.pi * self.hrv_frequency_hz * last)
            self._beats.append(last + self._mean_rr_s * modulation)

    def r_peak_times(self, until_s: float) -> List[float]:
        """Ground-truth R-peak times in [0, until_s]."""
        self._ensure_beats_until(until_s)
        return [b for b in self._beats if b <= until_s]

    # ------------------------------------------------------------------
    # Signal value
    # ------------------------------------------------------------------
    def value_at(self, t_seconds: float) -> float:
        """Signal value in millivolts at ``t_seconds``."""
        # lint: allow(FLT001): exact-identity memo hit, not a tolerance
        if t_seconds == self._memo_t:
            return self._memo_v
        self._ensure_beats_until(t_seconds)
        # Only the two beats bracketing t can contribute (waves span
        # well under half an RR interval).
        exp = math.exp
        waves = self._waves
        value = 0.0
        for beat in self._neighbouring_beats(t_seconds):
            for amplitude, offset_s, width_s, cutoff in waves:
                dt = t_seconds - (beat + offset_s)
                if -cutoff < dt < cutoff:
                    value += amplitude * exp(-0.5 * (dt / width_s) ** 2)
        result = self.amplitude_mv * value
        self._memo_t = t_seconds
        self._memo_v = result
        return result

    def values_at(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]`` for ascending ``times``.

        Bit for bit the same: each sample extends the beat list exactly
        as :meth:`value_at` would and sums the same bumps of the same
        bracketing beats in the same order, found by one forward index
        instead of a bisect per sample.
        """
        if times == self._block_times:
            return self._block_values[:]
        exp = math.exp
        waves = self._waves
        beats = self._beats
        amplitude_mv = self.amplitude_mv
        two_rr = 2.0 * self._mean_rr_s  # _ensure_beats_until's horizon
        index = bisect_left(beats, times[0]) if times else 0
        values: List[float] = []
        for t_seconds in times:
            if beats[-1] < t_seconds + two_rr:
                self._ensure_beats_until(t_seconds)
            # First beat at or after t, as bisect_left finds it.
            while beats[index] < t_seconds:
                index += 1
            value = 0.0
            for beat in beats[max(0, index - 1):index + 2]:
                for amplitude, offset_s, width_s, cutoff in waves:
                    dt = t_seconds - (beat + offset_s)
                    if -cutoff < dt < cutoff:
                        value += amplitude * exp(-0.5 * (dt / width_s) ** 2)
            values.append(amplitude_mv * value)
        self._block_times = list(times)
        self._block_values = values
        return values[:]

    def _neighbouring_beats(self, t_seconds: float) -> List[float]:
        index = bisect_left(self._beats, t_seconds)
        lo = max(0, index - 1)
        hi = min(len(self._beats), index + 1)
        return self._beats[lo:hi + 1]


__all__ = ["Wave", "PQRST", "SyntheticEcg"]
