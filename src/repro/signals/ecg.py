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

One recording per patient
-------------------------

Every scenario gives node *i* the same patient (first beat at
``0.35 + 0.11 * i`` s), and the paper's tables vary only the MAC over
that input, so the same instants are synthesized again in every row.
Instances of exactly :class:`SyntheticEcg` built with bit-equal
parameters therefore share one recording: two append-only ``array('d')``
columns holding the instants :meth:`SyntheticEcg.values_at` synthesized,
in ascending order, and the value at each.  A block read serves the run
of its instants it finds recorded consecutively, matched by exact float
equality, so every value served is one the synthesis produced.  It
synthesizes the rest and appends the instants that lie past the
recording's end.  The process keeps at most :data:`MAX_RECORDINGS`
recordings (the least recently built patient goes first), each at most
:data:`MAX_RECORDED_INSTANTS` instants long: 16 bytes per instant.
Subclasses keep their own synthesis, since they may change the beat
schedule, as :class:`~repro.signals.arrhythmia.IrregularEcg` does.
:meth:`SyntheticEcg.value_at` never reads a recording: it stays the
per-sample reference path.
"""

from __future__ import annotations

import math
import struct
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


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

#: Most patients whose recordings the process keeps.
MAX_RECORDINGS = 16
#: Most instants one recording holds (16 bytes each): over five minutes
#: at 205 Hz, so a 60 s table row is recorded whole.
MAX_RECORDED_INSTANTS = 1 << 16

#: A recording: instants [s] ascending, and the value [mV] at each.
Recording = Tuple["array[float]", "array[float]"]

#: Parameter bits -> recording, least recently built patient first.
_RECORDINGS: Dict[bytes, Recording] = {}


def _recording_for(key: bytes) -> Recording:
    """The recording of patient ``key``, made empty if the process keeps
    none.  Building a patient makes it the most recent; past
    :data:`MAX_RECORDINGS`, the least recent one's recording goes."""
    recording = _RECORDINGS.pop(key, None)
    if recording is None:
        recording = (array("d"), array("d"))
        if len(_RECORDINGS) >= MAX_RECORDINGS:
            del _RECORDINGS[next(iter(_RECORDINGS))]
    _RECORDINGS[key] = recording
    return recording


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
        # Read-only (see the properties): the beat schedule, the waves
        # and a shared recording are all derived from them here.
        self._heart_rate_bpm = heart_rate_bpm
        self._amplitude_mv = amplitude_mv
        self._hrv_fraction = hrv_fraction
        self._hrv_frequency_hz = hrv_frequency_hz
        self._morphology = tuple(morphology)
        # Hot path (value_at) iterates the morphology once per sample;
        # plain tuples avoid repeated dataclass attribute lookups.  Each
        # wave carries a cutoff distance beyond which exp() underflows
        # to exactly 0.0 (|dt/width| >= 38.73 => exponent <= -750, well
        # past the ~-745.2 double underflow), so skipping it adds the
        # same +/-0.0 the full evaluation would.
        self._waves: Tuple[Tuple[float, float, float, float], ...] = tuple(
            (w.amplitude, w.offset_s, w.width_s, w.width_s * 38.73)
            for w in self._morphology)
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
        # The patient's recording, keyed by the parameters' bits (so
        # 0.0 and -0.0, which scale to zeros of different signs, never
        # share), and where this reader's next block is expected in it.
        self._recording: Optional[Recording] = None
        if type(self) is SyntheticEcg:
            parameters = [heart_rate_bpm, amplitude_mv, hrv_fraction,
                          hrv_frequency_hz, first_beat_s]
            for wave in self._morphology:
                parameters += (wave.amplitude, wave.offset_s, wave.width_s)
            self._recording = _recording_for(
                struct.pack(f"<{len(parameters)}d", *parameters))
        self._cursor = 0

    # ------------------------------------------------------------------
    # Parameters (read-only: a change would not reach what they built)
    # ------------------------------------------------------------------
    @property
    def heart_rate_bpm(self) -> float:
        """Mean heart rate [beats/min]."""
        return self._heart_rate_bpm

    @property
    def amplitude_mv(self) -> float:
        """R-peak amplitude scale (1.0 => the waves' millivolts)."""
        return self._amplitude_mv

    @property
    def hrv_fraction(self) -> float:
        """Peak fractional modulation of the RR interval."""
        return self._hrv_fraction

    @property
    def hrv_frequency_hz(self) -> float:
        """Frequency of the RR-interval modulation [Hz]."""
        return self._hrv_frequency_hz

    @property
    def morphology(self) -> Tuple[Wave, ...]:
        """The PQRST waves of every beat."""
        return self._morphology

    # ------------------------------------------------------------------
    # Beat schedule
    # ------------------------------------------------------------------
    def _ensure_beats_until(self, t_seconds: float) -> None:
        # Generate one beat beyond t so interpolation near t is complete.
        horizon = t_seconds + 2.0 * self._mean_rr_s
        while self._beats[-1] < horizon:
            last = self._beats[-1]
            modulation = 1.0 + self._hrv_fraction * math.sin(
                2.0 * math.pi * self._hrv_frequency_hz * last)
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
        result = self._amplitude_mv * value
        self._memo_t = t_seconds
        self._memo_v = result
        return result

    def values_at(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]`` for ascending ``times``.

        Bit for bit the same.  An instance of exactly this class first
        serves the run of the block's instants that its patient's
        recording holds consecutively (see the module docstring), and
        synthesizes the rest with :meth:`_synthesize`.  Either way the
        beat list grows exactly as sample-by-sample reads would grow
        it.
        """
        if times == self._block_times:
            return self._block_values[:]
        if self._recording is None:
            values = self._synthesize(times)
        else:
            values = self._replay(self._recording, times)
        self._block_times = list(times)
        self._block_values = values
        return values[:]

    def _replay(self, recording: Recording,
                times: Sequence[float]) -> List[float]:
        """:meth:`values_at` through the patient's ``recording``."""
        if not times:
            return []
        instants, recorded = recording
        size = len(instants)
        end = instants[-1] if size else -math.inf
        at = self._find(instants, times[0], end)
        served = 0
        count = len(times)
        if at >= 0:
            # The run of recorded instants from ``at``: the whole block,
            # or up to the first instant the recording lacks.
            if instants[at:at + count].tolist() == times:
                served = count
            else:
                served = 1
                while (served < count and at + served < size
                       and instants[at + served] == times[served]):
                    served += 1
            last = times[served - 1]
            if self._beats[-1] < last + 2.0 * self._mean_rr_s:
                self._ensure_beats_until(last)
            self._cursor = at + served
            if served == count:
                return recorded[at:at + count].tolist()
        rest = times[served:] if served else times
        fresh = self._synthesize(rest)
        if rest[-1] > end and size < MAX_RECORDED_INSTANTS:
            # Record the instants past the end.
            start = bisect_right(rest, end)
            stop = start + MAX_RECORDED_INSTANTS - size
            instants.extend(rest[start:stop])
            recorded.extend(fresh[start:stop])
        if not served:
            return fresh
        return recorded[at:at + served].tolist() + fresh

    def _find(self, instants: "array[float]", first: float,
              end: float) -> int:
        """The index of ``first`` in ``instants``, or -1.

        An instant past ``end`` is a miss at once.  Otherwise it is
        looked for at the cursor, where this reader's previous block
        ended, and bisected for only when the cursor misses: at most 17
        probes, as a recording holds at most
        :data:`MAX_RECORDED_INSTANTS` instants.
        """
        if first > end:
            return -1
        at = self._cursor
        if at < len(instants) and instants[at] == first:
            return at
        at = bisect_left(instants, first)
        if instants[at] == first:
            return at
        self._cursor = at
        return -1

    def _synthesize(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]`` for ascending ``times``,
        computed.

        The block is walked in runs of samples that share their
        bracketing beats (the beats :meth:`value_at` sums over).  Per
        run, each bump's centre ``beat + offset_s`` is formed once, and
        a bump whose cutoff window misses the run is dropped.
        ``t - centre`` is monotone in ``t``, so the run's two end
        samples decide the window for every sample in between; only a
        run that holds a bump's window edge tests windows per sample.
        The samples sum the remaining bumps in the order and with the
        expression :meth:`value_at` uses.  The beat list grows exactly
        as sample-by-sample reads would grow it.
        """
        exp = math.exp
        waves = self._waves
        beats = self._beats
        amplitude_mv = self._amplitude_mv
        two_rr = 2.0 * self._mean_rr_s  # _ensure_beats_until's horizon
        count = len(times)
        index = bisect_left(beats, times[0]) if times else 0
        values: List[float] = []
        start = 0
        while start < count:
            first = times[start]
            if beats[-1] < first + two_rr:
                self._ensure_beats_until(first)
            # First beat at or after the run, as bisect_left finds it.
            while beats[index] < first:
                index += 1
            if index + 1 < len(beats):
                # The bracket is complete: every sample up to that beat
                # shares it, and growing the list cannot change it.
                stop = bisect_right(times, beats[index], start + 1)
                last = times[stop - 1]
                if beats[-1] < last + two_rr:
                    self._ensure_beats_until(last)
            else:
                # The list may grow inside the bracket: one sample.
                stop = start + 1
                last = first
            bumps = []
            edges = False
            for beat in beats[max(0, index - 1):index + 2]:
                for amplitude, offset_s, width, cutoff in waves:
                    centre = beat + offset_s
                    head = first - centre
                    if head >= cutoff:
                        continue
                    tail = last - centre
                    if tail <= -cutoff:
                        continue
                    bumps.append((amplitude, centre, width, cutoff))
                    if head <= -cutoff or tail >= cutoff:
                        edges = True
            for t in times[start:stop]:
                value = 0.0
                if edges:
                    for amplitude, centre, width, cutoff in bumps:
                        dt = t - centre
                        if -cutoff < dt < cutoff:
                            value += amplitude * exp(-0.5 * (dt / width) ** 2)
                else:
                    for amplitude, centre, width, _ in bumps:
                        dt = t - centre
                        value += amplitude * exp(-0.5 * (dt / width) ** 2)
                values.append(amplitude_mv * value)
            start = stop
        return values

    def _neighbouring_beats(self, t_seconds: float) -> List[float]:
        index = bisect_left(self._beats, t_seconds)
        lo = max(0, index - 1)
        hi = min(len(self._beats), index + 1)
        return self._beats[lo:hi + 1]


__all__ = ["Wave", "PQRST", "SyntheticEcg", "MAX_RECORDINGS",
           "MAX_RECORDED_INSTANTS"]
