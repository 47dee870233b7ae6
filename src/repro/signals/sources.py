"""Signal-source primitives.

A *signal source* is anything with a ``value_at(t_seconds) -> float``
method returning the instantaneous analog value (volts at the ASIC
output), and a ``values_at(times)`` method returning
``[value_at(t) for t in times]`` bit for bit, for ascending ``times``
(the block a coalesced acquisition reads at once).  Sources must be
**pure functions of time** so that simulation results are reproducible
and independent of sampling order; stochastic sources therefore derive
their randomness from a hash of (seed, t) instead of mutable generator
state.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import List, Optional, Protocol, Sequence


class SignalSource(Protocol):
    """Structural type every channel source implements."""

    def value_at(self, t_seconds: float) -> float:
        """Instantaneous value at absolute time ``t_seconds``."""
        ...  # pragma: no cover - protocol

    def values_at(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]``, bit for bit; ``times``
        ascending."""
        ...  # pragma: no cover - protocol


class ConstantSource:
    """A DC level (unconnected inputs, calibration signals)."""

    def __init__(self, level: float = 0.0) -> None:
        self.level = level

    def value_at(self, t_seconds: float) -> float:
        return self.level

    def values_at(self, times: Sequence[float]) -> List[float]:
        return [self.level] * len(times)


class SineSource:
    """A pure tone: ``amplitude * sin(2*pi*f*t + phase) + offset``."""

    def __init__(self, frequency_hz: float, amplitude: float = 1.0,
                 phase_rad: float = 0.0, offset: float = 0.0) -> None:
        if frequency_hz <= 0:
            raise ValueError(f"frequency must be positive: {frequency_hz}")
        self.frequency_hz = frequency_hz
        self.amplitude = amplitude
        self.phase_rad = phase_rad
        self.offset = offset

    def value_at(self, t_seconds: float) -> float:
        return self.offset + self.amplitude * math.sin(
            2.0 * math.pi * self.frequency_hz * t_seconds + self.phase_rad)

    def values_at(self, times: Sequence[float]) -> List[float]:
        sin = math.sin
        offset, amplitude, phase = self.offset, self.amplitude, self.phase_rad
        omega = 2.0 * math.pi * self.frequency_hz
        return [offset + amplitude * sin(omega * t + phase) for t in times]


class HashNoiseSource:
    """Deterministic white-ish noise: a pure function of (seed, t).

    The time axis is quantised to ``resolution_s`` and hashed; two reads
    at the same instant always agree, and the sequence is independent of
    read order.  Amplitude is uniform in [-amplitude, +amplitude].
    """

    def __init__(self, amplitude: float, seed: int = 0,
                 resolution_s: float = 1e-6) -> None:
        if amplitude < 0:
            raise ValueError(f"amplitude must be >= 0: {amplitude}")
        if resolution_s <= 0:
            raise ValueError(f"resolution must be positive: {resolution_s}")
        self.amplitude = amplitude
        self.seed = seed
        self.resolution_s = resolution_s
        # One-entry memo over the quantised time axis: sources are pure
        # functions of time, and co-located channels sample the same
        # instants back to back.
        self._memo_q: Optional[int] = None
        self._memo_v: float = 0.0

    def value_at(self, t_seconds: float) -> float:
        if self.amplitude == 0.0:
            return 0.0
        return self._noise(round(t_seconds / self.resolution_s))

    def values_at(self, times: Sequence[float]) -> List[float]:
        if self.amplitude == 0.0:
            return [0.0] * len(times)
        resolution = self.resolution_s
        return [self._noise(round(t / resolution)) for t in times]

    def _noise(self, quantised: int) -> float:
        if quantised == self._memo_q:
            return self._memo_v
        digest = hashlib.blake2b(
            struct.pack("<qq", self.seed, quantised),
            digest_size=8).digest()
        unit = int.from_bytes(digest, "little") / float(1 << 64)
        value = self.amplitude * (2.0 * unit - 1.0)
        self._memo_q = quantised
        self._memo_v = value
        return value


class MixSource:
    """Weighted sum of sources (e.g. signal + baseline wander + noise)."""

    def __init__(self, sources: Sequence[SignalSource],
                 weights: Sequence[float] = ()) -> None:
        if not sources:
            raise ValueError("MixSource needs at least one source")
        if weights and len(weights) != len(sources):
            raise ValueError(
                f"{len(weights)} weights for {len(sources)} sources")
        self._sources = list(sources)
        self._weights = list(weights) if weights else [1.0] * len(sources)
        # One-entry memo (sources are pure functions of time; multiple
        # ASIC channels wrapping the same mix sample the same instants).
        self._memo_t: float = math.nan
        self._memo_v: float = 0.0

    def value_at(self, t_seconds: float) -> float:
        # lint: allow(FLT001): exact-identity memo hit, not a tolerance
        if t_seconds == self._memo_t:
            return self._memo_v
        value = sum(w * s.value_at(t_seconds)
                    for s, w in zip(self._sources, self._weights))
        self._memo_t = t_seconds
        self._memo_v = value
        return value

    def values_at(self, times: Sequence[float]) -> List[float]:
        weights = self._weights
        columns = [s.values_at(times) for s in self._sources]
        return [sum(w * v for v, w in zip(row, weights))
                for row in zip(*columns)]


class ScaledSource:
    """``gain * inner(t) + offset`` — e.g. the ASIC amplifier stage."""

    def __init__(self, inner: SignalSource, gain: float = 1.0,
                 offset: float = 0.0) -> None:
        self._inner = inner
        self.gain = gain
        self.offset = offset

    def value_at(self, t_seconds: float) -> float:
        return self.gain * self._inner.value_at(t_seconds) + self.offset

    def values_at(self, times: Sequence[float]) -> List[float]:
        gain, offset = self.gain, self.offset
        return [gain * v + offset for v in self._inner.values_at(times)]


__all__ = [
    "SignalSource",
    "ConstantSource",
    "SineSource",
    "HashNoiseSource",
    "MixSource",
    "ScaledSource",
]
