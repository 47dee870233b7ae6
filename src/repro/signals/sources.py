"""Signal-source primitives.

A *signal source* is anything with a ``value_at(t_seconds) -> float``
method returning the instantaneous analog value (volts at the ASIC
output), and a ``values_at(times)`` method returning
``[value_at(t) for t in times]`` bit for bit, for ascending ``times``
(the block a coalesced acquisition reads at once).  Sources must be
**pure functions of time** so that simulation results are reproducible
and independent of sampling order.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence


class SignalSource(Protocol):
    """Structural type every channel source implements."""

    def value_at(self, t_seconds: float) -> float:
        """Instantaneous value at absolute time ``t_seconds``."""
        ...  # pragma: no cover - protocol

    def values_at(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]``, bit for bit; ``times``
        ascending."""
        ...  # pragma: no cover - protocol


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
    "ScaledSource",
]
