"""Per-link frame loss models.

The channel asks the loss model, once per (transmission, receiver) pair,
whether the frame arrives bit-corrupted at that receiver *independently of
collisions* (which the channel detects itself from airtime overlap).  A
corrupted frame fails the nRF2401's CRC and is dropped inside the radio.

Draws use the simulator's named RNG streams, so results are reproducible
and insensitive to node count or call order.

Performance notes: stream *names* (``loss.src->dst``) are cached per
link so the per-frame path never re-formats strings, and
:class:`DistanceLoss` memoises each link's PER, since the topology it
reads is immutable.  Both caches are value-transparent: a memoised PER
is the scalar formula's value, and stream identity is untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..sim.rng import RngRegistry
from .topology import BodyTopology


class _StreamNameCache:
    """Per-link ``loss.src->dst`` stream names, formatted once."""

    __slots__ = ("_names",)

    def __init__(self) -> None:
        self._names: Dict[Tuple[str, str], str] = {}

    def name_for(self, src: str, dst: str) -> str:
        key = (src, dst)
        name = self._names.get(key)
        if name is None:
            name = f"loss.{src}->{dst}"
            self._names[key] = name
        return name


class LossModel:
    """Base class: lossless channel."""

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        """Whether this frame arrives corrupted at ``dst``."""
        return False


class PerfectChannel(LossModel):
    """No bit errors ever (the paper's validation setting: short on-body
    links at -5 dBm are effectively error-free over 60 s)."""


class UniformLoss(LossModel):
    """Every link corrupts frames i.i.d. with probability ``per``."""

    def __init__(self, per: float) -> None:
        if not 0.0 <= per <= 1.0:
            raise ValueError(f"packet error rate must be in [0,1]: {per}")
        self.per = per
        self._stream_names = _StreamNameCache()

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        if self.per == 0.0:
            return False
        stream = rng.stream(self._stream_names.name_for(src, dst))
        return stream.random() < self.per


class PerLinkLoss(LossModel):
    """Explicit per-link packet error rates; unlisted links are perfect."""

    def __init__(self, per_link: Dict[Tuple[str, str], float]) -> None:
        for link, per in per_link.items():
            if not 0.0 <= per <= 1.0:
                raise ValueError(f"PER for link {link} out of range: {per}")
        self._per_link = dict(per_link)
        self._stream_names = _StreamNameCache()

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        per = self._per_link.get((src, dst), 0.0)
        if per == 0.0:
            return False
        name = self._stream_names.name_for(src, dst)
        return rng.stream(name).random() < per


class DeterministicLoss(LossModel):
    """Drop exact occurrences of a link's traffic — no randomness.

    Each (src, dst) link keeps an occurrence counter: the n-th call for
    that link (0-based) is corrupted iff ``n`` is in the link's drop
    set.  This pins protocol recovery paths in tests — e.g. "drop
    exactly the grant beacon" or "drop beacons 3..5 at node1" — with
    the loss decision independent of RNG stream state.

    Args:
        drops: map from ``(src, dst)`` to the occurrence indices to
            corrupt on that link.  Unlisted links are perfect.
    """

    def __init__(self, drops: Dict[Tuple[str, str], Iterable[int]]) -> None:
        self._drops: Dict[Tuple[str, str], frozenset] = {}
        for link, indices in drops.items():
            indices = frozenset(indices)
            for n in indices:
                if n < 0:
                    raise ValueError(
                        f"occurrence index for link {link} must be >= 0: {n}")
            self._drops[link] = indices
        self._seen: Dict[Tuple[str, str], int] = {}
        self.dropped = 0

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        occurrence = self._seen.get((src, dst), 0)
        self._seen[(src, dst)] = occurrence + 1
        if occurrence in self._drops.get((src, dst), ()):
            self.dropped += 1
            return True
        return False


class DistanceLoss(LossModel):
    """PER grows with link distance on a :class:`BodyTopology`.

    A simple monotone model for robustness studies:
    ``per(d) = min(1, floor_per + slope * d)``.
    """

    def __init__(self, topology: BodyTopology, floor_per: float = 0.0,
                 slope_per_m: float = 0.05) -> None:
        if floor_per < 0 or slope_per_m < 0:
            raise ValueError("loss parameters must be non-negative")
        self._topology = topology
        self._floor = floor_per
        self._slope = slope_per_m
        self._stream_names = _StreamNameCache()
        # The topology is immutable, so each link's PER is computed once.
        self._per: Dict[Tuple[str, str], float] = {}

    def per_for(self, src: str, dst: str) -> float:
        """Packet error rate for the (src, dst) link."""
        key = (src, dst)
        per = self._per.get(key)
        if per is None:
            distance = self._topology.position_of(src).distance_to(
                self._topology.position_of(dst))
            per = min(1.0, self._floor + self._slope * distance)
            self._per[key] = per
        return per

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        per = self.per_for(src, dst)
        if per == 0.0:
            return False
        name = self._stream_names.name_for(src, dst)
        return rng.stream(name).random() < per


__all__ = [
    "LossModel",
    "PerfectChannel",
    "UniformLoss",
    "PerLinkLoss",
    "DeterministicLoss",
    "DistanceLoss",
]
