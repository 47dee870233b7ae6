"""Per-link frame loss models.

The channel asks the loss model, once per (transmission, receiver) pair,
whether the frame arrives bit-corrupted at that receiver *independently of
collisions* (which the channel detects itself from airtime overlap).  A
corrupted frame fails the nRF2401's CRC and is dropped inside the radio.

Draws use the simulator's named RNG streams, so results are reproducible
and insensitive to node count or call order.

Performance note: stream *names* (``loss.src->dst``) are cached per
link so the per-frame path never re-formats strings; stream identity
is untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..sim.rng import RngRegistry


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


class DeterministicLoss(LossModel):
    """Drop exact occurrences of a link's traffic — no randomness.

    Each (src, dst) link keeps an occurrence counter: the n-th call for
    that link (0-based) is corrupted iff ``n`` is in the link's drop
    set.  A channel counts on its own copy of the model, so each run
    counts from zero and a config runs the same every time.  This pins
    protocol recovery paths in tests — e.g. "drop exactly the grant
    beacon" or "drop beacons 3..5 at node1" — with the loss decision
    independent of RNG stream state.

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

    def is_corrupted(self, rng: RngRegistry, src: str, dst: str,
                     frame_id: int) -> bool:
        occurrence = self._seen.get((src, dst), 0)
        self._seen[(src, dst)] = occurrence + 1
        return occurrence in self._drops.get((src, dst), ())


__all__ = [
    "LossModel",
    "PerfectChannel",
    "UniformLoss",
    "DeterministicLoss",
]
