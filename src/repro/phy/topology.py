"""Network topology / connectivity models.

A topology answers one question for the channel: *can radio B hear radio
A?*  Three implementations cover the BAN scenarios in the paper:

* :class:`FullConnectivity` — every node hears every other node; this is
  the paper's case-study setting (a body-area network is a single radio
  domain) and the default.
* :class:`BodyTopology` — nodes at named body positions with Euclidean
  positions in metres and a configurable radio range; the paper's typical
  configuration ("a biopotential node on each limb ... one on the chest
  ... and one on the head", Section 3) ships as a preset.
* :class:`ExplicitLinks` — an arbitrary directed reachability set, for
  tests and asymmetric-link studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Set, Tuple


class Topology:
    """Base class: symmetric full connectivity unless overridden.

    Reachability must stay fixed for the lifetime of a channel that
    uses the topology: the channel caches each sender's audience.
    """

    def in_range(self, src: str, dst: str) -> bool:
        """Whether a frame transmitted by ``src`` reaches ``dst``."""
        raise NotImplementedError

    def connectivity_graph(self, nodes: Iterable[str]) -> Any:
        """Reachability as a ``networkx.DiGraph`` (requires networkx)."""
        import networkx as nx
        graph = nx.DiGraph()
        node_list = list(nodes)
        graph.add_nodes_from(node_list)
        for a in node_list:
            for b in node_list:
                if a != b and self.in_range(a, b):
                    graph.add_edge(a, b)
        return graph


class FullConnectivity(Topology):
    """Single broadcast domain: everyone hears everyone."""

    def in_range(self, src: str, dst: str) -> bool:
        return src != dst


@dataclass(frozen=True)
class Position:
    """A 3-D position on/around the body, in metres."""

    x: float
    y: float
    z: float = 0.0

    def distance_to(self, other: "Position") -> float:
        """Euclidean distance in metres."""
        return math.sqrt((self.x - other.x) ** 2
                         + (self.y - other.y) ** 2
                         + (self.z - other.z) ** 2)


#: The paper's "typical configuration" (Section 3): one node per limb,
#: one on the chest (ECG), one on the head (EEG); the base station worn
#: at the waist.  Coordinates are metres on an adult body, y vertical.
BODY_PRESET: Dict[str, Position] = {
    "base_station": Position(0.00, 1.00),
    "chest": Position(0.00, 1.35),
    "head": Position(0.00, 1.70),
    "left_arm": Position(-0.40, 1.10),
    "right_arm": Position(0.40, 1.10),
    "left_leg": Position(-0.15, 0.40),
    "right_leg": Position(0.15, 0.40),
}


class BodyTopology(Topology):
    """Distance-threshold connectivity between named body positions.

    Args:
        positions: map of node id -> :class:`Position`.
        range_m: maximum distance at which frames are received.  The
            nRF2401 at -5 dBm covers several metres, so with the default
            2 m every on-body link is up; shrinking it creates partitions
            (used in tests and robustness studies).
    """

    def __init__(self, positions: Dict[str, Position],
                 range_m: float = 2.0) -> None:
        if range_m <= 0:
            raise ValueError(f"range must be positive: {range_m}")
        self._positions = dict(positions)
        self._range_m = range_m
        # Positions are copied and immutable, so pairwise reachability
        # never changes; memoise it (the channel asks per transmission).
        self._range_memo: Dict[Tuple[str, str], bool] = {}

    @classmethod
    def body_preset(cls, range_m: float = 2.0) -> "BodyTopology":
        """The Section 3 body layout."""
        return cls(BODY_PRESET, range_m=range_m)

    def position_of(self, node: str) -> Position:
        """Position of ``node``; KeyError with the known ids otherwise."""
        try:
            return self._positions[node]
        except KeyError:
            raise KeyError(
                f"unknown node {node!r}; known: {sorted(self._positions)}"
            ) from None

    def nodes(self) -> Tuple[str, ...]:
        """Known node ids, in insertion order."""
        return tuple(self._positions)

    def in_range(self, src: str, dst: str) -> bool:
        key = (src, dst)
        memo = self._range_memo
        if key in memo:
            return memo[key]
        if src == dst:
            result = False
        else:
            distance = self.position_of(src).distance_to(
                self.position_of(dst))
            result = distance <= self._range_m
        memo[key] = result
        return result


class ExplicitLinks(Topology):
    """Arbitrary directed reachability, given as (src, dst) pairs."""

    def __init__(self, links: Iterable[Tuple[str, str]]) -> None:
        self._links: Set[Tuple[str, str]] = set(links)

    def in_range(self, src: str, dst: str) -> bool:
        return src != dst and (src, dst) in self._links


__all__ = [
    "Topology",
    "FullConnectivity",
    "Position",
    "BODY_PRESET",
    "BodyTopology",
    "ExplicitLinks",
]
