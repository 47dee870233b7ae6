"""Fault schedule descriptions (value types) and their parser.

Every fault is a frozen dataclass naming a node by its *unprefixed* id
(``"node1"``; multi-BAN prefixes are resolved by the injector against
its own scenario) and an absolute injection time in simulated seconds
(``at_s`` counts from t = 0, i.e. including warm-up).  A
:class:`FaultPlan` is an ordered tuple of such specs, optionally
including :class:`RandomFaults` entries that the injector expands
deterministically from the scenario seed.

The CLI mini-language accepted by :func:`parse_fault_spec` is a
semicolon-separated list of entries; each entry is a kind followed by
``key=value`` fields::

    crash,node=node1,at=5,reboot=3
    lockup,node=node2,at=8,dur=2
    beacons,node=node1,at=12,count=5
    clockstep,node=node1,at=20,ms=40
    random,count=4,horizon=30
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class NodeCrash:
    """Stop a node's software stack at ``at_s``; optionally reboot.

    The stack stops (app timers and MAC silenced), the radio is powered
    down once any in-flight transmission drains, and — when
    ``reboot_after_s`` is set — the stack restarts that many seconds
    later, re-entering acquisition like a cold node.
    """

    node: str
    at_s: float
    reboot_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        _check_node_time(self.node, self.at_s)
        if self.reboot_after_s is not None and self.reboot_after_s <= 0:
            raise ValueError(
                f"reboot_after_s must be positive: {self.reboot_after_s}")


@dataclass(frozen=True)
class RadioLockup:
    """Lock the node's receive path up for ``duration_s`` seconds.

    While locked, every captured frame is lost inside the radio (RX
    energy spent, MCU asleep) — the MAC sees only silence and walks its
    missed-beacon machinery.
    """

    node: str
    at_s: float
    duration_s: float

    def __post_init__(self) -> None:
        _check_node_time(self.node, self.at_s)
        if self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive: {self.duration_s}")


@dataclass(frozen=True)
class BeaconLossBurst:
    """Drop the next ``count`` beacons captured by the node's radio."""

    node: str
    at_s: float
    count: int

    def __post_init__(self) -> None:
        _check_node_time(self.node, self.at_s)
        if self.count < 1:
            raise ValueError(f"count must be >= 1: {self.count}")


@dataclass(frozen=True)
class ClockStep:
    """Step the node's local clock by ``offset_ms`` at ``at_s``.

    The node's beacon-time bookkeeping shifts by the offset; steps
    larger than the guard lead cause missed beacons until resync.
    """

    node: str
    at_s: float
    offset_ms: float

    def __post_init__(self) -> None:
        _check_node_time(self.node, self.at_s)
        if self.offset_ms == 0:
            raise ValueError("offset_ms must be non-zero")


@dataclass(frozen=True)
class RandomFaults:
    """Placeholder expanded by the injector into ``count`` concrete
    transient faults (crash/reboot, lockup, beacon burst, clock step)
    drawn deterministically from the scenario seed via
    :func:`random_fault_plan`."""

    count: int
    horizon_s: float = 30.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1: {self.count}")
        if self.horizon_s <= 0:
            raise ValueError(
                f"horizon_s must be positive: {self.horizon_s}")


#: Any single fault entry a plan can hold.
FaultSpec = Union[NodeCrash, RadioLockup, BeaconLossBurst, ClockStep,
                  RandomFaults]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, value-typed fault schedule for one scenario."""

    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)


def _check_node_time(node: str, at_s: float) -> None:
    if not node:
        raise ValueError("fault needs a node id")
    if at_s < 0:
        raise ValueError(f"at_s must be >= 0: {at_s}")


def random_fault_plan(seed: int, node_ids: Sequence[str], count: int,
                      horizon_s: float = 30.0
                      ) -> Tuple[FaultSpec, ...]:
    """Draw ``count`` transient faults deterministically from ``seed``.

    The draw uses a private :class:`random.Random` seeded from the
    scenario seed (not the simulator's named streams), so expanding the
    plan never perturbs protocol randomness: a faulty run differs from
    a clean one only through the faults themselves.
    """
    if not node_ids:
        raise ValueError("need at least one node id")
    stream = _random.Random(f"repro.faults:{seed}")
    faults: list = []
    for _ in range(count):
        node = node_ids[stream.randrange(len(node_ids))]
        at_s = round(stream.uniform(0.1 * horizon_s, 0.9 * horizon_s), 3)
        kind = stream.randrange(4)
        if kind == 0:
            faults.append(NodeCrash(
                node=node, at_s=at_s,
                reboot_after_s=round(stream.uniform(0.5, 3.0), 3)))
        elif kind == 1:
            faults.append(RadioLockup(
                node=node, at_s=at_s,
                duration_s=round(stream.uniform(0.2, 2.0), 3)))
        elif kind == 2:
            faults.append(BeaconLossBurst(
                node=node, at_s=at_s, count=stream.randrange(1, 6)))
        else:
            faults.append(ClockStep(
                node=node, at_s=at_s,
                offset_ms=round(stream.uniform(-60.0, 60.0), 3) or 1.0))
    return tuple(faults)


def parse_fault_spec(text: str) -> FaultPlan:
    """Parse the CLI fault mini-language (see module docstring)."""
    faults: list = []
    for raw_entry in text.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        parts = [part.strip() for part in entry.split(",")]
        kind = parts[0].lower()
        fields = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(
                    f"fault field {part!r} is not key=value "
                    f"(in entry {entry!r})")
            key, value = part.split("=", 1)
            fields[key.strip().lower()] = value.strip()
        try:
            faults.append(_build_entry(kind, fields))
        except KeyError as exc:
            raise ValueError(
                f"fault entry {entry!r} is missing field {exc}") from None
    if not faults:
        raise ValueError(f"no fault entries in {text!r}")
    return FaultPlan(faults=tuple(faults))


def _build_entry(kind: str, fields: dict) -> FaultSpec:
    if kind == "crash":
        reboot = fields.get("reboot")
        return NodeCrash(node=fields["node"], at_s=float(fields["at"]),
                         reboot_after_s=(float(reboot)
                                         if reboot is not None else None))
    if kind == "lockup":
        return RadioLockup(node=fields["node"], at_s=float(fields["at"]),
                           duration_s=float(fields["dur"]))
    if kind == "beacons":
        return BeaconLossBurst(node=fields["node"],
                               at_s=float(fields["at"]),
                               count=int(fields["count"]))
    if kind == "clockstep":
        return ClockStep(node=fields["node"], at_s=float(fields["at"]),
                         offset_ms=float(fields["ms"]))
    if kind == "random":
        return RandomFaults(count=int(fields["count"]),
                            horizon_s=float(fields.get("horizon", 30.0)))
    raise ValueError(
        f"unknown fault kind {kind!r} (expected crash, lockup, beacons, "
        f"clockstep or random)")


__all__ = [
    "NodeCrash",
    "RadioLockup",
    "BeaconLossBurst",
    "ClockStep",
    "RandomFaults",
    "FaultSpec",
    "FaultPlan",
    "random_fault_plan",
    "parse_fault_spec",
]
