"""Turn a :class:`~repro.faults.spec.FaultPlan` into simulation events.

The injector binds a plan to one built :class:`~repro.net.scenario.
BanScenario`: :meth:`FaultInjector.arm` validates every entry against
the scenario's nodes, expands :class:`~repro.faults.spec.RandomFaults`
deterministically from the scenario seed, and schedules one kernel
event per concrete fault.  All injection happens *beneath* the
protocol:

* **Crash** — :meth:`~repro.net.node.SensorNode.crash`, an MCU reset:
  the stack stops, cancelling every event its components scheduled,
  and the task queue empties.  The MAC's stop releases the radio
  (:meth:`~repro.hw.radio.Nrf2401.release`): it powers down at once,
  or at the last tick of a ShockBurst still in flight.  An optional
  :meth:`~repro.net.node.SensorNode.reboot` restarts the stack once
  that burst has ended; the MAC powers the radio back up, re-enters
  acquisition via its warm-reboot path and rejoins over the air.
* **Radio lockup** — sets :attr:`~repro.hw.radio.Nrf2401.fault_rx_deaf`
  for the duration; frames are lost inside the radio (RX energy spent,
  MCU asleep), so the MAC sees pure silence.
* **Beacon-loss burst** — bumps :attr:`~repro.hw.radio.Nrf2401.
  fault_drop_beacons`; the next N captured beacons CRC-fail.
* **Clock step** — calls :meth:`~repro.mac.base.NodeMac.
  apply_clock_step`, shifting the node's beacon bookkeeping.
* **Battery brownout** — attaches a :class:`~repro.net.monitor.
  BatteryMonitor`; the threshold crossing crashes the node permanently.

Everything is driven by the scenario's own kernel, so fault timing is
exactly as reproducible as the rest of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from ..net.monitor import BatteryMonitor
    from ..net.node import SensorNode
    from ..net.scenario import BanScenario
    from ..obs.metrics import MetricsRegistry

from ..mac.base import NodeMac
from ..sim.simtime import milliseconds, seconds
from .spec import (
    BatteryBrownout,
    BeaconLossBurst,
    ClockStep,
    FaultPlan,
    FaultSpec,
    NodeCrash,
    RadioLockup,
    RandomFaults,
    random_fault_plan,
)


@dataclass
class FaultCounters:
    """What the injector did to one node (all counts start at zero)."""

    crashes: int = 0
    reboots: int = 0
    lockups: int = 0
    lockup_recoveries: int = 0
    beacon_bursts: int = 0
    clock_steps: int = 0
    brownouts: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Counter values keyed by field name."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def total(self) -> int:
        """Sum of all injected events (recoveries included)."""
        return sum(self.as_dict().values())


class FaultInjector:
    """Schedules one scenario's fault plan on its simulation kernel.

    Args:
        scenario: a built :class:`~repro.net.scenario.BanScenario`.
        plan: the fault schedule; node ids may be unprefixed
            (``"node1"``) or carry the scenario's prefix.

    Call :meth:`arm` once, after construction and before the scenario
    runs.  Counters accumulate per (full) node id and are exported by
    :meth:`observe_metrics` under the ``faults`` component.
    """

    def __init__(self, scenario: "BanScenario",
                 plan: FaultPlan) -> None:
        self._scenario = scenario
        self._sim = scenario.sim
        self._plan = plan
        self._armed = False
        self._counters: Dict[str, FaultCounters] = {}
        self._lockup_until: Dict[str, int] = {}
        #: Battery monitors attached for brownout faults (read-only).
        self.monitors: List["BatteryMonitor"] = []
        self._by_name: Dict[str, "SensorNode"] = {}
        prefix = scenario.prefix
        for node in scenario.nodes:
            self._by_name[node.node_id] = node
            if prefix and node.node_id.startswith(prefix):
                self._by_name[node.node_id[len(prefix):]] = node

    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        """Whether :meth:`arm` has run."""
        return self._armed

    @property
    def plan(self) -> FaultPlan:
        """The bound fault schedule."""
        return self._plan

    def arm(self) -> None:
        """Validate, expand and schedule every fault (idempotence is an
        error, like component start)."""
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        for fault in self._expand():
            node = self._resolve(fault)
            if isinstance(fault, BatteryBrownout):
                self._arm_brownout(node, fault)
                continue
            at = seconds(fault.at_s)
            if isinstance(fault, NodeCrash):
                self._sim.at(at, lambda n=node: self._crash(n),
                             label=f"fault.crash[{node.node_id}]")
                if fault.reboot_after_s is not None:
                    self._sim.at(at + seconds(fault.reboot_after_s),
                                 lambda n=node: self._reboot(n),
                                 label=f"fault.reboot[{node.node_id}]")
            elif isinstance(fault, RadioLockup):
                self._sim.at(
                    at,
                    lambda n=node, d=fault.duration_s:
                        self._lockup_begin(n, d),
                    label=f"fault.lockup[{node.node_id}]")
            elif isinstance(fault, BeaconLossBurst):
                self._sim.at(
                    at,
                    lambda n=node, c=fault.count: self._beacon_burst(n, c),
                    label=f"fault.beacons[{node.node_id}]")
            else:  # ClockStep (validated in _resolve)
                self._sim.at(
                    at,
                    lambda n=node, ms=fault.offset_ms:
                        self._clock_step(n, ms),
                    label=f"fault.clockstep[{node.node_id}]")

    def _expand(self) -> List[FaultSpec]:
        """The plan with :class:`RandomFaults` entries drawn out."""
        node_ids = [node.node_id[len(self._scenario.prefix):]
                    if self._scenario.prefix
                    and node.node_id.startswith(self._scenario.prefix)
                    else node.node_id
                    for node in self._scenario.nodes]
        expanded: List[FaultSpec] = []
        for fault in self._plan.faults:
            if isinstance(fault, RandomFaults):
                expanded.extend(random_fault_plan(
                    self._scenario.config.seed, node_ids,
                    fault.count, fault.horizon_s))
            else:
                expanded.append(fault)
        return expanded

    def _resolve(self, fault: FaultSpec) -> "SensorNode":
        try:
            node = self._by_name[fault.node]
        except KeyError:
            raise ValueError(
                f"fault names unknown node {fault.node!r}; scenario has "
                f"{sorted(n.node_id for n in self._scenario.nodes)}"
            ) from None
        if isinstance(fault, ClockStep) \
                and not isinstance(node.mac, NodeMac):
            raise ValueError(
                f"clock step needs a beacon-synchronised MAC; "
                f"{node.node_id} runs {type(node.mac).__name__}")
        return node

    def counters_for(self, node_id: str) -> FaultCounters:
        """Counters for one node (full or unprefixed id)."""
        node = self._by_name.get(node_id)
        key = node.node_id if node is not None else node_id
        return self._counters.setdefault(key, FaultCounters())

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Non-zero counters per node id (empty if nothing fired)."""
        report: Dict[str, Dict[str, int]] = {}
        for node_id in sorted(self._counters):
            nonzero = {name: value for name, value
                       in self._counters[node_id].as_dict().items()
                       if value}
            if nonzero:
                report[node_id] = nonzero
        return report

    def observe_metrics(self,
                        registry: "MetricsRegistry") -> None:
        """Pull the per-node fault counters into a metrics registry."""
        for node_id, counts in self.summary().items():
            for name, value in counts.items():
                registry.counter("faults", node_id, name).inc(value)

    # ------------------------------------------------------------------
    # Fault mechanics
    # ------------------------------------------------------------------
    def _crash(self, node: "SensorNode") -> None:
        if self._stop_stack(node):
            self.counters_for(node.node_id).crashes += 1

    def _stop_stack(self, node: "SensorNode") -> bool:
        if node.mac is None or not node.mac.started:
            return False  # already down (e.g. brownout after a crash)
        node.crash()
        return True

    def _reboot(self, node: "SensorNode") -> None:
        if node.mac is not None and node.mac.started:
            return  # the matching crash never landed
        node.reboot()
        self.counters_for(node.node_id).reboots += 1

    def _lockup_begin(self, node: "SensorNode",
                      duration_s: float) -> None:
        until = self._sim.now + seconds(duration_s)
        # Overlapping lockups extend rather than truncate.
        self._lockup_until[node.node_id] = max(
            self._lockup_until.get(node.node_id, 0), until)
        node.radio.fault_rx_deaf = True
        self.counters_for(node.node_id).lockups += 1
        self._sim.at(until, lambda: self._lockup_end(node),
                     label=f"fault.lockup_end[{node.node_id}]")

    def _lockup_end(self, node: "SensorNode") -> None:
        if self._sim.now < self._lockup_until.get(node.node_id, 0):
            return  # a longer overlapping lockup owns the recovery
        node.radio.fault_rx_deaf = False
        self.counters_for(node.node_id).lockup_recoveries += 1

    def _beacon_burst(self, node: "SensorNode",
                      count: int) -> None:
        node.radio.fault_drop_beacons += count
        self.counters_for(node.node_id).beacon_bursts += 1

    def _clock_step(self, node: "SensorNode",
                    offset_ms: float) -> None:
        node.mac.apply_clock_step(milliseconds(offset_ms))
        self.counters_for(node.node_id).clock_steps += 1

    # ------------------------------------------------------------------
    # Brownout (battery-driven crash)
    # ------------------------------------------------------------------
    def _arm_brownout(self, node: "SensorNode",
                      fault: BatteryBrownout) -> None:
        # Imported lazily: repro.faults must stay importable from
        # repro.net.scenario without closing an import cycle through
        # the net package.
        from ..hw.battery import Battery
        from ..net.monitor import BatteryMonitor

        battery = Battery(capacity_mah=fault.capacity_mah)
        monitor = BatteryMonitor(node, battery,
                                 sample_period_s=fault.sample_period_s,
                                 thresholds=(fault.soc_threshold,))

        def browned_out(node_id: str, threshold: float,
                        soc: float) -> None:
            monitor.stop()
            self.counters_for(node.node_id).brownouts += 1
            # The cell is flat: permanent crash, no reboot.
            self._stop_stack(node)

        monitor.on_threshold(fault.soc_threshold, browned_out)
        monitor.start()
        self.monitors.append(monitor)


__all__ = ["FaultCounters", "FaultInjector"]
