"""Pull-based instrumentation: read model state into a registry.

The simulation models already maintain every number the MAC surveys
evaluate protocols on — collision counts, overhearing, control
overhead, per-state residencies — they just never surfaced them.  The
collectors here *pull* those numbers into a
:class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`collect_scenario_metrics` walks a built scenario (nodes, base
  station, MACs, radios, MCUs) calling each model's
  ``observe_metrics`` hook;
* :func:`collect_simulator_metrics` reads the kernel's dispatch/queue
  figures;
* :func:`attach_periodic_snapshots` arms a self-rescheduling sim event
  that appends per-node energy and kernel queue-depth *trajectories*
  to registry series, so long runs show how figures evolve rather
  than only their endpoints.

Pulling instead of pushing is what keeps the disabled path free: a run
without a registry executes byte-identical code, and even *with* one
the collectors only read — event order, RNG streams and energies are
untouched (periodic snapshots add kernel events of their own, but
their callbacks mutate nothing, so every energy figure is unchanged).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.events import EventEntry, cancel_event
from ..sim.simtime import seconds, to_seconds

if TYPE_CHECKING:
    from ..net.scenario import BanScenario
    from ..sim.kernel import Simulator
from .metrics import GLOBAL, MetricsRegistry


def collect_simulator_metrics(sim: "Simulator",
                              registry: MetricsRegistry) -> None:
    """Record the kernel's dispatch and queue figures.

    ``events_dispatched`` is a counter (additive across merged worker
    registries); the queue depth is a point-in-time gauge.
    """
    registry.counter("kernel", GLOBAL,
                     "events_dispatched").inc(sim.events_dispatched)
    registry.gauge("kernel", GLOBAL, "pending_events").set(
        sim.pending_events())
    registry.gauge("kernel", GLOBAL, "sim_time_s").set(
        to_seconds(sim.now))


def collect_scenario_metrics(scenario: "BanScenario",
                             registry: MetricsRegistry) -> None:
    """Walk a built BAN scenario and pull every model's metrics.

    Works for :class:`~repro.net.scenario.BanScenario` (and any object
    exposing ``nodes`` / ``base_station``): per node, the radio's
    traffic counters and residencies, the MCU's residencies and cycle
    counts, and the MAC's protocol counters; plus the base-station
    side of each.
    """
    for node in scenario.nodes:
        node.radio.observe_metrics(registry, node.node_id)
        node.mcu.observe_metrics(registry, node.node_id)
        if node.mac is not None and hasattr(node.mac, "observe_metrics"):
            node.mac.observe_metrics(registry, node.node_id)
    base = scenario.base_station
    base.radio.observe_metrics(registry, base.address)
    base.mcu.observe_metrics(registry, base.address)
    if base.mac is not None and hasattr(base.mac, "observe_metrics"):
        base.mac.observe_metrics(registry, base.address)


class PeriodicSnapshotter:
    """Self-rescheduling sim event appending trajectory samples.

    Each fire records, into registry series keyed by node:

    * per-node radio / MCU energy so far (mJ), and
    * the kernel's live queue depth and cumulative dispatch count.

    The callbacks only *read* model state, so arming a snapshotter
    changes no energy figure (it does add its own kernel events, so
    ``events_dispatched`` grows by the number of fires).
    """

    def __init__(self, sim: "Simulator",
                 scenario: Optional["BanScenario"],
                 registry: MetricsRegistry,
                 period_s: float,
                 series_capacity: Optional[int] = None) -> None:
        if period_s <= 0:
            raise ValueError(f"period must be positive: {period_s}")
        self.sim = sim
        self.scenario = scenario
        self.registry = registry
        self.period_ticks = max(1, seconds(period_s))
        self.series_capacity = series_capacity
        self.samples = 0
        self._armed = False
        self._event: Optional[EventEntry] = None

    def start(self) -> None:
        """Arm the first fire one period from now."""
        if self._armed:
            raise RuntimeError("snapshotter already started")
        self._armed = True
        self._event = self.sim.after(self.period_ticks, self._fire,
                                     label="obs.snapshot")

    def stop(self) -> None:
        """Disarm: cancel the pending fire and stop re-scheduling."""
        if not self._armed:
            return
        self._armed = False
        if self._event is not None:
            cancel_event(self._event)
            self._event = None

    def _fire(self) -> None:
        if not self._armed:
            return  # disarmed while this fire was already in flight
        now_s = to_seconds(self.sim.now)
        registry = self.registry
        cap = self.series_capacity
        registry.series("kernel", GLOBAL, "queue_depth", cap).append(
            now_s, self.sim.pending_events())
        registry.series("kernel", GLOBAL, "events_dispatched",
                        cap).append(now_s, self.sim.events_dispatched)
        if self.scenario is not None:
            for node in self.scenario.nodes:
                registry.series("radio", node.node_id, "energy_mj",
                                cap).append(now_s,
                                            node.radio.energy_mj())
                registry.series("mcu", node.node_id, "energy_mj",
                                cap).append(now_s, node.mcu.energy_mj())
        self.samples += 1
        self._event = self.sim.after(self.period_ticks, self._fire,
                                     label="obs.snapshot")


def attach_periodic_snapshots(sim: "Simulator",
                              registry: MetricsRegistry,
                              scenario: Optional["BanScenario"] = None,
                              period_s: float = 5.0,
                              series_capacity: Optional[int] = None
                              ) -> PeriodicSnapshotter:
    """Arm a :class:`PeriodicSnapshotter` on ``sim`` and return it."""
    snapshotter = PeriodicSnapshotter(sim, scenario, registry, period_s,
                                      series_capacity)
    snapshotter.start()
    return snapshotter


__all__ = ["collect_simulator_metrics", "collect_scenario_metrics",
           "PeriodicSnapshotter", "attach_periodic_snapshots"]
