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
  figures.

Pulling instead of pushing is what keeps the disabled path free: a run
without a registry executes byte-identical code, and even *with* one
the collectors only read — event order, RNG streams and energies are
untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.simtime import to_seconds

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


__all__ = ["collect_simulator_metrics", "collect_scenario_metrics"]
