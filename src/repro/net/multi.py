"""Multiple BANs sharing one radio channel (co-channel interference).

The paper motivates the simulator with network-level questions its
testbed cannot sweep — "the impact of some parameters (e.g. topologies,
communication protocols, etc.)".  One such question: what happens when
**two patients wearing BANs sit next to each other**?  Each network is
internally collision-free (TDMA), but the two schedules are mutually
unsynchronised, so beacons and data frames of one BAN periodically
overlap the other's — corrupting frames (detected by the nRF2401 CRC)
and charging overhearing energy.

:class:`MultiBanScenario` places any number of independently configured
:class:`~repro.net.scenario.BanScenario` instances on one simulator and
one channel, with per-BAN address prefixes and staggered first beacons,
and measures them together.  Topology can keep the BANs in mutual radio
range (worst case, the default) or separate them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..core.report import NetworkEnergyResult
from ..phy.channel import Channel
from ..phy.lossmodels import LossModel
from ..phy.topology import Topology
from ..sim.kernel import Simulator
from ..sim.simtime import milliseconds, seconds
from ..sim.trace import TraceRecorder
from .scenario import BanScenario, BanScenarioConfig


class MultiBanScenario:
    """Several BANs, one ether.

    Args:
        configs: one scenario config per BAN.  Their ``measure_s`` must
            agree (the networks are measured over one shared window).
        stagger_ms: offset between consecutive BANs' first beacons; the
            default (a third of a cycle-ish 7 ms) guarantees the
            schedules are de-phased but still collide periodically.
        seed: master seed for the shared simulator.
        topology: shared reachability (default: everyone hears everyone).
        loss_model: shared per-link loss model.
        rf_channels: optional per-BAN nRF2401 frequency channel — the
            deployment remedy for co-channel interference; BANs on
            different channels never hear each other.
        trace: optional recorder installed on the shared kernel instead
            of the ``trace_capacity``-built one (e.g. a sink-fanning
            :class:`~repro.obs.sinks.SinkTraceRecorder`).
    """

    def __init__(self, configs: Sequence[BanScenarioConfig],
                 stagger_ms: float = 7.0,
                 seed: int = 0,
                 topology: Optional[Topology] = None,
                 loss_model: Optional[LossModel] = None,
                 rf_channels: Optional[Sequence[int]] = None,
                 trace_capacity: Optional[int] = None,
                 trace: Optional[TraceRecorder] = None) -> None:
        if not configs:
            raise ValueError("need at least one BAN config")
        horizons = {config.measure_s for config in configs}
        if len(horizons) != 1:
            raise ValueError(
                f"all BANs must share measure_s, got {sorted(horizons)}")
        self.measure_s = horizons.pop()
        if trace is None:
            trace = (TraceRecorder(capacity=trace_capacity)
                     if trace_capacity else None)
        self.trace = trace
        self.sim = Simulator(seed=seed, trace=self.trace)
        self.channel = Channel(self.sim, topology=topology,
                               loss_model=loss_model, trace=self.trace)
        if rf_channels is not None and len(rf_channels) != len(configs):
            raise ValueError(
                f"{len(rf_channels)} rf_channels for {len(configs)} BANs")
        self.bans: List[BanScenario] = []
        for index, config in enumerate(configs):
            staggered = replace(
                config,
                first_beacon_ms=(config.first_beacon_ms or 10.0)
                + index * stagger_ms)
            ban = BanScenario(staggered, sim=self.sim,
                              channel=self.channel,
                              prefix=f"ban{index + 1}.")
            if rf_channels is not None:
                ban.base_station.radio.rf_channel = rf_channels[index]
                for node in ban.nodes:
                    node.radio.rf_channel = rf_channels[index]
            self.bans.append(ban)

    # ------------------------------------------------------------------
    def run(self) -> Dict[str, NetworkEnergyResult]:
        """Warm up every BAN, measure one shared window, collect per BAN.

        Returns a map ``"ban1" -> NetworkEnergyResult`` etc.
        """
        for ban in self.bans:
            ban.start_all()
        if any(ban.config.join_protocol for ban in self.bans):
            self._wait_for_joins()
        measure_start = max(ban._measurement_start() for ban in self.bans)
        self.sim.run_until(measure_start)
        for ban in self.bans:
            ban.reset_all()
        self.sim.run_until(measure_start + seconds(self.measure_s))
        return {f"ban{index + 1}": ban.collect(self.measure_s)
                for index, ban in enumerate(self.bans)}

    def _wait_for_joins(self) -> None:
        deadline = self.sim.now + seconds(
            max(ban.config.join_deadline_s for ban in self.bans))
        step = milliseconds(100)
        while self.sim.now < deadline:
            if all(node.mac.is_synced
                   for ban in self.bans for node in ban.nodes):
                return
            self.sim.run_until(min(self.sim.now + step, deadline))
        unsynced = [node.node_id for ban in self.bans
                    for node in ban.nodes if not node.mac.is_synced]
        if unsynced:
            raise RuntimeError(f"nodes failed to join: {unsynced}")

    # ------------------------------------------------------------------
    @property
    def collisions_detected(self) -> int:
        """Cross- and intra-BAN collision corruptions on the shared ether."""
        return self.channel.collisions_detected

    def interference_summary(
            self, results: Dict[str, NetworkEnergyResult]) -> str:
        """Readable cross-BAN interference digest."""
        lines = ["Co-channel interference summary:"]
        for ban_name, result in sorted(results.items()):
            overheard = sum(n.traffic.overheard
                            for n in result.nodes.values())
            corrupted = sum(n.traffic.corrupted
                            for n in result.nodes.values())
            delivered = sum(n.traffic.data_tx
                            for n in result.nodes.values())
            lines.append(
                f"  {ban_name}: {delivered} data frames sent, "
                f"{overheard} overheard, {corrupted} corrupted at nodes")
        lines.append(
            f"  channel total collision corruptions: "
            f"{self.collisions_detected}")
        return "\n".join(lines)


__all__ = ["MultiBanScenario"]
