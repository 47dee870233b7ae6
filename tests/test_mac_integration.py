"""Integration tests for the TDMA MACs over the full radio/OS stack.

These build small networks by hand (base station + nodes + stub
payload providers) to check protocol behaviour precisely: beacon
cadence, slot timing, join handshakes, grant observation, miss/resync
handling, slot revocation and the energy-defining beacon windows.
"""

import pytest

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401
from repro.mac.base import NodeState
from repro.mac.sync import FixedLead
from repro.mac.tdma_dynamic import (
    DynamicTdmaBaseMac,
    DynamicTdmaConfig,
    DynamicTdmaNodeMac,
)
from repro.mac.tdma_static import (
    StaticTdmaBaseMac,
    StaticTdmaConfig,
    StaticTdmaNodeMac,
)
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.phy.lossmodels import UniformLoss
from repro.sim.kernel import Simulator
from repro.sim.simtime import milliseconds, seconds
from repro.tinyos.scheduler import TaskScheduler

CAL = DEFAULT_CALIBRATION


class Harness:
    """Hand-built BS + N nodes with stub applications."""

    def __init__(self, sim, mac="static", num_nodes=2, cycle_ms=30.0,
                 slot_ms=10.0, preassign=True, loss_model=None,
                 payload=None):
        self.sim = sim
        self.channel = Channel(sim, loss_model=loss_model)
        self.bs_mcu = Msp430(sim, CAL, name="bs.mcu")
        self.bs_sched = TaskScheduler(sim, self.bs_mcu, name="bs.sched")
        self.bs_radio = Nrf2401(sim, CAL, self.channel, "base_station",
                                name="bs.radio")
        if mac == "static":
            self.config = StaticTdmaConfig(
                cycle_ticks=milliseconds(cycle_ms), num_slots=num_nodes)
            self.bs_mac = StaticTdmaBaseMac(
                sim, self.bs_radio, self.bs_sched, CAL, self.config)
        else:
            self.config = DynamicTdmaConfig(
                slot_ticks=milliseconds(slot_ms),
                initial_assigned=(num_nodes if preassign else 0))
            self.bs_mac = DynamicTdmaBaseMac(
                sim, self.bs_radio, self.bs_sched, CAL, self.config)
        self.delivered = []
        self.bs_mac.data_sink = self.delivered.append

        self.node_macs = []
        self.node_radios = []
        for index in range(1, num_nodes + 1):
            node_id = f"node{index}"
            mcu = Msp430(sim, CAL, name=f"{node_id}.mcu")
            sched = TaskScheduler(sim, mcu, name=f"{node_id}.sched")
            radio = Nrf2401(sim, CAL, self.channel, node_id,
                            name=f"{node_id}.radio")
            slot = index if preassign else None
            if mac == "static":
                node_mac = StaticTdmaNodeMac(
                    sim, radio, sched, CAL, self.config,
                    preassigned_slot=slot)
            else:
                node_mac = DynamicTdmaNodeMac(
                    sim, radio, sched, CAL, self.config,
                    preassigned_slot=slot)
            if preassign:
                self.bs_mac.schedule.assign(index, node_id)
            node_mac.payload_provider = payload or (lambda: (18, {"d": 1}))
            self.node_macs.append(node_mac)
            self.node_radios.append(radio)

    def start(self):
        self.bs_mac.start()
        for node_mac in self.node_macs:
            node_mac.start()


class TestStaticSteadyState:
    def test_beacons_and_data_flow(self, sim):
        harness = Harness(sim, mac="static", num_nodes=2)
        harness.start()
        sim.run_until(seconds(1.0))
        # ~33 cycles in 1 s at 30 ms; both nodes send every cycle.
        assert harness.bs_mac.counters.beacons_sent >= 32
        assert len(harness.delivered) >= 60
        sources = {frame.src for frame in harness.delivered}
        assert sources == {"node1", "node2"}

    def test_node_receives_every_beacon(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1)
        harness.start()
        sim.run_until(seconds(1.0))
        mac = harness.node_macs[0]
        assert mac.counters.beacons_received \
            == harness.bs_mac.counters.beacons_sent
        assert mac.counters.beacons_missed == 0

    def test_no_collisions_in_steady_state(self, sim):
        harness = Harness(sim, mac="static", num_nodes=5)
        harness.start()
        sim.run_until(seconds(1.0))
        assert harness.channel.collisions_detected == 0

    def test_slot_timing_separates_nodes(self, sim):
        """Data frames from different slots must never overlap."""
        harness = Harness(sim, mac="static", num_nodes=5)
        harness.start()
        sim.run_until(seconds(1.0))
        for radio in harness.node_radios:
            assert radio.snapshot_counters().corrupted == 0

    def test_empty_payload_skips_slot(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1,
                          payload=lambda: None)
        harness.start()
        sim.run_until(seconds(1.0))
        assert harness.delivered == []
        assert harness.node_radios[0].snapshot_counters().data_tx == 0

    def test_beacon_window_matches_calibration(self, sim):
        """Realised RX window == lead + beacon airtime + RX tail."""
        harness = Harness(sim, mac="static", num_nodes=1,
                          payload=lambda: None)
        harness.start()
        sim.run_until(seconds(10.0))
        mac = harness.node_macs[0]
        radio = harness.node_radios[0]
        beacons = mac.counters.beacons_received
        rx_seconds = radio.ledger.seconds_in(state="rx")
        window = CAL.sync.static_lead_s \
            + CAL.radio_timing.airtime_s(4 + 1) \
            + CAL.radio_timing.rx_tail_s
        # First acquisition window differs slightly; compare per-beacon.
        assert rx_seconds / beacons == pytest.approx(window, rel=0.02)


class TestStaticJoin:
    def test_single_node_joins(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1, preassign=False)
        harness.start()
        sim.run_until(seconds(2.0))
        mac = harness.node_macs[0]
        assert mac.state is NodeState.SYNCED
        assert mac.slot == 1
        assert mac.counters.slot_requests_sent >= 1
        assert mac.counters.grants_observed == 1
        assert harness.bs_mac.counters.slot_requests_received >= 1

    def test_five_nodes_all_join_distinct_slots(self, sim):
        harness = Harness(sim, mac="static", num_nodes=5, preassign=False)
        harness.start()
        sim.run_until(seconds(5.0))
        slots = [mac.slot for mac in harness.node_macs]
        assert all(mac.state is NodeState.SYNCED
                   for mac in harness.node_macs)
        assert sorted(slots) == [1, 2, 3, 4, 5]

    def test_join_then_data_flows(self, sim):
        harness = Harness(sim, mac="static", num_nodes=2, preassign=False)
        harness.start()
        sim.run_until(seconds(5.0))
        assert {frame.src for frame in harness.delivered} \
            == {"node1", "node2"}

    def test_network_full_rejects_extra_node(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1, preassign=True)
        # A second node wants in, but the single slot is taken.
        mcu = Msp430(sim, CAL, name="late.mcu")
        sched = TaskScheduler(sim, mcu, name="late.sched")
        radio = Nrf2401(sim, CAL, harness.channel, "late",
                        name="late.radio")
        late = StaticTdmaNodeMac(sim, radio, sched, CAL, harness.config)
        late.payload_provider = lambda: None
        harness.start()
        late.start()
        sim.run_until(seconds(3.0))
        assert late.state is NodeState.JOINING
        assert late.slot is None


class TestDynamicSteadyState:
    def test_cycle_matches_network_size(self, sim):
        harness = Harness(sim, mac="dynamic", num_nodes=3)
        harness.start()
        sim.run_until(seconds(1.0))
        assert harness.bs_mac.current_cycle_ticks() == milliseconds(40)
        assert harness.node_macs[0].cycle_ticks == milliseconds(40)

    def test_data_flow(self, sim):
        harness = Harness(sim, mac="dynamic", num_nodes=2)
        harness.start()
        sim.run_until(seconds(1.0))
        # 30 ms cycle -> ~33 packets per node per second.
        assert len(harness.delivered) >= 60

    def test_beacon_payload_grows_with_slots(self, sim):
        harness = Harness(sim, mac="dynamic", num_nodes=4)
        harness.start()
        seen_sizes = []
        harness.node_macs[0].on_beacon = \
            lambda payload: seen_sizes.append(payload.num_slots)
        sim.run_until(seconds(0.5))
        assert set(seen_sizes) == {4}


class TestDynamicJoin:
    def test_cycle_grows_as_nodes_join(self, sim):
        harness = Harness(sim, mac="dynamic", num_nodes=3,
                          preassign=False)
        harness.start()
        sim.run_until(seconds(5.0))
        assert all(mac.state is NodeState.SYNCED
                   for mac in harness.node_macs)
        # 3 joined nodes -> 3 slots -> 40 ms cycle.
        assert harness.bs_mac.current_cycle_ticks() == milliseconds(40)
        assert sorted(mac.slot for mac in harness.node_macs) == [1, 2, 3]

    def test_ssr_collisions_eventually_resolve(self, sim):
        """Several nodes starting simultaneously contend in the same ES
        window; random offsets must eventually de-conflict them."""
        harness = Harness(sim, mac="dynamic", num_nodes=5,
                          preassign=False)
        harness.start()
        sim.run_until(seconds(10.0))
        assert all(mac.state is NodeState.SYNCED
                   for mac in harness.node_macs)
        assert sorted(mac.slot for mac in harness.node_macs) \
            == [1, 2, 3, 4, 5]


class TestLossRecovery:
    def test_missed_beacons_free_run_then_resync(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1,
                          loss_model=UniformLoss(0.05),
                          payload=lambda: None)
        harness.start()
        sim.run_until(seconds(20.0))
        mac = harness.node_macs[0]
        assert mac.counters.beacons_missed > 0
        # Free-running across isolated misses: the vast majority of
        # beacons are still received and the node stays synced.
        assert mac.counters.beacons_received \
            > 0.9 * harness.bs_mac.counters.beacons_sent
        assert mac.state is NodeState.SYNCED

    def test_heavy_loss_recovers_via_acquisition(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1,
                          loss_model=UniformLoss(0.3),
                          payload=lambda: None)
        harness.start()
        sim.run_until(seconds(20.0))
        mac = harness.node_macs[0]
        # At 30% loss, 3-in-a-row misses happen regularly: the node must
        # fall back to acquisition and re-join, repeatedly and
        # successfully (grants track resyncs).
        assert mac.counters.resyncs >= 3
        assert mac.counters.grants_observed >= mac.counters.resyncs - 1
        assert mac.counters.beacons_received \
            > 0.6 * harness.bs_mac.counters.beacons_sent

    def test_total_blackout_triggers_acquisition(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1,
                          loss_model=UniformLoss(1.0),
                          payload=lambda: None)
        harness.start()
        sim.run_until(seconds(3.0))
        mac = harness.node_macs[0]
        assert mac.state is NodeState.ACQUIRING
        assert mac.counters.resyncs >= 1

    def test_data_keeps_flowing_during_free_run(self, sim):
        harness = Harness(sim, mac="static", num_nodes=1,
                          loss_model=UniformLoss(0.2))
        harness.start()
        sim.run_until(seconds(10.0))
        # Beacon losses must not stop the data stream (free-running
        # slots bridge the gaps).  Data frames themselves also take the
        # 20% loss, so expect roughly 0.8 * cycles deliveries minus the
        # occasional resync gap.
        expected_cycles = 10.0 / 0.03
        assert len(harness.delivered) > 0.6 * expected_cycles


def _config(**overrides) -> BanScenarioConfig:
    """A one-node static-TDMA streaming scenario, ``overrides`` applied."""
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=1,
                    cycle_ms=30.0, measure_s=2.0, seed=3)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


class TestSlotRevocation:
    def test_node_surrenders_revoked_slot_and_rejoins(self):
        scenario = BanScenario(_config(num_nodes=1, num_slots=2,
                                       measure_s=3.0))
        bs_schedule = scenario.base_station.mac.schedule
        # Base-station-side release mid-run: the next beacon no longer
        # lists node1.
        scenario.sim.at(seconds(1.0),
                        lambda: bs_schedule.release("node1"))
        scenario.run()
        mac = scenario.nodes[0].mac
        assert mac.counters.slot_revocations == 1
        assert mac.is_synced
        assert mac.slot is not None
        assert bs_schedule.slot_of("node1") == mac.slot
        assert list(bs_schedule.as_map().values()).count("node1") == 1
