"""Deeper coverage: edge cases across kernel, radio, MAC and scenario
that the per-module suites do not reach."""

import dataclasses

import pytest

from conftest import quick_config, run_quick
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.hw.frames import Frame, FrameKind
from repro.hw.radio import Nrf2401, RadioError
from repro.mac.messages import beacon_payload_bytes
from repro.mac.tdma_static import StaticTdmaConfig
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.sim.kernel import Simulator
from repro.sim.simtime import microseconds, milliseconds, seconds
from repro.tinyos.timers import VirtualTimer

CAL = DEFAULT_CALIBRATION


class TestKernelEdges:
    def test_cancelled_timer_event_not_dispatched(self, sim):
        fired = []
        timer = VirtualTimer(sim, lambda: fired.append(sim.now))
        timer.start_one_shot(milliseconds(10))
        timer.stop()
        sim.run_until(milliseconds(20))
        assert fired == []

    def test_event_scheduled_from_end_hook_rejected_gracefully(self):
        """End hooks run after the horizon; they must not dispatch."""
        sim = Simulator()
        ran = []
        sim.add_end_hook(lambda: ran.append(sim.now))
        sim.run_until(100)
        sim.run_until(200)
        assert ran == [100, 200]

    def test_zero_duration_run(self):
        sim = Simulator()
        sim.run_until(0)
        assert sim.now == 0

    def test_many_same_time_events_fifo(self, sim):
        order = []
        for index in range(100):
            sim.at(50, lambda i=index: order.append(i))
        sim.run_until(50)
        assert order == list(range(100))


class TestRadioEdges:
    def test_send_from_power_down_is_rejected(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        Nrf2401(sim, cal, channel, "b")
        # RADIO_TRANSITIONS declares no power_down -> tx edge: the
        # radio must be powered up before transmitting.
        frame = Frame(src="a", dest="b", kind=FrameKind.DATA,
                      payload_bytes=4)
        with pytest.raises(RadioError, match="powered down"):
            a.send(frame)
        a.power_up()
        a.send(frame)
        sim.run_until(seconds(0.1))
        assert a.state == "standby"
        assert a.snapshot_counters().data_tx == 1

    def test_power_down_after_rx(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        a.power_up()
        a.start_rx()
        sim.at(seconds(0.01), a.stop_rx)
        sim.at(seconds(0.02), a.power_down)
        sim.run_until(seconds(0.1))
        assert a.state == "power_down"

    def test_zero_payload_frame(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        a.power_up()
        b.power_up()
        received = []
        b.on_frame = received.append
        b.start_rx()
        a.send(Frame(src="a", dest="b", kind=FrameKind.DATA,
                     payload_bytes=0))
        sim.at(seconds(0.05), b.stop_rx)
        sim.run_until(seconds(0.1))
        assert len(received) == 1
        # 8-byte overhead-only frame: 64 us airtime.
        assert a.airtime_ticks(received[0]) == microseconds(64)

    def test_three_way_collision(self, sim, cal):
        channel = Channel(sim)
        radios = [Nrf2401(sim, cal, channel, name)
                  for name in ("a", "b", "c")]
        sink = Nrf2401(sim, cal, channel, "sink")
        for radio in radios + [sink]:
            radio.power_up()
        received = []
        sink.on_frame = received.append
        sink.start_rx()
        for radio in radios:
            radio.send(Frame(src=radio.address, dest="sink",
                             kind=FrameKind.DATA, payload_bytes=4))
        sim.at(seconds(0.05), sink.stop_rx)
        sim.run_until(seconds(0.1))
        assert received == []
        assert sink.snapshot_counters().corrupted == 3


class TestMacEdges:
    def test_spare_slots_leave_gaps(self, sim):
        """num_slots > node count: the unowned slots simply stay silent
        and the beacon grows to carry them."""
        config = quick_config(num_nodes=2, num_slots=8, cycle_ms=90.0,
                              measure_s=2.0)
        scenario = BanScenario(config)
        result = scenario.run()
        assert result.node("node1").traffic.data_tx > 0
        # Beacon payload: 4 + 8 slots.
        assert beacon_payload_bytes(8) == 12

    def test_static_config_validation(self):
        with pytest.raises(ValueError):
            StaticTdmaConfig(cycle_ticks=0, num_slots=5)
        with pytest.raises(ValueError):
            StaticTdmaConfig(cycle_ticks=milliseconds(30), num_slots=0)
        with pytest.raises(ValueError):
            # 10 ticks cannot hold 5 slots + beacon.
            StaticTdmaConfig(cycle_ticks=3, num_slots=5)

    def test_beacon_sequence_increments(self):
        scenario, _ = run_quick(num_nodes=1, measure_s=2.0)
        sequences = []
        scenario.nodes[0].mac.on_beacon = \
            lambda payload: sequences.append(payload.sequence)
        scenario.sim.run_until(scenario.sim.now + seconds(1.0))
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_two_scenarios_do_not_share_state(self):
        _, first = run_quick(measure_s=1.0)
        _, second = run_quick(measure_s=1.0)
        assert first.node("node1").radio_mj \
            == second.node("node1").radio_mj


class TestScenarioEdges:
    def test_single_node_static(self):
        _, result = run_quick(num_nodes=1, measure_s=2.0)
        assert set(result.nodes) == {"node1"}

    def test_many_nodes_static(self):
        config = quick_config(num_nodes=10, cycle_ms=120.0,
                              measure_s=2.0, sampling_hz=55.0)
        result = BanScenario(config).run()
        assert len(result.nodes) == 10
        radios = [n.radio_mj for n in result.nodes.values()]
        assert max(radios) - min(radios) < 0.05 * max(radios)

    def test_heart_rate_changes_rpeak_traffic_linearly(self):
        _, slow = run_quick(app="rpeak", cycle_ms=60.0, measure_s=10.0,
                            heart_rate_bpm=50.0, num_nodes=1)
        _, fast = run_quick(app="rpeak", cycle_ms=60.0, measure_s=10.0,
                            heart_rate_bpm=100.0, num_nodes=1)
        ratio = fast.node("node1").traffic.data_tx \
            / max(1, slow.node("node1").traffic.data_tx)
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_calibration_standby_current_ablation(self):
        """Turning on the datasheet stand-by current adds a visible but
        small energy term (the paper's neglect is justified)."""
        from repro.core.calibration import RADIO_STANDBY_DATASHEET_A
        config = quick_config(measure_s=4.0)
        with_standby = dataclasses.replace(
            config,
            calibration=dataclasses.replace(
                config.calibration,
                radio_standby_a=RADIO_STANDBY_DATASHEET_A))
        base = BanScenario(config).run().node("node1")
        standby = BanScenario(with_standby).run().node("node1")
        delta = standby.radio_mj - base.radio_mj
        # 12 uA * 2.8 V * ~3.5 s of standby ~ 0.12 mJ over 4 s.
        assert 0.0 < delta < 0.02 * base.radio_mj

    def test_run_twice_rejected(self):
        scenario = BanScenario(quick_config(measure_s=1.0))
        scenario.run()
        with pytest.raises(RuntimeError):
            scenario.run()  # components refuse a second start


class TestExperimentShortWindows:
    def test_all_tables_runnable_at_2s(self):
        from repro.analysis.experiments import TABLE_REPRODUCERS
        for table_id, reproduce in TABLE_REPRODUCERS.items():
            result = reproduce(measure_s=2.0)
            assert len(result.rows) >= 4, table_id
            for row in result.rows:
                assert row.radio_ours_mj > 0
