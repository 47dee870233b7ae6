"""Tests for the unslotted-ALOHA baseline MAC."""

import dataclasses

import pytest

from repro.core.calibration import (
    DEFAULT_CALIBRATION,
    RADIO_STANDBY_DATASHEET_A,
)
from repro.faults import FaultPlan, NodeCrash
from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401
from repro.mac import aloha
from repro.mac.aloha import AlohaConfig, AlohaNodeMac
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.sim.simtime import (
    TICKS_PER_SECOND,
    microseconds,
    milliseconds,
    seconds,
)
from repro.sim.trace import TraceRecorder
from repro.tinyos.scheduler import TaskScheduler


def run_aloha(num_nodes=3, measure_s=5.0, app="ecg_streaming",
              cycle_ms=30.0, seed=2, **kw):
    config = BanScenarioConfig(
        mac="aloha", app=app, num_nodes=num_nodes, cycle_ms=cycle_ms,
        sampling_hz=205.0 if app == "ecg_streaming" else None,
        measure_s=measure_s, seed=seed, **kw)
    scenario = BanScenario(config)
    return scenario, scenario.run()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AlohaConfig(poll_interval_ticks=0)

    def test_scenario_accepts_aloha(self):
        config = BanScenarioConfig(mac="aloha", measure_s=1.0)
        assert config.cycle_ticks == milliseconds(30.0)


class TestNodeBehaviour:
    def test_nodes_never_listen(self):
        scenario, result = run_aloha()
        for node in scenario.nodes:
            assert node.radio.ledger.seconds_in(state="rx") == 0.0
            assert result.node(node.node_id).traffic.control_rx == 0

    def test_radio_energy_is_tx_only(self, cal):
        scenario, result = run_aloha(num_nodes=1)
        node = result.node("node1")
        tx_events = node.traffic.data_tx + node.traffic.corrupted
        expected = tx_events * cal.radio_timing.tx_event_s(18) \
            * cal.radio_tx_a * cal.supply_v * 1e3
        assert node.radio_mj == pytest.approx(expected, rel=0.01)

    def test_one_packet_per_poll_when_streaming(self):
        scenario, result = run_aloha(num_nodes=1, measure_s=6.0)
        node = result.node("node1")
        polls = 6.0 / 0.030
        assert node.traffic.data_tx == pytest.approx(polls, abs=2)

    def test_rpeak_over_aloha_sends_only_beats(self):
        scenario, result = run_aloha(num_nodes=1, app="rpeak",
                                     cycle_ms=120.0, measure_s=10.0)
        node = result.node("node1")
        # ~2.5 reports/s on two channels.
        assert node.traffic.data_tx == pytest.approx(25, rel=0.3)

    def test_deterministic(self):
        _, a = run_aloha(seed=9)
        _, b = run_aloha(seed=9)
        assert a.node("node1").radio_mj == b.node("node1").radio_mj

    def test_start_jitter_decorrelates_nodes(self):
        """With jitter disabled and identical polls, every node fires
        its provider at the same grid — collisions explode; the default
        jitter keeps losses moderate."""
        scenario, result = run_aloha(num_nodes=5, measure_s=5.0)
        bs = result.base_station.traffic
        loss = bs.corrupted / max(1, bs.corrupted + bs.data_rx)
        assert loss < 0.25


class TestDelivery:
    def test_collisions_are_silent_losses(self):
        scenario, result = run_aloha(num_nodes=5, measure_s=10.0)
        bs = result.base_station.traffic
        assert bs.corrupted > 0
        assert scenario.channel.collisions_detected > 0
        offered = 5 * 10.0 / 0.030
        assert bs.data_rx < offered

    def test_loss_grows_with_node_count(self):
        rates = []
        for nodes in (2, 8):
            _, result = run_aloha(num_nodes=nodes, measure_s=10.0)
            bs = result.base_station.traffic
            rates.append(bs.corrupted
                         / max(1, bs.corrupted + bs.data_rx))
        assert rates[1] > rates[0]

    def test_single_node_lossless(self):
        _, result = run_aloha(num_nodes=1, measure_s=5.0)
        assert result.base_station.traffic.corrupted == 0

    def test_attribution_invariant_holds(self):
        _, result = run_aloha(num_nodes=5, measure_s=5.0)
        for node in result.nodes.values():
            assert node.losses.total_j * 1e3 \
                == pytest.approx(node.radio_mj, rel=1e-9)


class TestStopReleasesRadio:
    def test_stopped_node_stops_accruing_standby(self):
        """Regression: AlohaNodeMac had no on_stop, so a stopped node's
        radio sat in stand-by forever — invisible with the paper's
        0 A stand-by figure, a real leak with the datasheet's 12 uA."""
        cal = dataclasses.replace(
            DEFAULT_CALIBRATION,
            radio_standby_a=RADIO_STANDBY_DATASHEET_A)
        config = BanScenarioConfig(
            mac="aloha", app="ecg_streaming", num_nodes=1,
            sampling_hz=205.0, measure_s=1.0, calibration=cal)
        scenario = BanScenario(config)
        scenario.start_all()
        scenario.sim.run_until(seconds(0.5))
        node = scenario.nodes[0]
        assert not node.radio.is_transmitting  # deterministic instant
        node.stack.stop_all()
        assert node.radio.state == "power_down"
        settled = node.radio.ledger.energy_j()
        scenario.sim.run_until(seconds(1.5))
        assert node.radio.ledger.energy_j() == settled

    def test_stop_mid_transmission_defers_power_down(self, sim, cal):
        channel = Channel(sim)
        Nrf2401(sim, cal, channel, "base_station", name="bs.radio")
        radio = Nrf2401(sim, cal, channel, "node1", name="node1.radio")
        scheduler = TaskScheduler(sim, Msp430(sim, cal))
        mac = AlohaNodeMac(
            sim, radio, scheduler, cal,
            AlohaConfig(poll_interval_ticks=milliseconds(0.486),
                        start_jitter=False))
        mac.payload_provider = lambda: (18, {"d": 1})
        mac.start()
        # The 486 us window pins the TX offset to <= 1 us; queued packet
        # preparations then serialise sends 4.19 ms apart, so a 485 us
        # TX event is reliably in flight at 4.4 ms.
        sim.run_until(seconds(0.0044))
        assert radio.is_transmitting
        sent_at_stop = mac.counters.data_sent
        mac.stop()
        scheduler.clear()  # a crash drops the queued preparations
        assert radio.state == "tx"     # mid-ShockBurst: deferred
        sim.run_until(seconds(0.1))
        assert radio.state == "power_down"
        # Only the in-flight frame completes after the stop.
        assert mac.counters.data_sent == sent_at_stop + 1


class TestPollChain:
    @pytest.mark.parametrize("mac", ["aloha", "csma"])
    def test_fast_reboot_keeps_one_poll_chain(self, mac):
        """Regression: the poll re-armed with a handle nobody kept, so a
        stop could not cancel it.  A reboot before the pending poll
        fired resumed the old chain next to the new one, and the node
        polled (and sent) twice as often."""
        config = BanScenarioConfig(
            mac=mac, app="ecg_streaming", num_nodes=2, seed=5,
            measure_s=2.0,
            faults=FaultPlan((NodeCrash(node="node1", at_s=1.0,
                                        reboot_after_s=0.005),)))
        trace = TraceRecorder()
        BanScenario(config, trace=trace).run()
        polls = [record.time for record in trace
                 if record.kind == "dispatch"
                 and record.detail == "node1.mac.poll"]
        before = sum(seconds(0.5) <= t < seconds(1.0) for t in polls)
        after = sum(seconds(1.5) <= t < seconds(2.0) for t in polls)
        assert before == 17
        assert after == before

    @pytest.mark.parametrize("mac,seed", [("aloha", 23), ("csma", 17)])
    def test_reboot_drops_frame_polled_before_crash(self, mac, seed,
                                                    monkeypatch):
        """Regression: one-shots scheduled before a crash (ALOHA's
        ``tx_at``, CSMA's backoff, the queued ``pkt_prep`` task) fired
        into the rebooted MAC, whose ``started`` guards passed again, so
        the frame polled before the crash was still sent next to the
        new boot's own."""
        config = BanScenarioConfig(
            mac=mac, app="ecg_streaming", num_nodes=3, measure_s=2.0,
            seed=seed, sampling_hz=205.0)
        trace = TraceRecorder()
        BanScenario(config, trace=trace).run()
        poll = next(record.time for record in trace
                    if record.kind == "dispatch"
                    and record.detail == "node1.mac.poll"
                    and record.time >= seconds(1.0))
        crash = poll + microseconds(10)
        reboot = crash + microseconds(50)
        scenario = BanScenario(dataclasses.replace(config, faults=FaultPlan((
            NodeCrash(node="node1", at_s=crash / TICKS_PER_SECOND,
                      reboot_after_s=(reboot - crash) / TICKS_PER_SECOND),
        ))))
        polled, sends = [], []  # (time, frame): frames stay alive
        make_data, send = aloha.make_data, Nrf2401.send

        def stamped_make_data(*args):
            frame = make_data(*args)
            polled.append((scenario.sim.now, frame))
            return frame

        def recording_send(radio, frame, on_complete=None):
            sends.append((scenario.sim.now, frame))
            send(radio, frame, on_complete)

        monkeypatch.setattr(aloha, "make_data", stamped_make_data)
        monkeypatch.setattr(Nrf2401, "send", recording_send)
        scenario.run()
        polled_at = {id(frame): time for time, frame in polled}
        assert poll in polled_at.values()  # the crash strands a frame
        stale = [(time, frame.describe()) for time, frame in sends
                 if frame.src == "node1" and time >= reboot
                 and polled_at[id(frame)] < crash]
        assert stale == []


class TestOversizeFrames:
    def _mac(self, sim, cal, poll_ms, payload_bytes):
        channel = Channel(sim)
        Nrf2401(sim, cal, channel, "base_station", name="bs.radio")
        radio = Nrf2401(sim, cal, channel, "node1", name="node1.radio")
        mac = AlohaNodeMac(
            sim, radio, TaskScheduler(sim, Msp430(sim, cal)), cal,
            AlohaConfig(poll_interval_ticks=milliseconds(poll_ms),
                        start_jitter=False))
        mac.payload_provider = lambda: (payload_bytes, {"d": 1})
        return mac

    def test_oversize_frame_skipped_not_spilled(self, sim, cal):
        """Regression: an offset clamp of max(0, interval - tx_event)
        scheduled oversize frames at offset 0; their airtime spilled
        into the next poll window and collided with the node's own
        next transmission (RadioError: send while transmitting)."""
        # 600 B payload -> 5141 us TX event, against a 4 ms window.
        mac = self._mac(sim, cal, poll_ms=4.0, payload_bytes=600)
        mac.start()
        sim.run_until(seconds(0.5))
        assert mac.counters.oversize_skipped > 0
        assert mac.counters.data_sent == 0

    def test_exactly_fitting_frame_still_sent(self, sim, cal):
        # 600 B payload: TX event 5141 us == the poll window.
        mac = self._mac(sim, cal, poll_ms=5.141, payload_bytes=600)
        mac.start()
        sim.run_until(seconds(0.5))
        assert mac.counters.oversize_skipped == 0
        assert mac.counters.data_sent > 0


class TestEnergyComparison:
    def test_aloha_order_of_magnitude_below_tdma(self):
        _, aloha = run_aloha(num_nodes=5, measure_s=5.0)
        tdma = BanScenario(BanScenarioConfig(
            mac="static", app="ecg_streaming", num_nodes=5,
            cycle_ms=30.0, sampling_hz=205.0, measure_s=5.0)).run()
        assert aloha.node("node1").radio_mj \
            < 0.15 * tdma.node("node1").radio_mj

    def test_base_station_energy_similar(self):
        """Both MACs keep the collector's receiver on ~continuously."""
        _, aloha = run_aloha(num_nodes=3, measure_s=5.0)
        tdma = BanScenario(BanScenarioConfig(
            mac="static", app="ecg_streaming", num_nodes=3,
            cycle_ms=30.0, sampling_hz=205.0, measure_s=5.0)).run()
        assert aloha.base_station.radio_mj \
            == pytest.approx(tdma.base_station.radio_mj, rel=0.15)
