"""Tests for the unslotted-ALOHA baseline MAC."""

import pytest

from repro.hw.mcu import Msp430
from repro.hw.radio import Nrf2401
from repro.mac.aloha import AlohaConfig, AlohaNodeMac
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.phy.channel import Channel
from repro.sim.simtime import milliseconds, seconds
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
