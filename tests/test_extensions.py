"""Tests for the extension features: dynamic slot reclaim and
irregular-rhythm signals."""

import pytest

from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.signals.arrhythmia import IrregularEcg
from repro.apps.rpeak_detector import RPeakDetector
from repro.sim.simtime import milliseconds, seconds


class TestSlotReclaim:
    def test_silent_node_slot_reclaimed_and_reused(self):
        from repro.mac.tdma_dynamic import DynamicTdmaConfig
        config = BanScenarioConfig(mac="dynamic", app="ecg_streaming",
                                   num_nodes=3, measure_s=1.0)
        scenario = BanScenario(config)
        # Rebuild the BS MAC config with the reclaim extension on.
        bs_mac = scenario.base_station.mac
        bs_mac.config = DynamicTdmaConfig(
            slot_ticks=milliseconds(10.0), initial_assigned=3,
            inactivity_timeout_s=0.5)
        scenario.base_station.start()
        for node in scenario.nodes:
            node.start()
        sim = scenario.sim
        sim.run_until(seconds(1.0))
        assert bs_mac.schedule.slot_of("node2") == 2
        # node2 dies (stack stops: no more beacon tracking or TX).
        scenario.nodes[1].stack.stop_all()
        sim.run_until(seconds(3.0))
        assert bs_mac.slots_reclaimed >= 1
        assert bs_mac.schedule.slot_of("node2") is None
        # The surviving nodes keep their slots.
        assert bs_mac.schedule.slot_of("node1") == 1
        assert bs_mac.schedule.slot_of("node3") == 3

    def test_reclaim_disabled_by_default(self):
        config = BanScenarioConfig(mac="dynamic", app="rpeak",
                                   num_nodes=2, measure_s=3.0)
        scenario = BanScenario(config)
        scenario.run()
        assert scenario.base_station.mac.slots_reclaimed == 0

    def test_timeout_validation(self):
        from repro.mac.tdma_dynamic import DynamicTdmaConfig
        with pytest.raises(ValueError):
            DynamicTdmaConfig(inactivity_timeout_s=0.0)


class TestIrregularEcg:
    def test_dropped_beats_lengthen_rr(self):
        ecg = IrregularEcg(heart_rate_bpm=60.0, dropped_beat_prob=0.2,
                           seed=4)
        intervals = ecg.rr_intervals(120.0)
        assert ecg.beats_dropped > 5
        assert max(intervals) == pytest.approx(2.0, abs=0.01)
        assert min(intervals) == pytest.approx(1.0, abs=0.01)

    def test_premature_beats_shorten_rr(self):
        ecg = IrregularEcg(heart_rate_bpm=60.0, premature_beat_prob=0.2,
                           premature_fraction=0.4, seed=4)
        intervals = ecg.rr_intervals(120.0)
        assert ecg.beats_premature > 5
        assert min(intervals) == pytest.approx(0.4, abs=0.01)

    def test_jitter_bounds(self):
        ecg = IrregularEcg(heart_rate_bpm=60.0, rr_jitter_fraction=0.1,
                           seed=1)
        intervals = ecg.rr_intervals(60.0)
        assert all(0.9 <= rr <= 1.1 for rr in intervals)
        assert max(intervals) > 1.05 and min(intervals) < 0.95

    def test_deterministic(self):
        a = IrregularEcg(dropped_beat_prob=0.1, seed=9)
        b = IrregularEcg(dropped_beat_prob=0.1, seed=9)
        assert a.r_peak_times(60.0) == b.r_peak_times(60.0)

    def test_detector_survives_dropped_beats(self):
        ecg = IrregularEcg(heart_rate_bpm=75.0, dropped_beat_prob=0.1,
                           seed=2)
        detector = RPeakDetector(200.0)
        for index in range(200 * 60):
            detector.process(ecg.value_at(index / 200.0))
        truth = len(ecg.r_peak_times(60.0))
        assert detector.beats_detected == pytest.approx(truth, abs=4)

    def test_detector_with_premature_beats(self):
        """Premature beats at 40% of an 800 ms RR (i.e. 320 ms spacing)
        are outside the 250 ms refractory and should mostly be found."""
        ecg = IrregularEcg(heart_rate_bpm=75.0, premature_beat_prob=0.15,
                           seed=2)
        detector = RPeakDetector(200.0)
        for index in range(200 * 60):
            detector.process(ecg.value_at(index / 200.0))
        truth = len(ecg.r_peak_times(60.0))
        assert detector.beats_detected >= 0.9 * truth

    def test_validation(self):
        with pytest.raises(ValueError):
            IrregularEcg(dropped_beat_prob=1.0)
        with pytest.raises(ValueError):
            IrregularEcg(premature_fraction=0.05)
        with pytest.raises(ValueError):
            IrregularEcg(rr_jitter_fraction=0.5)
