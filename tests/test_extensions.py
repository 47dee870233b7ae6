"""Tests for the extension features: irregular-rhythm signals."""

import pytest

from repro.signals.arrhythmia import IrregularEcg
from repro.apps.rpeak_detector import RPeakDetector


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
