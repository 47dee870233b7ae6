"""Unit tests for the streaming R-peak detector."""

import random
from typing import List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.rpeak_detector import RPeakDetector
from repro.signals.ecg import SyntheticEcg


def run_detector(ecg, fs=200.0, duration_s=30.0, **kwargs):
    """Feed a sampled ECG through a detector; return detection times."""
    detector = RPeakDetector(fs, **kwargs)
    detections = []
    count = int(duration_s * fs)
    for index in range(count):
        t = index / fs
        lag = detector.process(ecg.value_at(t))
        if lag > 0:
            detections.append((index - lag) / fs)  # beat time, not confirm
    return detector, detections


class TestDetectionAccuracy:
    def test_finds_all_beats_at_75_bpm(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        _, detections = run_detector(ecg, duration_s=30.0)
        truth = [t for t in ecg.r_peak_times(30.0) if t > 1.0]
        matched = sum(1 for t in truth
                      if any(abs(d - t) < 0.06 for d in detections))
        assert matched >= len(truth) - 1

    def test_no_false_positives_on_clean_signal(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        _, detections = run_detector(ecg, duration_s=30.0)
        truth = ecg.r_peak_times(30.0)
        false_positives = [d for d in detections
                           if not any(abs(d - t) < 0.06 for t in truth)]
        assert false_positives == []

    def test_beat_count_tracks_heart_rate(self):
        for bpm in (50.0, 75.0, 100.0, 140.0):
            ecg = SyntheticEcg(heart_rate_bpm=bpm)
            detector, _ = run_detector(ecg, duration_s=30.0)
            expected = bpm / 60.0 * 29.0  # minus warm-up second
            assert detector.beats_detected \
                == pytest.approx(expected, rel=0.08)

    def test_works_at_different_sampling_rates(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        for fs in (100.0, 200.0, 500.0):
            detector, _ = run_detector(ecg, fs=fs, duration_s=20.0)
            assert detector.beats_detected == pytest.approx(24, abs=3)

    def test_lag_contract_positive_and_small(self):
        """The return value counts samples since the peak (paper's
        contract: 'how many samples ago a beat was detected')."""
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        detector = RPeakDetector(200.0)
        lags = []
        for index in range(int(200 * 10)):
            lag = detector.process(ecg.value_at(index / 200.0))
            if lag:
                lags.append(lag)
        assert lags
        assert all(0 < lag < 40 for lag in lags)  # < 200 ms at 200 Hz

    def test_refractory_blocks_t_wave(self):
        """The T wave is ~35% of R; with a 50% threshold and refractory
        it must never double-count."""
        ecg = SyntheticEcg(heart_rate_bpm=60.0)
        detector, detections = run_detector(ecg, duration_s=20.0)
        intervals = [b - a for a, b in zip(detections, detections[1:])]
        assert all(i > 0.5 for i in intervals)

    def test_amplitude_invariance(self):
        """Adaptive threshold: gain should not matter."""
        for amplitude in (0.2, 1.0, 5.0):
            ecg = SyntheticEcg(heart_rate_bpm=75.0,
                               amplitude_mv=amplitude)
            detector, _ = run_detector(ecg, duration_s=20.0)
            assert detector.beats_detected == pytest.approx(24, abs=2)

    def test_dc_offset_invariance(self):
        """Baseline removal: a big DC offset must not break detection
        (the ADC codes sit around mid-scale)."""
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        detector = RPeakDetector(200.0)
        for index in range(int(200 * 20)):
            detector.process(2048.0 + 800.0 * ecg.value_at(index / 200.0))
        assert detector.beats_detected == pytest.approx(24, abs=2)


class TestDetectorMechanics:
    def test_flat_signal_no_beats(self):
        detector = RPeakDetector(200.0)
        for _ in range(2000):
            assert detector.process(0.0) == 0
        assert detector.beats_detected == 0

    def test_warmup_suppresses_early_output(self):
        detector = RPeakDetector(200.0, warmup_s=1.0)
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        early = [detector.process(ecg.value_at(i / 200.0))
                 for i in range(200)]  # first second
        assert all(lag == 0 for lag in early)

    def test_samples_processed(self):
        detector = RPeakDetector(200.0)
        for _ in range(5):
            detector.process(0.0)
        assert detector.samples_processed == 5

    def test_last_beat_index(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        detector = RPeakDetector(200.0)
        for index in range(int(200 * 5)):
            detector.process(ecg.value_at(index / 200.0))
        assert detector.last_beat_index is not None
        assert detector.last_beat_index < detector.samples_processed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RPeakDetector(0.0)
        with pytest.raises(ValueError):
            RPeakDetector(200.0, baseline_alpha=1.5)
        with pytest.raises(ValueError):
            RPeakDetector(200.0, amplitude_decay=0.0)
        with pytest.raises(ValueError):
            RPeakDetector(200.0, threshold_fraction=1.0)


# ----------------------------------------------------------------------
# Block form: process_block == process fed one value at a time
# ----------------------------------------------------------------------
def _codes(bpm: float, noise: int, seed: int, count: int) -> List[int]:
    """A 12-bit code stream: an ECG around mid-scale plus uniform noise
    of +/- ``noise`` codes."""
    ecg = SyntheticEcg(heart_rate_bpm=bpm)
    draw = random.Random(seed)
    return [round(2048 + 800 * ecg.value_at(index / 200.0))
            + draw.randint(-noise, noise) for index in range(count)]


def _state(detector: RPeakDetector) -> List[Tuple[str, str]]:
    return [(name, repr(value)) for name, value in vars(detector).items()]


def _scalar_and_blocks(codes: Sequence[int], cuts: Sequence[int]
                       ) -> Tuple[RPeakDetector, List[Tuple[int, int]]]:
    """Feed ``codes`` sample by sample to one detector and as blocks
    split at ``cuts`` to another; both must agree bit for bit."""
    scalar, block = RPeakDetector(200.0), RPeakDetector(200.0)
    lags = [scalar.process(float(code)) for code in codes]
    expected = [(index, lag) for index, lag in enumerate(lags) if lag > 0]
    got = []
    bounds = [0, *sorted(cuts), len(codes)]
    for start, stop in zip(bounds, bounds[1:]):
        got.extend((start + position, lag) for position, lag
                   in block.process_block(codes[start:stop]))
    assert got == expected
    assert _state(block) == _state(scalar)
    return scalar, expected


@given(bpm=st.floats(min_value=40.0, max_value=180.0),
       noise=st.integers(min_value=0, max_value=300),
       seed=st.integers(min_value=0, max_value=2**16),
       cuts=st.lists(st.integers(min_value=0, max_value=600), max_size=8))
@settings(max_examples=60, deadline=None)
def test_process_block_is_process_bit_for_bit(bpm, noise, seed, cuts):
    _scalar_and_blocks(_codes(bpm, noise, seed, 600), cuts)


def test_process_block_splits_at_the_detector_edges():
    """Splits at the end of the warm-up, inside a candidate peak
    (between its opening and its confirmation) and inside the
    refractory period after a beat."""
    codes = _codes(75.0, 40, 3, 600)
    probe = RPeakDetector(200.0)
    opened, confirmed = [], []
    for index, code in enumerate(codes):
        was_open = probe._in_candidate
        if probe.process(float(code)):
            confirmed.append(index)
        if probe._in_candidate and not was_open:
            opened.append(index)
    warmup = probe._warmup
    open_at = next(index for index in opened if index > warmup)
    confirm_at = next(index for index in confirmed if index > open_at)
    assert confirm_at - open_at >= 2  # the candidate spans a split
    peak = confirm_at - dict(_scalar_and_blocks(codes, [])[1])[confirm_at]
    assert confirm_at + 2 - peak < probe._refractory
    cuts = [warmup - 1, warmup, warmup + 1, open_at + 1, confirm_at,
            confirm_at + 2]
    _, beats = _scalar_and_blocks(codes, cuts)
    assert confirm_at in dict(beats)
