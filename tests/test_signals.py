"""Unit tests for signal sources and the synthetic ECG/EEG generators."""

import math
from typing import Callable, Dict, List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.signals.arrhythmia import IrregularEcg
from repro.signals.ecg import PQRST, SyntheticEcg, Wave
from repro.signals.eeg import SyntheticEeg
from repro.signals.sources import (
    ConstantSource,
    HashNoiseSource,
    MixSource,
    ScaledSource,
    SignalSource,
    SineSource,
)
from repro.sim.simtime import TICKS_PER_SECOND, seconds


class TestSources:
    def test_constant(self):
        assert ConstantSource(1.5).value_at(123.0) == 1.5

    def test_sine(self):
        source = SineSource(2.0, amplitude=3.0, offset=1.0)
        assert source.value_at(0.0) == pytest.approx(1.0)
        assert source.value_at(0.125) == pytest.approx(4.0)

    def test_sine_validation(self):
        with pytest.raises(ValueError):
            SineSource(0.0)

    def test_hash_noise_deterministic(self):
        a = HashNoiseSource(1.0, seed=7)
        b = HashNoiseSource(1.0, seed=7)
        times = [0.001 * k for k in range(100)]
        assert [a.value_at(t) for t in times] == \
            [b.value_at(t) for t in times]

    def test_hash_noise_bounded_and_varied(self):
        source = HashNoiseSource(0.5, seed=1)
        values = [source.value_at(0.001 * k) for k in range(500)]
        assert all(-0.5 <= v <= 0.5 for v in values)
        assert len(set(values)) > 400

    def test_hash_noise_seed_changes_sequence(self):
        a = HashNoiseSource(1.0, seed=1).value_at(0.5)
        b = HashNoiseSource(1.0, seed=2).value_at(0.5)
        assert a != b

    def test_hash_noise_zero_amplitude(self):
        assert HashNoiseSource(0.0).value_at(1.0) == 0.0

    def test_hash_noise_validation(self):
        with pytest.raises(ValueError):
            HashNoiseSource(-1.0)

    def test_mix_weighted_sum(self):
        mix = MixSource([ConstantSource(1.0), ConstantSource(2.0)],
                        weights=[2.0, 0.5])
        assert mix.value_at(0.0) == pytest.approx(3.0)

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            MixSource([])
        with pytest.raises(ValueError):
            MixSource([ConstantSource()], weights=[1.0, 2.0])

    def test_scaled(self):
        scaled = ScaledSource(ConstantSource(2.0), gain=0.8, offset=1.25)
        assert scaled.value_at(0.0) == pytest.approx(2.85)


class TestSyntheticEcg:
    def test_r_peaks_at_75_bpm(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        peaks = ecg.r_peak_times(60.0)
        # 75 bpm for 60 s starting at 0.35 s -> 75 peaks.
        assert len(peaks) == 75
        intervals = [b - a for a, b in zip(peaks, peaks[1:])]
        assert all(i == pytest.approx(0.8) for i in intervals)

    def test_signal_peaks_at_beat_times(self):
        ecg = SyntheticEcg(heart_rate_bpm=75.0)
        beat = ecg.r_peak_times(5.0)[2]
        at_peak = ecg.value_at(beat)
        off_peak = ecg.value_at(beat + 0.4)
        assert at_peak > 0.9  # R amplitude ~1 mV
        assert at_peak > 3 * abs(off_peak)

    def test_deterministic(self):
        a = SyntheticEcg()
        b = SyntheticEcg()
        times = [0.01 * k for k in range(300)]
        assert [a.value_at(t) for t in times] == \
            [b.value_at(t) for t in times]

    def test_query_order_does_not_matter(self):
        forward = SyntheticEcg()
        backward = SyntheticEcg()
        times = [0.05 * k for k in range(200)]
        values_fwd = [forward.value_at(t) for t in times]
        values_bwd = list(reversed(
            [backward.value_at(t) for t in reversed(times)]))
        assert values_fwd == values_bwd

    def test_hrv_modulates_intervals(self):
        ecg = SyntheticEcg(heart_rate_bpm=60.0, hrv_fraction=0.1)
        peaks = ecg.r_peak_times(30.0)
        intervals = [b - a for a, b in zip(peaks, peaks[1:])]
        assert max(intervals) > 1.01
        assert min(intervals) < 0.99

    def test_amplitude_scale(self):
        quiet = SyntheticEcg(amplitude_mv=0.5)
        loud = SyntheticEcg(amplitude_mv=2.0)
        beat = quiet.r_peak_times(2.0)[0]
        assert loud.value_at(beat) == pytest.approx(
            4 * quiet.value_at(beat))

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticEcg(heart_rate_bpm=0.0)
        with pytest.raises(ValueError):
            SyntheticEcg(hrv_fraction=0.7)

    def test_morphology_has_five_waves(self):
        assert len(PQRST) == 5
        r_wave = max(PQRST, key=lambda w: w.amplitude)
        assert r_wave.offset_s == 0.0  # R defines the beat time

    def test_custom_morphology(self):
        mono = SyntheticEcg(morphology=[Wave(1.0, 0.0, 0.01)])
        beat = mono.r_peak_times(2.0)[0]
        assert mono.value_at(beat) == pytest.approx(1.0, abs=0.01)


class TestSyntheticEeg:
    def test_deterministic_per_seed(self):
        a = SyntheticEeg(seed=3)
        b = SyntheticEeg(seed=3)
        assert a.value_at(1.234) == b.value_at(1.234)

    def test_seed_changes_waveform(self):
        assert SyntheticEeg(seed=1).value_at(0.5) \
            != SyntheticEeg(seed=2).value_at(0.5)

    def test_band_rms_matches_spec(self):
        eeg = SyntheticEeg(seed=0)
        rms = eeg.band_rms()
        assert rms["alpha"] == pytest.approx(20.0, rel=1e-6)
        assert rms["beta"] == pytest.approx(6.0, rel=1e-6)

    def test_amplitude_plausible(self):
        eeg = SyntheticEeg(seed=0)
        values = [eeg.value_at(0.01 * k) for k in range(1000)]
        rms = math.sqrt(sum(v * v for v in values) / len(values))
        total = math.sqrt(sum(r * r for r in eeg.band_rms().values()))
        assert rms == pytest.approx(total, rel=0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticEeg(tones_per_band=0)


# ----------------------------------------------------------------------
# Block evaluation: values_at == [value_at(t) ...], bit for bit
# ----------------------------------------------------------------------
def _irregular() -> IrregularEcg:
    return IrregularEcg(heart_rate_bpm=90.0, dropped_beat_prob=0.3,
                        premature_beat_prob=0.3, rr_jitter_fraction=0.3,
                        seed=5)


#: One factory per source class; each call builds a fresh instance.
SOURCES: Dict[str, Callable[[], SignalSource]] = {
    "SyntheticEcg": lambda: SyntheticEcg(hrv_fraction=0.2),
    "IrregularEcg": _irregular,
    "SyntheticEeg": lambda: SyntheticEeg(seed=3),
    "SineSource": lambda: SineSource(7.0, amplitude=0.3, phase_rad=0.2,
                                     offset=1.0),
    "ConstantSource": lambda: ConstantSource(1.25),
    "HashNoiseSource": lambda: HashNoiseSource(0.05, seed=9),
    "MixSource": lambda: MixSource(
        [SyntheticEcg(), HashNoiseSource(0.05, seed=2)],
        weights=[1.0, 0.5]),
    "ScaledSource": lambda: ScaledSource(_irregular(), gain=0.8,
                                         offset=1.25),
}


def _bits(values: Sequence[float]) -> List[str]:
    return [value.hex() for value in values]


def _blocks_and_scalars(name: str, times: Sequence[float],
                        cuts: Sequence[int]) -> None:
    """Feed ``times`` to one instance as consecutive blocks split at
    ``cuts`` (each block twice, as a second channel would) and to
    another sample by sample; the values must agree bit for bit."""
    block, scalar = SOURCES[name](), SOURCES[name]()
    got: List[float] = []
    bounds = [0, *sorted(cuts), len(times)]
    for start, stop in zip(bounds, bounds[1:]):
        first = block.values_at(times[start:stop])
        assert _bits(block.values_at(times[start:stop])) == _bits(first)
        got.extend(first)
    assert _bits(got) == _bits([scalar.value_at(t) for t in times])


ticks = st.lists(st.integers(min_value=0, max_value=seconds(8.0)),
                 min_size=1, max_size=60).map(sorted)


@pytest.mark.parametrize("name", sorted(SOURCES))
@given(ticks=ticks, cuts=st.lists(st.integers(min_value=0, max_value=60),
                                  max_size=3))
@settings(max_examples=40, deadline=None)
def test_values_at_is_value_at_bit_for_bit(name, ticks, cuts):
    times = [tick / TICKS_PER_SECOND for tick in ticks]
    _blocks_and_scalars(name, times,
                        [min(cut, len(times)) for cut in cuts])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_element_block(name):
    _blocks_and_scalars(name, [0.4005], [])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_block_before_the_first_beat(name):
    # Every ECG here has its first R peak at 0.35 s.
    _blocks_and_scalars(name, [0.005 * k for k in range(60)], [])


@pytest.mark.parametrize("factory", [SyntheticEcg, _irregular])
def test_block_straddling_the_beat_list_horizon(factory):
    # A fresh generator holds one beat; one block runs 20 s past it, so
    # the beat list grows inside the block exactly as sample-by-sample
    # reads grow it.
    block, scalar = factory(), factory()
    times = [0.3 + 0.005 * k for k in range(4000)]
    assert block._beats[-1] < times[-1]
    assert _bits(block.values_at(times)) \
        == _bits([scalar.value_at(t) for t in times])
    assert block._beats == scalar._beats
    if isinstance(block, IrregularEcg):
        assert (block.beats_dropped, block.beats_premature) \
            == (scalar.beats_dropped, scalar.beats_premature) != (0, 0)
