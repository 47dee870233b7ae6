"""Unit tests for signal sources and the synthetic ECG generators."""

import math
from typing import Callable, Dict, List, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.signals import ecg as ecg_module
from repro.signals.arrhythmia import IrregularEcg
from repro.signals.ecg import (MAX_RECORDED_INSTANTS, MAX_RECORDINGS, PQRST,
                               SyntheticEcg, Wave)
from repro.signals.sources import ScaledSource, SignalSource
from repro.sim.simtime import TICKS_PER_SECOND, seconds


class TestSources:
    def test_scaled(self):
        ecg = SyntheticEcg()
        scaled = ScaledSource(ecg, gain=0.8, offset=1.25)
        for t in (0.0, 0.35, 0.5):
            assert scaled.value_at(t) == 0.8 * ecg.value_at(t) + 1.25


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


#: Each read-only parameter, the value a test builds with, and another.
PARAMETERS = [("heart_rate_bpm", 60.0, 40.0),
              ("amplitude_mv", 2.0, 0.5),
              ("hrv_fraction", 0.1, 0.3),
              ("hrv_frequency_hz", 0.2, 0.05),
              ("morphology", (Wave(1.0, 0.0, 0.01),), PQRST)]


@pytest.mark.parametrize("factory", [SyntheticEcg, IrregularEcg])
@pytest.mark.parametrize("name,value,other", PARAMETERS,
                         ids=[name for name, _, _ in PARAMETERS])
def test_parameters_are_read_only(factory, name, value, other):
    # The beat schedule, the waves and the shared recording are built
    # from the parameters, so a later assignment would report a value
    # the signal does not follow.
    if factory is IrregularEcg and name.startswith("hrv"):
        # IrregularEcg takes no HRV arguments: it keeps the defaults.
        ecg, value = factory(), getattr(SyntheticEcg(), name)
    else:
        ecg = factory(**{name: value})
    before = [ecg.value_at(0.01 * k) for k in range(100)]
    with pytest.raises(AttributeError):
        setattr(ecg, name, other)
    assert getattr(ecg, name) == value
    assert [ecg.value_at(0.01 * k) for k in range(100)] == before


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


def test_block_grows_the_beat_list_sample_by_sample():
    # The first beat lies over two RR intervals past the block's start,
    # so early samples bracket one beat only, and the list grows inside
    # the block.  A wave 3.2 s ahead of its beat makes the next beat,
    # not yet generated for those samples, visible in the values if a
    # block generated it early.
    def factory() -> SyntheticEcg:
        return SyntheticEcg(heart_rate_bpm=60.0, first_beat_s=5.0,
                            morphology=(Wave(1.0, -3.2, 0.1),))

    block, scalar = factory(), factory()
    times = [0.01 * k for k in range(150, 450)]
    assert _bits(block.values_at(times)) \
        == _bits([scalar.value_at(t) for t in times])
    assert block._beats == scalar._beats


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


# ----------------------------------------------------------------------
# Dense blocks: consecutive samples of a sampling grid, as the apps read
# them, so runs of samples share their bracketing beats
# ----------------------------------------------------------------------
ECG_SOURCES = ["SyntheticEcg", "IrregularEcg", "ScaledSource"]


def _dense_times(hz: float, first: int, sizes: Sequence[int]
                 ) -> List[List[float]]:
    """Consecutive blocks of ``sizes`` samples on the ``hz`` tick grid,
    from sample number ``first`` on."""
    period = round(TICKS_PER_SECOND / hz)
    blocks, index = [], first
    for size in sizes:
        blocks.append([(index + k) * period / TICKS_PER_SECOND
                       for k in range(size)])
        index += size
    return blocks


def _dense_blocks_and_scalars(name: str, blocks: List[List[float]]) -> None:
    times = [t for block in blocks for t in block]
    cuts = []
    for block in blocks[:-1]:
        cuts.append((cuts[-1] if cuts else 0) + len(block))
    _blocks_and_scalars(name, times, cuts)


@pytest.mark.parametrize("name", ECG_SOURCES)
@given(hz=st.sampled_from([55.0, 200.0, 205.0]),
       first=st.integers(min_value=0, max_value=1600),
       sizes=st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                      max_size=12))
@settings(max_examples=40, deadline=None)
def test_dense_blocks_are_value_at_bit_for_bit(name, hz, first, sizes):
    _dense_blocks_and_scalars(name, _dense_times(hz, first, sizes))


def _window_edges(ecg: SyntheticEcg) -> List[float]:
    return sorted(beat + offset_s + side * cutoff
                  for beat in ecg._beats
                  for _, offset_s, _, cutoff in ecg._waves
                  for side in (-1.0, 1.0))


@pytest.mark.parametrize("hz", [55.0, 200.0, 205.0])
@pytest.mark.parametrize("factory", [lambda: SyntheticEcg(hrv_fraction=0.2),
                                     _irregular])
def test_dense_blocks_cross_brackets_and_window_edges(factory, hz):
    # 8 s of samples in blocks of 1..30 samples; some blocks hold a beat
    # and some a window edge strictly between their end samples, so runs
    # end at beats and bumps are tested sample by sample.
    sizes = [1 + (7 * k) % 30 for k in range(200)]
    period = round(TICKS_PER_SECOND / hz)
    count = int(8.0 * TICKS_PER_SECOND) // period
    while sum(sizes) > count:
        sizes.pop()
    blocks = _dense_times(hz, 0, sizes)
    block, scalar = factory(), factory()
    got = [value for times in blocks for value in block.values_at(times)]
    assert _bits(got) == _bits([scalar.value_at(t)
                                for times in blocks for t in times])
    assert block._beats == scalar._beats
    beats, edges = block._beats, _window_edges(block)
    assert any(times[0] <= beat < times[-1]
               for times in blocks for beat in beats)
    assert any(times[0] < edge < times[-1]
               for times in blocks for edge in edges)


# ----------------------------------------------------------------------
# One recording per patient: equal-parameter instances share what their
# block reads synthesized, and serve it bit for bit
# ----------------------------------------------------------------------
def _patient() -> SyntheticEcg:
    return SyntheticEcg(hrv_fraction=0.2, first_beat_s=0.57)


def _split(times: Sequence[float], cuts: Sequence[int]
           ) -> List[List[float]]:
    """``times`` cut at ``cuts``; repeated cuts give empty blocks."""
    bounds = [0, *sorted(min(cut, len(times)) for cut in cuts), len(times)]
    return [list(times[start:stop])
            for start, stop in zip(bounds, bounds[1:])]


def _read(ecg: SyntheticEcg, blocks: Sequence[Sequence[float]]
          ) -> List[float]:
    return [value for block in blocks for value in ecg.values_at(block)]


def _synthesized(ecg: SyntheticEcg) -> List[float]:
    """The list that collects every instant ``ecg`` synthesizes from
    now on."""
    instants: List[float] = []
    synthesize = ecg._synthesize

    def counting(times: Sequence[float]) -> List[float]:
        instants.extend(times)
        return synthesize(times)

    ecg._synthesize = counting  # type: ignore[method-assign]
    return instants


cuts = st.lists(st.integers(min_value=0, max_value=400), max_size=40)


@given(first=st.integers(min_value=0, max_value=1600),
       size=st.integers(min_value=2, max_value=400),
       recorded=st.integers(min_value=1, max_value=399),
       cuts_a=cuts, cuts_b=cuts,
       other_hz=st.sampled_from([55.0, 105.0, 205.0]), cuts_c=cuts)
@settings(max_examples=60, deadline=None)
def test_recorded_reads_are_value_at_bit_for_bit(first, size, recorded,
                                                 cuts_a, cuts_b, other_hz,
                                                 cuts_c):
    ecg_module._RECORDINGS.clear()
    times = _dense_times(200.0, first, [size])[0]
    recorded = min(recorded, size - 1)
    reference = [_patient().value_at(t) for t in times]
    # One instance records a prefix of the grid, in random blocks.
    a = _patient()
    assert _bits(_read(a, _split(times[:recorded], cuts_a))) \
        == _bits(reference[:recorded])
    # A second one reads the whole grid in its own random blocks: no cut
    # at the recording's end, so one block straddles it and serves its
    # recorded prefix.  It synthesizes exactly the unrecorded instants.
    b = _patient()
    synthesized = _synthesized(b)
    blocks = _split(times, [cut for cut in cuts_b if cut != recorded])
    assert _bits(_read(b, blocks)) == _bits(reference)
    assert synthesized == times[recorded:]
    assert any(block[0] < times[recorded] <= block[-1]
               for block in blocks if block)
    # A third one reads another grid over the same span.
    c = _patient()
    other = [t for t in _dense_times(other_hz, 0, [4000])[0]
             if times[0] <= t <= times[-1] + 0.5]
    assert _bits(_read(c, _split(other, cuts_c))) \
        == _bits([_patient().value_at(t) for t in other])


def test_served_reads_grow_the_beat_list_like_synthesis():
    ecg_module._RECORDINGS.clear()
    times = _dense_times(200.0, 0, [3000])[0]
    _read(_patient(), [times])
    served, scalar = _patient(), _patient()
    synthesized = _synthesized(served)
    for start in range(0, len(times), 7):
        block = times[start:start + 7]
        served.values_at(block)
        for t in block:
            scalar.value_at(t)
        assert served._beats == scalar._beats
    assert synthesized == []


def test_a_reader_missing_once_is_served_again():
    # The recording lacks one instant (a sample its recorder read on
    # the per-sample path).  The block starting there is synthesized;
    # the next one is bisected for and served, like every other block.
    ecg_module._RECORDINGS.clear()
    times = _dense_times(200.0, 0, [100])[0]
    _read(_patient(), [times[:50], times[51:]])
    reader = _patient()
    synthesized = _synthesized(reader)
    blocks = _split(times, range(5, 100, 5))
    assert _bits(_read(reader, blocks)) \
        == _bits([_patient().value_at(t) for t in times])
    assert synthesized == times[50:55]


def test_one_sample_and_empty_blocks_are_served():
    ecg_module._RECORDINGS.clear()
    times = _dense_times(200.0, 100, [50])[0]
    _read(_patient(), [times])
    ecg = _patient()
    synthesized = _synthesized(ecg)
    for t in times:
        assert ecg.values_at([]) == []
        assert _bits(ecg.values_at([t])) == _bits([_patient().value_at(t)])
    assert synthesized == []


def test_subclasses_and_other_patients_never_share():
    ecg_module._RECORDINGS.clear()
    patient = SyntheticEcg()
    assert SyntheticEcg()._recording is patient._recording
    assert SyntheticEcg(heart_rate_bpm=75)._recording \
        is patient._recording
    assert IrregularEcg()._recording is None

    class Shifted(SyntheticEcg):
        pass

    assert Shifted()._recording is None
    # Any parameter differing, even 0.0 against -0.0 (which scale the
    # values to zeros of opposite signs), makes another patient.
    others = [SyntheticEcg(first_beat_s=0.46),
              SyntheticEcg(heart_rate_bpm=76.0),
              SyntheticEcg(amplitude_mv=2.0),
              SyntheticEcg(hrv_fraction=0.1),
              SyntheticEcg(hrv_fraction=0.1, hrv_frequency_hz=0.2),
              SyntheticEcg(morphology=PQRST[:4]),
              SyntheticEcg(amplitude_mv=0.0),
              SyntheticEcg(amplitude_mv=-0.0)]
    recordings = [patient._recording] + [o._recording for o in others]
    assert len({id(recording) for recording in recordings}) \
        == len(recordings)
    # A subclass reads its own synthesis, never the patient's recording.
    times = _dense_times(200.0, 0, [400])[0]
    _read(patient, [times])
    irregular = IrregularEcg(first_beat_s=0.35)
    synthesized = _synthesized(irregular)
    _read(irregular, [times])
    assert synthesized == times


@given(blocks=st.lists(ticks, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_a_recording_grows_only_past_its_end(blocks):
    ecg_module._RECORDINGS.clear()
    instants, values = _patient()._recording
    for block in blocks:
        times = [tick / TICKS_PER_SECOND for tick in block]
        before = instants.tolist(), values.tolist()
        assert _bits(_patient().values_at(times)) \
            == _bits([_patient().value_at(t) for t in times])
        grown = instants.tolist()
        assert grown[:len(before[0])] == before[0]
        assert values.tolist()[:len(before[1])] == before[1]
        assert grown == sorted(grown)
        end = before[0][-1] if before[0] else -math.inf
        assert grown[len(before[0]):] == [t for t in times if t > end]
    reference = _patient()
    assert _bits(values) == _bits([reference.value_at(t) for t in instants])


def test_a_recording_stops_at_its_instant_cap(monkeypatch):
    ecg_module._RECORDINGS.clear()
    monkeypatch.setattr(ecg_module, "MAX_RECORDED_INSTANTS", 30)
    times = _dense_times(200.0, 0, [100])[0]
    ecg = _patient()
    assert _bits(_read(ecg, _split(times, [7, 25, 40]))) \
        == _bits([_patient().value_at(t) for t in times])
    assert ecg._recording[0].tolist() == times[:30]
    assert MAX_RECORDED_INSTANTS >= 60 * 205


def test_the_registry_stays_within_its_constant():
    ecg_module._RECORDINGS.clear()
    patients = [SyntheticEcg(first_beat_s=0.01 * k)
                for k in range(MAX_RECORDINGS + 5)]
    assert len(ecg_module._RECORDINGS) == MAX_RECORDINGS
    # The least recently built patients went first; building a kept one
    # again shares its recording and makes it the most recent.
    kept = patients[5]
    assert SyntheticEcg(first_beat_s=0.05)._recording is kept._recording
    SyntheticEcg(first_beat_s=1.0)
    assert len(ecg_module._RECORDINGS) == MAX_RECORDINGS
    assert SyntheticEcg(first_beat_s=0.05)._recording is kept._recording
    assert SyntheticEcg(first_beat_s=0.06)._recording \
        is not patients[6]._recording
    # An instance whose patient went keeps reading its own recording.
    times = _dense_times(200.0, 0, [40])[0]
    first = patients[0]
    _read(first, [times])
    assert first._recording[0].tolist() == times
