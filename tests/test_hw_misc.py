"""Unit tests for ADC, ASIC and frame models."""

import math
from typing import List, Sequence

import pytest

from repro.hw.adc import Adc12, FULL_SCALE_CODE
from repro.hw.asic import BiopotentialAsic, ECG_CHANNEL, NUM_CHANNELS
from repro.hw.frames import BROADCAST, Frame, FrameKind
from repro.signals.ecg import SyntheticEcg
from repro.signals.sources import ScaledSource
from repro.sim.simtime import seconds


class _UnitTone:
    """A 1 Hz unit sine, so a read shows the instant it was taken at."""

    def value_at(self, t_seconds: float) -> float:
        return math.sin(2.0 * math.pi * t_seconds)

    def values_at(self, times: Sequence[float]) -> List[float]:
        return [self.value_at(t) for t in times]


class TestAdc12:
    def test_full_scale(self):
        adc = Adc12(0.0, 2.5)
        assert adc.convert(2.5) == FULL_SCALE_CODE
        assert adc.convert(0.0) == 0

    def test_midscale(self):
        adc = Adc12(0.0, 2.5)
        assert adc.convert(1.25) == pytest.approx(2048, abs=1)

    def test_clamping(self):
        adc = Adc12(0.0, 2.5)
        assert adc.convert(5.0) == FULL_SCALE_CODE
        assert adc.convert(-1.0) == 0

    def test_roundtrip_within_half_lsb(self):
        adc = Adc12(0.0, 2.5)
        for volts in (0.1, 0.77, 1.25, 2.0, 2.44):
            code = adc.convert(volts)
            assert adc.to_volts(code) == pytest.approx(
                volts, abs=2.5 / FULL_SCALE_CODE)

    def test_to_volts_range_check(self):
        with pytest.raises(ValueError):
            Adc12().to_volts(-1)
        with pytest.raises(ValueError):
            Adc12().to_volts(FULL_SCALE_CODE + 1)

    def test_invalid_references(self):
        with pytest.raises(ValueError):
            Adc12(2.5, 2.5)

    def test_conversion_counter(self):
        adc = Adc12()
        adc.convert(1.0)
        adc.convert(1.0)
        assert adc.conversions == 2

    @pytest.mark.parametrize("rails", [(0.0, 2.5), (-1.0, 1.5)])
    def test_convert_block_is_convert(self, rails):
        volts = [-3.0, -1.0, -0.0, 0.0, 1e-12, 0.3051, 1.25, 1.2503,
                 1.4999, 1.5, 2.4997, 2.5, 2.6, 40.0]
        block, scalar = Adc12(*rails), Adc12(*rails)
        codes = block.convert_block(volts)
        assert codes == [scalar.convert(v) for v in volts]
        assert {0, FULL_SCALE_CODE} <= set(codes)
        assert block.conversions == scalar.conversions == len(volts)
        assert block.convert_block([]) == []
        assert block.conversions == len(volts)


class TestBiopotentialAsic:
    def test_constant_power(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        sim.run_until(seconds(60.0))
        # 10.5 mW * 60 s = 630 mJ (the paper's excluded constant).
        assert asic.energy_mj() == pytest.approx(630.0)

    def test_unconnected_channel_reads_zero(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        assert asic.read_channel(0) == 0.0

    def test_connected_source(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        asic.connect_source(3, ScaledSource(SyntheticEcg(), gain=0.0,
                                                offset=1.5))
        assert asic.read_channel(3) == 1.5

    def test_source_sees_simulation_time(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        asic.connect_source(0, _UnitTone())
        values = []
        sim.at(seconds(0.25), lambda: values.append(asic.read_channel(0)))
        sim.run_until(seconds(1.0))
        assert values[0] == pytest.approx(1.0)  # sin(pi/2)

    def test_channel_bounds(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        with pytest.raises(ValueError):
            asic.read_channel(NUM_CHANNELS)
        with pytest.raises(ValueError):
            asic.connect_source(-1, _UnitTone())

    def test_25_channels_with_ecg_last(self):
        assert NUM_CHANNELS == 25
        assert ECG_CHANNEL == 24

    def test_power_off_stops_consumption(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        sim.at(seconds(30.0), asic.power_off)
        sim.run_until(seconds(60.0))
        assert asic.energy_mj() == pytest.approx(315.0)

    def test_reads_counter_and_reset(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        asic.read_channel(0)
        asic.reset_measurement()
        assert asic.reads == 0
        assert asic.energy_mj() == 0.0

    def test_read_block_is_read_channel(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        asic.connect_source(2, ScaledSource(SyntheticEcg(), gain=0.4,
                                                offset=1.0))
        ticks = [0, 7, seconds(0.1), seconds(0.25), seconds(1.0) + 3]
        values = asic.read_block(2, ticks)
        assert asic.reads == len(ticks)
        assert values == [asic.read_channel(2, t) for t in ticks]

    def test_read_block_unconnected_channel_reads_zeros(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        assert asic.read_block(5, [10, 20, 30]) == [0.0, 0.0, 0.0]
        assert asic.read_block(5, []) == []
        assert asic.reads == 3

    def test_read_block_channel_bounds(self, sim, cal):
        asic = BiopotentialAsic(sim, cal)
        for channel in (-1, NUM_CHANNELS):
            with pytest.raises(ValueError):
                asic.read_block(channel, [0])
        assert asic.reads == 0


class TestFrames:
    def test_broadcast_addressing(self):
        frame = Frame(src="bs", dest=BROADCAST, kind=FrameKind.BEACON,
                      payload_bytes=9)
        assert frame.is_broadcast
        assert frame.addressed_to("anyone")

    def test_unicast_addressing(self):
        frame = Frame(src="a", dest="b", kind=FrameKind.DATA,
                      payload_bytes=18)
        assert frame.addressed_to("b")
        assert not frame.addressed_to("c")

    def test_control_classification(self):
        assert FrameKind.BEACON.is_control
        assert FrameKind.SLOT_REQUEST.is_control
        assert FrameKind.SLOT_GRANT.is_control
        assert not FrameKind.DATA.is_control

    def test_frame_ids_stamped_at_first_transmit(self):
        # Unsent frames share the "unassigned" sentinel; the radio
        # stamps a per-simulation serial at first send (a process-wide
        # counter would break repeat-run trace determinism).
        a = Frame(src="a", dest="b", kind=FrameKind.DATA, payload_bytes=1)
        b = Frame(src="a", dest="b", kind=FrameKind.DATA, payload_bytes=1)
        assert a.frame_id == b.frame_id == 0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame(src="a", dest="b", kind=FrameKind.DATA, payload_bytes=-1)

    def test_describe(self):
        frame = Frame(src="a", dest="b", kind=FrameKind.DATA,
                      payload_bytes=18)
        text = frame.describe()
        assert "a->b" in text and "18B" in text and "data" in text
