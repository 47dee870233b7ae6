"""Unit tests for the nRF2401 radio model and its energy attribution."""

import pytest

from repro.core.losses import RadioEnergyCategory
from repro.hw.frames import BROADCAST, Frame, FrameKind
from repro.hw.radio import Nrf2401, RadioError
from repro.phy.channel import Channel
from repro.sim.kernel import Simulator
from repro.sim.simtime import microseconds, seconds, to_seconds


@pytest.fixture
def pair(sim, cal):
    """Two radios, 'a' and 'b', on a perfect channel."""
    channel = Channel(sim)
    a = Nrf2401(sim, cal, channel, "a", name="a.radio")
    b = Nrf2401(sim, cal, channel, "b", name="b.radio")
    a.power_up()
    b.power_up()
    return channel, a, b


def data_frame(src="a", dest="b", payload_bytes=18):
    return Frame(src=src, dest=dest, kind=FrameKind.DATA,
                 payload_bytes=payload_bytes, payload={"n": 1})


class TestTransmitTiming:
    def test_tx_event_duration(self, sim, cal, pair):
        _, a, _ = pair
        frame = data_frame()
        done = []
        a.power_up()
        a.send(frame, lambda outcome: done.append(sim.now))
        sim.run_until(seconds(1.0))
        assert done == [microseconds(485)]

    def test_airtime_26_bytes(self, sim, cal, pair):
        _, a, _ = pair
        assert a.airtime_ticks(data_frame()) == microseconds(208)

    def test_tx_energy_booked(self, sim, cal, pair):
        _, a, _ = pair
        a.power_up()
        a.send(data_frame())
        sim.run_until(seconds(1.0))
        expected = 485e-6 * cal.radio_tx_a * cal.supply_v
        assert a.ledger.energy_j(state="tx") == pytest.approx(expected)

    def test_tx_returns_to_standby(self, sim, cal, pair):
        _, a, _ = pair
        a.power_up()
        a.send(data_frame())
        sim.run_until(seconds(1.0))
        assert a.state == "standby"

    def test_double_send_raises(self, sim, cal, pair):
        _, a, _ = pair
        a.power_up()
        a.send(data_frame())
        with pytest.raises(RadioError):
            a.send(data_frame())

    def test_wrong_source_raises(self, sim, cal, pair):
        _, a, _ = pair
        with pytest.raises(RadioError):
            a.send(data_frame(src="b", dest="a"))

    def test_power_down_during_tx_raises(self, sim, cal, pair):
        _, a, _ = pair
        a.power_up()
        a.send(data_frame())
        with pytest.raises(RadioError):
            a.power_down()


class TestReceivePath:
    def test_delivery_to_listening_destination(self, sim, cal, pair):
        _, a, b = pair
        received = []
        b.on_frame = received.append
        b.start_rx()
        a.send(data_frame())
        sim.run_until(seconds(1.0))
        assert len(received) == 1
        assert received[0].payload == {"n": 1}

    def test_no_delivery_when_receiver_off(self, sim, cal, pair):
        _, a, b = pair
        received = []
        b.on_frame = received.append
        a.send(data_frame())
        sim.run_until(seconds(1.0))
        assert received == []

    def test_no_delivery_when_rx_started_mid_frame(self, sim, cal, pair):
        _, a, b = pair
        received = []
        b.on_frame = received.append
        a.send(data_frame())
        # Frame airtime begins at 195 us (after settle); turn RX on at
        # 250 us, i.e. mid-frame.
        sim.at(microseconds(250), b.start_rx)
        sim.run_until(seconds(1.0))
        assert received == []

    def test_no_delivery_when_rx_stopped_mid_frame(self, sim, cal, pair):
        _, a, b = pair
        received = []
        b.on_frame = received.append
        b.start_rx()
        a.send(data_frame())
        sim.at(microseconds(300), b.stop_rx)
        sim.run_until(seconds(1.0))
        assert received == []

    def test_stop_rx_mid_frame_books_no_loss(self, sim, cal, pair):
        """A MAC turning its chain off mid-frame is a routine mode
        switch: the frame drains silently, booked as no loss."""
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.at(microseconds(300), b.stop_rx)
        sim.run_until(seconds(1.0))
        snap = b.accountant.snapshot()
        assert snap.energy_j.get(RadioEnergyCategory.COLLISION, 0.0) == 0.0
        assert b.snapshot_counters().corrupted == 0

    def test_outcome_reports_delivery(self, sim, cal, pair):
        _, a, b = pair
        outcomes = []
        b.start_rx()
        a.send(data_frame(), outcomes.append)
        sim.run_until(seconds(1.0))
        assert outcomes[0].reached_destination
        assert outcomes[0].delivered_to == ["b"]

    def test_rx_energy_attributed_to_data(self, sim, cal, pair):
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.at(seconds(0.5), b.stop_rx)
        sim.run_until(seconds(1.0))
        b.finalize_attribution()
        snap = b.accountant.snapshot()
        airtime_energy = 208e-6 * cal.radio_rx_a * cal.supply_v
        assert snap.energy_j[RadioEnergyCategory.DATA_RX] \
            == pytest.approx(airtime_energy)
        # Everything else the receiver spent was idle listening.
        total_rx = b.ledger.energy_j(state="rx")
        assert snap.energy_j[RadioEnergyCategory.IDLE_LISTENING] \
            == pytest.approx(total_rx - airtime_energy)


class TestAddressFilter:
    def test_overheard_frame_dropped_in_hardware(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        c = Nrf2401(sim, cal, channel, "c")
        a.power_up()
        c.power_up()
        received = []
        c.on_frame = received.append
        c.start_rx()
        a.send(data_frame(dest="b"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert received == []  # never reaches the MCU
        c.finalize_attribution()
        snap = c.accountant.snapshot()
        assert snap.frames[RadioEnergyCategory.OVERHEARING] == 1
        assert snap.energy_j[RadioEnergyCategory.OVERHEARING] > 0

    def test_overheard_frame_delivered_with_filter_off(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        Nrf2401(sim, cal, channel, "b")
        c = Nrf2401(sim, cal, channel, "c")
        a.power_up()
        c.power_up()
        c.address_filter_enabled = False
        received = []
        c.on_frame = received.append
        c.start_rx()
        a.send(data_frame(dest="b"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert len(received) == 1  # software must now discard it

    def test_broadcast_passes_filter(self, sim, cal, pair):
        _, a, b = pair
        received = []
        b.on_frame = received.append
        b.start_rx()
        a.send(Frame(src="a", dest=BROADCAST, kind=FrameKind.BEACON,
                     payload_bytes=9, payload=None))
        sim.run_until(seconds(1.0))
        assert len(received) == 1


class TestCollisions:
    def make_three(self, sim, cal):
        channel = Channel(sim)
        a = Nrf2401(sim, cal, channel, "a")
        b = Nrf2401(sim, cal, channel, "b")
        c = Nrf2401(sim, cal, channel, "c")
        for radio in (a, b, c):
            radio.power_up()
        return channel, a, b, c

    def test_overlapping_frames_corrupt_each_other(self, sim, cal):
        channel, a, b, c = self.make_three(sim, cal)
        received = []
        c.on_frame = received.append
        c.start_rx()
        a.send(data_frame(src="a", dest="c"))
        b.send(data_frame(src="b", dest="c"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert received == []  # CRC drops both
        c.finalize_attribution()
        snap = c.accountant.snapshot()
        assert snap.frames[RadioEnergyCategory.COLLISION] == 2
        assert channel.collisions_detected > 0

    def test_collision_visible_in_tx_outcome(self, sim, cal):
        channel, a, b, c = self.make_three(sim, cal)
        c.start_rx()
        outcomes = []
        a.send(data_frame(src="a", dest="c"), outcomes.append)
        b.send(data_frame(src="b", dest="c"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert not outcomes[0].reached_destination
        assert "c" in outcomes[0].corrupted_at

    def test_tx_side_collision_energy_booked(self, sim, cal):
        channel, a, b, c = self.make_three(sim, cal)
        c.start_rx()
        a.send(data_frame(src="a", dest="c"))
        b.send(data_frame(src="b", dest="c"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        a.finalize_attribution()
        snap = a.accountant.snapshot()
        assert snap.energy_j.get(RadioEnergyCategory.COLLISION, 0) > 0
        assert snap.energy_j.get(RadioEnergyCategory.DATA_TX, 0) == 0

    def test_crc_disabled_delivers_corrupted(self, sim, cal):
        """With the CRC off the model reverts to stock-TOSSIM optimism."""
        channel, a, b, c = self.make_three(sim, cal)
        c.crc_enabled = False
        received = []
        c.on_frame = received.append
        c.start_rx()
        a.send(data_frame(src="a", dest="c"))
        b.send(data_frame(src="b", dest="c"))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert len(received) == 2

    def test_sequential_frames_do_not_collide(self, sim, cal):
        channel, a, b, c = self.make_three(sim, cal)
        received = []
        c.on_frame = received.append
        c.start_rx()
        a.send(data_frame(src="a", dest="c"))
        sim.at(microseconds(600), lambda: b.send(data_frame(src="b",
                                                            dest="c")))
        sim.at(seconds(0.5), c.stop_rx)
        sim.run_until(seconds(1.0))
        assert len(received) == 2
        assert channel.collisions_detected == 0


class TestPowerDownGuards:
    """``power_down()`` switches the chip off from stand-by only.  The
    radio books a capture's energy when the frame leaves the air and a
    sensing window's when it completes, so a power-down while the
    receive chain is on would cut that energy from its loss category
    (mid-transmission is covered by ``test_power_down_during_tx_raises``).
    """

    def test_raises_while_listening(self, sim, cal, pair):
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.run_until(microseconds(300))  # b mid-capture
        with pytest.raises(RadioError, match="receive chain is on"):
            b.power_down()
        received = []
        b.on_frame = received.append
        sim.run_until(seconds(1.0))
        assert len(received) == 1  # the capture completes

    def test_raises_in_the_rx_tail(self, sim, cal, pair):
        _, _, b = pair
        b.start_rx()
        sim.run_until(seconds(0.1))
        b.stop_rx()
        sim.run_until(seconds(0.1) + microseconds(10))  # 32 us tail
        assert b.state == "rx"
        with pytest.raises(RadioError, match="receive chain is on"):
            b.power_down()
        sim.run_until(seconds(0.2))
        b.power_down()  # the tail has ended in stand-by
        assert b.state == "power_down"
        expected = (0.1 + cal.radio_timing.rx_tail_s) \
            * cal.radio_rx_a * cal.supply_v
        assert b.ledger.energy_j(state="rx") == pytest.approx(expected)

    def test_raises_mid_cca(self, sim, cal, pair):
        _, a, _ = pair
        results = []
        a.cca(microseconds(128), results.append)
        sim.run_until(microseconds(50))
        with pytest.raises(RadioError, match="carrier sensing"):
            a.power_down()
        sim.run_until(seconds(1.0))
        assert results == [False]  # the window completes
        expected = 128e-6 * cal.radio_rx_a * cal.supply_v
        assert a.ledger.energy_j(state="cca") == pytest.approx(expected)
        snap = a.accountant.snapshot()
        assert snap.energy_j[RadioEnergyCategory.IDLE_LISTENING] \
            == pytest.approx(expected)


class TestAttributionInvariant:
    def test_attribution_sums_to_active_state_energy(self, sim, cal, pair):
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.at(seconds(0.2), b.stop_rx)
        sim.at(seconds(0.3), b.start_rx)
        sim.at(seconds(0.4),
               lambda: b.send(data_frame(src="b", dest="a")))
        sim.run_until(seconds(1.0))
        for radio in (a, b):
            radio.finalize_attribution()
            snap = radio.accountant.snapshot()
            ledger_active = radio.ledger.energy_j(state="tx") \
                + radio.ledger.energy_j(state="rx")
            assert snap.total_j == pytest.approx(ledger_active, rel=1e-9)


class TestCountersAndReset:
    def test_counters(self, sim, cal, pair):
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.at(seconds(0.5), b.stop_rx)
        sim.run_until(seconds(1.0))
        assert a.snapshot_counters().data_tx == 1
        assert b.snapshot_counters().data_rx == 1

    def test_reset_measurement(self, sim, cal, pair):
        _, a, b = pair
        b.start_rx()
        a.send(data_frame())
        sim.run_until(seconds(0.5))
        a.reset_measurement()
        b.reset_measurement()
        assert a.energy_mj() == 0.0
        assert a.snapshot_counters().data_tx == 0

    def test_rx_tail_spent_on_stop(self, sim, cal, pair):
        _, _, b = pair
        b.start_rx()
        sim.at(seconds(0.1), b.stop_rx)
        sim.run_until(seconds(1.0))
        expected = (0.1 + cal.radio_timing.rx_tail_s) \
            * cal.radio_rx_a * cal.supply_v
        assert b.ledger.energy_j(state="rx") == pytest.approx(expected)
        assert b.state == "standby"

    def test_start_rx_during_tail_keeps_receiving(self, sim, cal, pair):
        _, _, b = pair
        b.start_rx()
        sim.at(seconds(0.1), b.stop_rx)
        sim.at(seconds(0.1) + microseconds(10), b.start_rx)
        sim.run_until(seconds(0.2))
        assert b.is_receiving

    def test_standby_zero_current_by_default(self, sim, cal, pair):
        _, a, _ = pair
        a.power_up()
        sim.run_until(seconds(10.0))
        assert a.energy_mj() == 0.0
