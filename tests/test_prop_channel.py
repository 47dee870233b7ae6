"""Property-based tests of the channel's delivery semantics.

Hypothesis draws random transmission schedules from several senders and
cross-checks the channel against an independent oracle: a frame is
delivered to a listening receiver iff (a) the receiver was in RX for
the frame's entire airtime and (b) no other frame's airtime overlapped
it at that receiver and (c) sender and receiver share the RF channel.
Over random partial topologies it also checks the collision count (one
per frame and receiver where another frame's airtime overlaps it) and
carrier sense against the same overlap arithmetic.
"""

from hypothesis import given, settings, strategies as st

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.hw.frames import Frame, FrameKind
from repro.hw.radio import Nrf2401
from repro.phy.channel import Channel
from repro.phy.topology import ExplicitLinks
from repro.sim.kernel import Simulator
from repro.sim.simtime import microseconds, seconds

CAL = DEFAULT_CALIBRATION

# Random schedules: each sender transmits one 4-byte frame at a drawn
# start time.  TX event = 195 us settle + 96 us air + 82 us tail; the
# frame occupies the air during [start+195us, start+291us].
starts = st.lists(
    st.integers(min_value=0, max_value=2_000),  # in 10 us units
    min_size=1, max_size=6)


def airtime_interval(start_ticks: int):
    air_begin = start_ticks + microseconds(195)
    air_end = air_begin + microseconds(96)  # 12-byte frame at 1 Mbit/s
    return air_begin, air_end


def oracle_delivered(schedule):
    """Indices of frames the sink should accept (no overlap at sink)."""
    intervals = [airtime_interval(s) for s in schedule]
    delivered = []
    for index, (begin, end) in enumerate(intervals):
        clean = True
        for other, (obegin, oend) in enumerate(intervals):
            if other == index:
                continue
            if begin < oend and obegin < end:
                clean = False
                break
        if clean:
            delivered.append(index)
    return delivered


class TestChannelDeliveryOracle:
    @given(starts)
    @settings(max_examples=40, deadline=None)
    def test_delivery_matches_overlap_oracle(self, raw_starts):
        schedule = [microseconds(10) * s for s in raw_starts]
        sim = Simulator()
        channel = Channel(sim)
        sink = Nrf2401(sim, CAL, channel, "sink")
        received = []
        sink.on_frame = lambda frame: received.append(frame.payload)
        sink.power_up()
        sink.start_rx()
        for index, start in enumerate(schedule):
            sender = Nrf2401(sim, CAL, channel, f"s{index}")
            sender.power_up()
            frame = Frame(src=f"s{index}", dest="sink",
                          kind=FrameKind.DATA, payload_bytes=4,
                          payload=index)
            sim.at(start, lambda s=sender, f=frame: s.send(f))
        sim.run_until(seconds(1.0))
        assert sorted(received) == oracle_delivered(schedule)

    @given(starts)
    @settings(max_examples=20, deadline=None)
    def test_rx_energy_equals_listen_duration(self, raw_starts):
        """Whatever the traffic, the sink's RX energy is exactly
        listen-time x RX power (delivery outcomes never change it)."""
        schedule = [microseconds(10) * s for s in raw_starts]
        sim = Simulator()
        channel = Channel(sim)
        sink = Nrf2401(sim, CAL, channel, "sink")
        sink.power_up()
        sink.start_rx()
        for index, start in enumerate(schedule):
            sender = Nrf2401(sim, CAL, channel, f"s{index}")
            sender.power_up()
            frame = Frame(src=f"s{index}", dest="sink",
                          kind=FrameKind.DATA, payload_bytes=4)
            sim.at(start, lambda s=sender, f=frame: s.send(f))
        horizon = seconds(0.5)
        sim.run_until(horizon)
        expected = (horizon / 1e9) * CAL.radio_rx_a * CAL.supply_v
        assert abs(sink.ledger.energy_j(state="rx") - expected) < 1e-12

    @given(starts)
    @settings(max_examples=20, deadline=None)
    def test_off_channel_senders_are_inaudible(self, raw_starts):
        schedule = [microseconds(10) * s for s in raw_starts]
        sim = Simulator()
        channel = Channel(sim)
        sink = Nrf2401(sim, CAL, channel, "sink")
        received = []
        sink.on_frame = received.append
        sink.power_up()
        sink.start_rx()
        for index, start in enumerate(schedule):
            sender = Nrf2401(sim, CAL, channel, f"s{index}")
            sender.power_up()
            sender.rf_channel = 40  # sink stays on channel 0
            frame = Frame(src=f"s{index}", dest="sink",
                          kind=FrameKind.DATA, payload_bytes=4)
            sim.at(start, lambda s=sender, f=frame: s.send(f))
        sim.run_until(seconds(1.0))
        assert received == []
        assert sink.snapshot_counters().corrupted == 0


# Random partial topologies: up to five radios, a random directed link
# set, and at most one 4-byte frame per radio.  Starts sit on a 10 us
# grid, so first bits (start + 195 us) and last bits (start + 291 us)
# never share a tick, and busy probes at 10 k + 3 us hit neither.
@st.composite
def partial_schedules(draw):
    count = draw(st.integers(min_value=2, max_value=5))
    names = [f"r{index}" for index in range(count)]
    pairs = [(a, b) for a in names for b in names if a != b]
    linked = draw(st.lists(st.booleans(), min_size=len(pairs),
                           max_size=len(pairs)))
    links = {pair for pair, up in zip(pairs, linked) if up}
    starts = draw(st.lists(st.one_of(st.none(),
                                     st.integers(min_value=0,
                                                 max_value=20)),
                           min_size=count, max_size=count))
    probes = draw(st.lists(st.integers(min_value=0, max_value=50),
                           max_size=12))
    return names, links, starts, probes


class TestPartialTopologyOracle:
    @given(partial_schedules())
    @settings(max_examples=100, deadline=None)
    def test_collisions_and_carrier_sense_match_oracle(self, drawn):
        names, links, starts, probes = drawn
        sim = Simulator()
        channel = Channel(sim, topology=ExplicitLinks(links))
        radio = {name: Nrf2401(sim, CAL, channel, name) for name in names}
        frames = []  # (sender, first bit, last bit)
        for name, start in zip(names, starts):
            if start is None:
                continue
            radio[name].power_up()
            begin, end = airtime_interval(microseconds(10) * start)
            frames.append((name, begin, end))
            frame = Frame(src=name, dest=names[0], kind=FrameKind.DATA,
                          payload_bytes=4)
            sim.at(microseconds(10) * start,
                   lambda s=radio[name], f=frame: s.send(f))
        sensed = []
        for probe in probes:
            tick = microseconds(10 * probe + 3)
            sim.at(tick, lambda t=tick: sensed.append(
                (t, {name: channel.is_busy_at(name) for name in names})))
        sim.run_until(seconds(0.01))

        def hears(sender, receiver):
            return (sender, receiver) in links

        # One count per (frame, receiver) whose airtime another frame
        # overlaps at that receiver.
        expected = sum(
            1 for sender, begin, end in frames for receiver in names
            if hears(sender, receiver) and any(
                other != sender and hears(other, receiver)
                and obegin < end and begin < oend
                for other, obegin, oend in frames))
        assert channel.collisions_detected == expected
        for tick, busy in sensed:
            assert busy == {
                name: any(hears(sender, name) and begin < tick < end
                          for sender, begin, end in frames)
                for name in names}
