"""Property-based tests (hypothesis) for core data structures and
invariants: the ledger, the event queue, 12-bit packing, slot schedules,
sync policies and the ECG generator."""

from hypothesis import given, settings, strategies as st

from repro.apps.ecg_streaming import pack_codes, unpack_codes
from repro.core.ledger import PowerStateLedger
from repro.core.states import PowerState, PowerStateTable
from repro.mac.slots import (
    SlotSchedule,
    dynamic_cycle_ticks,
    static_slot_offset,
)
from repro.mac.sync import CycleProportionalLead, DriftTrackingLead
from repro.sim.kernel import Simulator
from repro.sim.simtime import bits_duration
from repro.signals.ecg import SyntheticEcg

codes = st.lists(st.integers(min_value=0, max_value=0xFFF),
                 min_size=0, max_size=64)


class TestPackingProperties:
    @given(codes)
    def test_pack_unpack_roundtrip(self, values):
        assert unpack_codes(pack_codes(values), len(values)) == values

    @given(codes)
    def test_packed_size_is_ceil_12bit(self, values):
        packed = pack_codes(values)
        expected = (len(values) // 2) * 3 + (2 if len(values) % 2 else 0)
        assert len(packed) == expected

    @given(codes, codes)
    def test_packing_is_prefix_stable(self, first, second):
        """Packing a concatenation starts with the packing of the even-
        length prefix."""
        if len(first) % 2 == 0:
            combined = pack_codes(first + second)
            assert combined[:len(pack_codes(first))] == pack_codes(first)


class TestLedgerProperties:
    states = st.sampled_from(["a", "b", "c"])
    schedule = st.lists(
        st.tuples(st.integers(min_value=1, max_value=10_000), states),
        min_size=0, max_size=30)

    @given(schedule)
    @settings(max_examples=60)
    def test_time_partitions_exactly(self, steps):
        """Whatever the transition sequence, booked time sums exactly to
        the horizon (integer ticks: no float drift)."""
        sim = Simulator()
        table = PowerStateTable([PowerState("a", 1e-3),
                                 PowerState("b", 2e-3),
                                 PowerState("c", 0.0)])
        ledger = PowerStateLedger(sim, "x", table, 2.8, "a")
        t = 0
        for delay, state in steps:
            t += delay
            sim.at(t, lambda s=state: ledger.transition(s))
        horizon = t + 17
        sim.run_until(horizon)
        assert ledger.ticks_in() == horizon

    @given(schedule)
    @settings(max_examples=60)
    def test_energy_additive_over_states(self, steps):
        sim = Simulator()
        table = PowerStateTable([PowerState("a", 1e-3),
                                 PowerState("b", 2e-3),
                                 PowerState("c", 5e-3)])
        ledger = PowerStateLedger(sim, "x", table, 2.8, "a")
        t = 0
        for delay, state in steps:
            t += delay
            sim.at(t, lambda s=state: ledger.transition(s))
        sim.run_until(t + 5)
        total = ledger.energy_j()
        by_state = sum(ledger.energy_by_state().values())
        assert abs(total - by_state) < 1e-15


class TestEventQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=0, max_size=200))
    def test_pop_order_matches_stable_sort(self, times):
        """The simulator dispatches in (time, scheduling order)."""
        sim = Simulator()
        dispatched = []
        for index, time in enumerate(times):
            sim.at(time, lambda index=index: dispatched.append(index),
                   label=str(index))
        sim.run_until(10_000)
        expected = [i for _, i in sorted((t, i) for i, t in
                                         enumerate(times))]
        assert dispatched == expected


class TestSlotProperties:
    @given(st.integers(min_value=1, max_value=32), st.data())
    def test_assignments_are_bijective(self, num_slots, data):
        schedule = SlotSchedule(num_slots)
        nodes = [f"n{i}" for i in range(num_slots)]
        for node in nodes:
            free = schedule.free_slots()
            slot = data.draw(st.sampled_from(free))
            schedule.assign(slot, node)
        owners = [schedule.owner_of(s)
                  for s in range(1, num_slots + 1)]
        assert sorted(owners) == sorted(nodes)
        assert schedule.is_full

    @given(st.integers(min_value=1, max_value=20),
           st.integers(min_value=1, max_value=1000))
    def test_static_offsets_ordered_and_within_cycle(self, slots, cycle_ms):
        cycle = cycle_ms * 1_000_000
        offsets = [static_slot_offset(cycle, slots, s)
                   for s in range(1, slots + 1)]
        assert offsets == sorted(offsets)
        assert all(0 < o < cycle for o in offsets)

    @given(st.integers(min_value=0, max_value=100))
    def test_dynamic_cycle_linear(self, nodes):
        slot = 10_000_000
        assert dynamic_cycle_ticks(slot, nodes) == (nodes + 1) * slot


class TestSyncProperties:
    @given(st.integers(min_value=1, max_value=10**9),
           st.floats(min_value=0.0, max_value=0.1))
    def test_cycle_proportional_monotone(self, cycle, coeff):
        policy = CycleProportionalLead(1000, coeff)
        assert policy.lead_ticks(cycle, cycle) \
            <= policy.lead_ticks(2 * cycle, 2 * cycle)

    @given(st.integers(min_value=1, max_value=10**9),
           st.integers(min_value=1, max_value=10**10))
    def test_drift_guard_covers_drift(self, cycle, elapsed):
        """The guard must always be at least the worst-case clock
        divergence it protects against."""
        policy = DriftTrackingLead(tolerance_ppm=50.0, margin_ticks=0)
        drift = 2 * 50e-6 * elapsed
        assert policy.lead_ticks(cycle, elapsed) >= drift - 1


class TestSignalProperties:
    @given(st.floats(min_value=30.0, max_value=200.0),
           st.floats(min_value=1.0, max_value=60.0))
    @settings(max_examples=30)
    def test_peak_count_matches_rate(self, bpm, horizon):
        ecg = SyntheticEcg(heart_rate_bpm=bpm, first_beat_s=0.0)
        peaks = ecg.r_peak_times(horizon)
        expected = int(horizon / (60.0 / bpm)) + 1
        assert abs(len(peaks) - expected) <= 1

    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=1e5, max_value=2e6))
    def test_airtime_linear_in_bits(self, bits, rate):
        single = bits_duration(1, rate)
        assert abs(bits_duration(bits, rate) - bits * single) \
            <= bits  # rounding at most 1 tick per bit
