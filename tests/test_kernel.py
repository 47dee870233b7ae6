"""Unit tests for the discrete-event kernel and event queue."""

import pytest

from repro.obs.profiler import SimulationProfiler
from repro.sim.events import (
    EVT_LABEL,
    Event,
    EventQueue,
    SimulationError,
    cancel_event,
    event_cancelled,
)
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(30, lambda: None, "c")
        queue.push(10, lambda: None, "a")
        queue.push(20, lambda: None, "b")
        assert [queue.pop()[EVT_LABEL] for _ in range(3)] == ["a", "b", "c"]

    def test_same_time_is_fifo(self):
        queue = EventQueue()
        for label in "abcde":
            queue.push(5, lambda: None, label)
        assert [queue.pop()[EVT_LABEL] for _ in range(5)] == list("abcde")

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None, "dead")
        queue.push(2, lambda: None, "alive")
        cancel_event(first)
        assert queue.pop()[EVT_LABEL] == "alive"

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1, lambda: None, "dead")
        queue.push(7, lambda: None, "alive")
        cancel_event(first)
        assert queue.peek_time() == 7

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_len_counts_entries(self):
        queue = EventQueue()
        queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert len(queue) == 2

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        stub = queue.push(1, lambda: None, "dead")
        queue.push(2, lambda: None, "alive")
        queue.push(3, lambda: None, "alive-too")
        cancel_event(stub)
        assert len(queue) == 2

    def test_len_empty_after_cancelling_everything(self):
        queue = EventQueue()
        entries = [queue.push(t, lambda: None) for t in (1, 2, 3)]
        for entry in entries:
            cancel_event(entry)
        assert len(queue) == 0

    def test_clear(self):
        queue = EventQueue()
        queue.push(1, lambda: None)
        queue.clear()
        assert queue.pop() is None

    def test_cancel_event_flag(self):
        queue = EventQueue()
        entry = queue.push(1, lambda: None)
        assert not event_cancelled(entry)
        cancel_event(entry)
        assert event_cancelled(entry)

    def test_event_view_cancel_flag(self):
        event = Event(time=0, seq=0, callback=lambda: None)
        assert not event.cancelled
        event.cancel()
        assert event.cancelled

    def test_event_view_is_valid_heap_entry(self):
        # Event instances and raw entries share one layout, so a view
        # pushed by hand interoperates with raw entries on the heap.
        from heapq import heappush

        queue = EventQueue()
        queue.push(5, lambda: None, "raw")
        heappush(queue._heap, Event(3, -1, lambda: None, "view"))
        assert queue.pop()[EVT_LABEL] == "view"
        assert queue.pop()[EVT_LABEL] == "raw"


class TestSimulatorScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_after_schedules_relative(self):
        sim = Simulator()
        fired = []
        sim.after(100, lambda: fired.append(sim.now))
        sim.run_until(200)
        assert fired == [100]

    def test_at_schedules_absolute(self):
        sim = Simulator()
        fired = []
        sim.at(150, lambda: fired.append(sim.now))
        sim.run_until(200)
        assert fired == [150]

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run_until(50)
        with pytest.raises(SimulationError):
            sim.at(20, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1, lambda: None)

    def test_call_soon_runs_after_queued_same_time(self):
        sim = Simulator()
        order = []
        sim.at(10, lambda: order.append("first"))

        def second():
            order.append("second")
            sim.call_soon(lambda: order.append("third"))

        sim.at(10, second)
        sim.run_until(10)
        assert order == ["first", "second", "third"]

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.run_until(1_000)
        assert sim.now == 1_000

    def test_run_until_backwards_raises(self):
        sim = Simulator()
        sim.run_until(100)
        with pytest.raises(SimulationError):
            sim.run_until(50)

    def test_events_beyond_horizon_not_dispatched(self):
        sim = Simulator()
        fired = []
        sim.at(500, lambda: fired.append(1))
        sim.run_until(499)
        assert fired == []
        sim.run_until(500)
        assert fired == [1]

    @pytest.mark.parametrize("observer", ["bare", "trace", "profiler"])
    def test_exception_in_callback_is_annotated(self, observer):
        sim = Simulator(trace=TraceRecorder() if observer == "trace"
                        else None)
        if observer == "profiler":
            sim.profiler = SimulationProfiler()

        def boom():
            raise ValueError("inner failure")

        sim.at(10, boom, label="exploding")
        with pytest.raises(SimulationError, match="exploding"):
            sim.run_until(10)

    def test_end_hooks_run_at_horizon(self):
        sim = Simulator()
        seen = []
        sim.add_end_hook(lambda: seen.append(sim.now))
        sim.run_until(1234)
        assert seen == [1234]

    def test_pending_events_counts_live_only(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        stub = sim.at(20, lambda: None)
        sim.at(30, lambda: None)
        assert sim.pending_events() == 3
        cancel_event(stub)
        assert sim.pending_events() == 2
        sim.run_until(30)
        assert sim.pending_events() == 0

    def test_events_dispatched_counter(self):
        sim = Simulator()
        for t in (1, 2, 3):
            sim.at(t, lambda: None)
        sim.run_until(10)
        assert sim.events_dispatched == 3

    def test_trace_records_dispatches(self):
        trace = TraceRecorder()
        sim = Simulator(trace=trace)
        sim.at(10, lambda: None, label="tick")
        sim.run_until(10)
        records = trace.filter(source="kernel")
        assert len(records) == 1
        assert records[0].detail == "tick"


class TestDeterminism:
    def test_same_seed_same_rng_sequence(self):
        first = Simulator(seed=42)
        second = Simulator(seed=42)
        a = [first.rng.stream("x").random() for _ in range(5)]
        b = [second.rng.stream("x").random() for _ in range(5)]
        assert a == b

    def test_different_seed_differs(self):
        a = Simulator(seed=1).rng.stream("x").random()
        b = Simulator(seed=2).rng.stream("x").random()
        assert a != b


class TestEvery:
    """Simulator.every re-arms one heap entry in place; its dispatch
    order must be indistinguishable from a naive per-fire at() re-arm."""

    def _run_and_log(self, schedule):
        sim = Simulator()
        log = []

        def make_handler(name):
            def handler():
                log.append((sim.now, name))
                # Coincident one-shot: its sequence number interleaves
                # with the re-arm's, so any seq-order drift shows up.
                sim.at(sim.now, lambda: log.append((sim.now,
                                                    name + ".echo")))
            return handler

        schedule(sim, make_handler)
        sim.run_until(2000)
        return log

    def test_matches_naive_at_rearm_ordering(self):
        def with_every(sim, make_handler):
            sim.every(70, make_handler("p70"))
            sim.every(110, make_handler("p110"), first_delay=30)

        def with_at(sim, make_handler):
            def arm(period, handler, first):
                def fire():
                    # Old formulation: re-arm (consuming the next seq)
                    # before the handler body runs.
                    sim.at(sim.now + period, fire)
                    handler()
                sim.at(first, fire)

            arm(70, make_handler("p70"), 70)
            arm(110, make_handler("p110"), 30)

        assert self._run_and_log(with_every) \
            == self._run_and_log(with_at)

    def test_cancelling_the_entry_stops_the_cycle(self):
        sim = Simulator()
        fired = []
        entry = sim.every(10, lambda: fired.append(sim.now))
        sim.run_until(35)
        cancel_event(entry)
        sim.run_until(100)
        assert fired == [10, 20, 30]

    def test_first_delay_zero_fires_immediately(self):
        sim = Simulator()
        fired = []
        sim.every(10, lambda: fired.append(sim.now), first_delay=0)
        sim.run_until(25)
        assert fired == [0, 10, 20]

    def test_invalid_period_and_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(-5, lambda: None)
        with pytest.raises(SimulationError):
            sim.every(10, lambda: None, first_delay=-1)
