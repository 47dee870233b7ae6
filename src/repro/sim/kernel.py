"""The discrete-event simulation kernel.

:class:`Simulator` plays the role TOSSIM plays in the paper: it owns the
global clock and the event queue, and every modelled entity (radios,
timers, the TinyOS scheduler, the channel) advances by scheduling callbacks
on it.

Design notes
------------

* Time is an integer tick count (see :mod:`repro.sim.simtime`); the clock
  only moves forward, to the timestamp of the event being dispatched.
* ``run_until(t)`` dispatches every event with ``time <= t`` and then sets
  the clock to exactly ``t`` so that energy ledgers can be closed at a
  well-defined horizon.
* Exceptions raised inside callbacks propagate out of ``run*`` unchanged,
  annotated with the event label — silent event loss would make energy
  figures quietly wrong.
* ``run_until`` has two dispatch loops, chosen once per run: a bare
  loop (the simulator's hottest code) and an observed loop.  Both
  operate on the queue's raw heap of :class:`~repro.sim.events.Event`
  entries (peek + pop fused into one pass, slots read by index).  Event
  *order* is identical to the straightforward peek/pop formulation —
  the heap key is still (time, seq) — so traces, goldens and energy
  figures are byte-identical.
* Observability is opt-in and branch-free on the hot path: assigning
  :attr:`Simulator.trace` (a :class:`~repro.sim.trace.TraceRecorder`)
  or :attr:`Simulator.profiler` (a
  :class:`~repro.obs.profiler.SimulationProfiler`) switches
  ``run_until`` to the observed loop, which records every dispatch to
  the trace and times every callback for the profiler; assigning
  :attr:`Simulator.metrics` (a
  :class:`~repro.obs.metrics.MetricsRegistry`) records dispatch
  counters/rates once per ``run_until`` *call* — never per event —
  so the disabled path executes exactly the code it executed before,
  and even the enabled path leaves event order and energies
  byte-identical.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from .events import (
    EVT_CALLBACK,
    EVT_CANCELLED,
    EVT_LABEL,
    EVT_TIME,
    EventEntry,
    EventQueue,
    SimulationError,
)
from .rng import RngRegistry
from .trace import TraceRecorder

if TYPE_CHECKING:  # repro.obs stays an optional, opt-in dependency
    from ..obs.metrics import MetricsRegistry
    from ..obs.profiler import SimulationProfiler


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: master seed for the per-purpose random streams handed out by
            :attr:`rng`.  Two simulators built with the same seed and the
            same scenario dispatch byte-identical event sequences.
        trace: optional :class:`TraceRecorder`; when provided, every
            dispatched event is logged to it.
    """

    __slots__ = ("_now", "_queue", "_running", "_dispatched", "rng",
                 "trace", "_end_hooks", "profiler", "metrics",
                 "_serial")

    def __init__(self, seed: int = 0,
                 trace: Optional[TraceRecorder] = None) -> None:
        self._now = 0
        self._queue = EventQueue()
        self._running = False
        self._dispatched = 0
        self._serial = 0
        self.rng = RngRegistry(seed)
        self.trace = trace
        self._end_hooks: List[Callable[[], None]] = []
        #: Optional :class:`~repro.obs.profiler.SimulationProfiler`;
        #: when set, ``run_until`` times every callback (slower, but
        #: event order and energies are unchanged).
        self.profiler: Optional["SimulationProfiler"] = None
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: set, each ``run_until`` call records its dispatch count and
        #: rate (cost is per *call*, never per event).
        self.metrics: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in ticks."""
        return self._now

    @property
    def running(self) -> bool:
        """Whether a ``run*`` loop is dispatching events right now."""
        return self._running

    @property
    def events_dispatched(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._dispatched

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, callback: Callable[[], None],
           label: str = "") -> EventEntry:
        """Schedule ``callback`` at absolute ``time``.

        Raises :class:`SimulationError` if ``time`` is in the past.
        Scheduling *at the current instant* is allowed and runs after all
        callbacks already queued for that instant (FIFO), matching TinyOS
        task-post semantics.  The returned entry can be cancelled with
        :func:`~repro.sim.events.cancel_event`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule {label!r} at {time} ticks: "
                f"clock already at {self._now}")
        # Inlined EventQueue.push (this is the scheduling hot path; see
        # the module docstring).
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        event = [time, seq, False, callback, label]
        heappush(queue._heap, event)
        return event

    def after(self, delay: int, callback: Callable[[], None],
              label: str = "") -> EventEntry:
        """Schedule ``callback`` ``delay`` ticks from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {label!r} with negative delay {delay}")
        # Inlined EventQueue.push (scheduling hot path).
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        event = [self._now + delay, seq, False, callback, label]
        heappush(queue._heap, event)
        return event

    def call_soon(self, callback: Callable[[], None],
                  label: str = "") -> EventEntry:
        """Schedule ``callback`` at the current instant (after queued peers)."""
        return self._queue.push(self._now, callback, label)

    def every(self, period: int, callback: Callable[[], None],
              label: str = "",
              first_delay: Optional[int] = None) -> EventEntry:
        """Schedule ``callback`` every ``period`` ticks; return the entry.

        The fast path for periodic ticks (sampling timers fire at
        hundreds of hertz per node): one persistent heap entry is
        re-armed *in place* on each fire — advance its time by
        ``period``, stamp a fresh sequence number, push it back — so a
        period costs one heap push instead of an ``at()`` call
        allocating a new entry through the scheduling checks.

        Dispatch order is exactly what per-fire ``at()`` re-arming
        produced: the re-arm consumes the next sequence number at the
        same point (before the callback body runs), the grid advances
        from the *scheduled* time, and the (time, seq) heap key is
        identical.  Cancelling the returned entry (or any entry a later
        fire re-pushed — it is the same list object) stops the cycle:
        the kernel discards cancelled entries on pop, so no re-arm
        happens.  The first fire comes after ``first_delay`` ticks
        (default ``period``).
        """
        if period <= 0:
            raise SimulationError(
                f"cannot schedule {label!r} with period {period}; "
                "periods must be positive")
        delay = period if first_delay is None else first_delay
        if delay < 0:
            raise SimulationError(
                f"cannot schedule {label!r} with negative delay {delay}")
        queue = self._queue
        heap = queue._heap
        entry: EventEntry = [self._now + delay, 0, False, None, label]

        def fire() -> None:
            # Re-arm from the scheduled time (entry[0] is the fire time
            # the kernel just dispatched), consuming the next sequence
            # number before the callback body — exactly as a per-fire
            # at() re-arm did.
            entry[0] += period
            seq = queue._next_seq
            queue._next_seq = seq + 1
            entry[1] = seq
            heappush(heap, entry)
            callback()

        entry[3] = fire
        seq = queue._next_seq
        queue._next_seq = seq + 1
        entry[1] = seq
        heappush(heap, entry)
        return entry

    def add_end_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable invoked when a ``run*`` call finishes.

        Used by energy ledgers to close their open state interval at the
        simulation horizon so reported energies cover exactly the simulated
        duration.
        """
        self._end_hooks.append(hook)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_until(self, end_time: int) -> None:
        """Dispatch all events with time <= ``end_time``.

        On return the clock reads exactly ``end_time`` and all end hooks
        have run, so time-in-state accounting is complete up to the horizon.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end time {end_time} is before current time {self._now}")
        if self.trace is not None or self.profiler is not None:
            self._run_until_observed(end_time)
            return
        metrics = self.metrics
        run_started = perf_counter() if metrics is not None else 0.0
        heap = self._queue._heap
        # Local aliases keep the per-event loop free of global lookups.
        # Pop first and push the (rare) past-horizon head back rather
        # than peeking every iteration; the pushed-back entry keeps its
        # (time, seq) key, so the dispatch order is unchanged.
        pop = heappop
        time_i, cancelled_i = EVT_TIME, EVT_CANCELLED
        callback_i, label_i = EVT_CALLBACK, EVT_LABEL
        dispatched = 0
        self._running = True
        try:
            while heap:
                event = pop(heap)
                time = event[time_i]
                if time > end_time:
                    heappush(heap, event)
                    break
                if event[cancelled_i]:
                    continue
                self._now = time
                dispatched += 1
                try:
                    event[callback_i]()
                except SimulationError:
                    raise
                # lint: allow(EXC001): wrapped into SimulationError
                except Exception as exc:
                    raise SimulationError(
                        f"event {event[label_i]!r} at t={time} "
                        f"failed: {exc}") from exc
        finally:
            self._running = False
            self._dispatched += dispatched
        self._now = end_time
        if metrics is not None:
            self._record_run_metrics(metrics, dispatched,
                                     perf_counter() - run_started)
        for hook in self._end_hooks:
            hook()

    def _record_run_metrics(self, metrics: "MetricsRegistry",
                            dispatched: int,
                            elapsed_s: float) -> None:
        """Record one ``run_until`` call's dispatch figures.

        Called once per run *call* (never per event): the queue depth
        gauge and a wall-time-weighted dispatch-rate histogram, whose
        mean is therefore the overall events-per-wall-second rate.
        """
        metrics.gauge("kernel", "-", "queue_depth").set(len(self._queue))
        if dispatched and elapsed_s > 0.0:
            metrics.histogram("kernel", "-", "dispatch_rate_eps").observe(
                dispatched / elapsed_s, weight=elapsed_s)

    def _run_until_observed(self, end_time: int) -> None:
        """The ``run_until`` loop for an observed simulator.

        Selected when :attr:`trace` or :attr:`profiler` is set.
        Dispatch order, clock behaviour and error handling are
        identical to the bare loop.  It records every dispatch to the
        trace, when one is set, and reads ``perf_counter`` around every
        callback; the timings, aggregated per label, are absorbed into
        the profiler when one is attached (including the loop's own
        overhead, so attribution is ~100%).
        """
        heap = self._queue._heap
        trace = self.trace
        profiler = self.profiler
        pop, clock = heappop, perf_counter
        time_i, cancelled_i = EVT_TIME, EVT_CANCELLED
        callback_i, label_i = EVT_CALLBACK, EVT_LABEL
        dispatched = 0
        start_now = self._now
        aggregate: Dict[str, List[float]] = {}
        self._running = True
        loop_start = clock()
        try:
            while heap:
                event = pop(heap)
                time = event[time_i]
                if time > end_time:
                    heappush(heap, event)
                    break
                if event[cancelled_i]:
                    continue
                self._now = time
                dispatched += 1
                label = event[label_i]
                if trace is not None:
                    trace.record(time, "kernel", "dispatch", label)
                started = clock()
                try:
                    event[callback_i]()
                except SimulationError:
                    raise
                # lint: allow(EXC001): wrapped into SimulationError
                except Exception as exc:
                    raise SimulationError(
                        f"event {label!r} at t={time} "
                        f"failed: {exc}") from exc
                finally:
                    elapsed = clock() - started
                    entry = aggregate.get(label)
                    if entry is None:
                        aggregate[label] = [elapsed, 1]
                    else:
                        entry[0] += elapsed
                        entry[1] += 1
        # lint: allow(EXC001): profiler flush before a bare re-raise
        except BaseException:
            self._running = False
            self._dispatched += dispatched
            if profiler is not None:
                profiler.absorb(aggregate, clock() - loop_start,
                                self._now - start_now, dispatched)
            raise
        self._running = False
        self._dispatched += dispatched
        self._now = end_time
        if profiler is not None:
            profiler.absorb(aggregate, clock() - loop_start,
                            end_time - start_now, dispatched)
        metrics = self.metrics
        if metrics is not None:
            self._record_run_metrics(metrics, dispatched,
                                     clock() - loop_start)
        for hook in self._end_hooks:
            hook()

    def next_serial(self) -> int:
        """Next value of a deterministic per-simulation serial counter.

        For entity serials that must be unique within one simulation —
        frame ids, for instance.  Kept on the simulator (not a module
        global) so repeat runs in one process, and runs in pooled
        workers, number identically: the determinism contract covers
        trace text too.
        """
        self._serial += 1
        return self._serial

    def pending_events(self) -> int:
        """Number of *live* events currently queued.

        Lazily cancelled stubs still sitting in the heap are excluded, so
        this is the number of callbacks that would actually fire if the
        clock ran forever.
        """
        return len(self._queue)


__all__ = ["Simulator"]
