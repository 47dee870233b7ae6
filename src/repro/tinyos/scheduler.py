"""The TinyOS FIFO task scheduler and MCU power manager.

TinyOS semantics reproduced here (Section 3.2.1 / reference [1] of the
paper):

* tasks are posted into a FIFO queue and run to completion, in post
  order, one at a time;
* when the queue drains, the scheduler puts the MCU into a low-power
  mode ("the scheduler calculates in which of the 5 available power save
  modes the microcontroller will be put"; for these applications it only
  ever used the first one, Section 4.1);
* a post into an empty queue wakes the MCU (6 us wake-up latency) and
  dispatch resumes.

The scheduler is the *only* driver of the MCU power state, which keeps
the energy accounting coherent: MCU active time == time executing tasks
(+ wake-up transitions).

Coalesced dispatch
------------------

Each task costs the per-task chain a wake, a dispatch event and an
end-of-task event.  Unless a trace or a power policy other than
:class:`~repro.tinyos.power.Lpm0Only` needs that chain
(:meth:`TaskScheduler.coalescing`), two shortcuts book the same ledger
transitions at the same ticks with fewer kernel events:

* :meth:`TaskScheduler.run_idle` books a task that finds the scheduler
  idle and the MCU in LPM0 (a sampling fire, a cost-only post)
  outright: the wake, the task start and the sleep as planned ledger
  transitions, and the task body later, stamped with its start tick,
  at the first point that can observe it
  (:meth:`TaskScheduler.settle`).
* A task that drains the queue plans its sleep instead of scheduling
  an end-of-task event; a post before that tick schedules the one
  dispatch event at it.

A span tracer does not need the chain: a coalesced sample notes itself
when its body runs, and a packet-preparation task is still posted and
dispatched, so its ``task_started`` hook fires.  An observed run
therefore dispatches the same events as a plain one.

Same-tick order is never guessed: a post (or a sampling fire) at
exactly the end tick of such a window, or a settle at exactly a body's
start tick from inside an event, raises
:class:`~repro.sim.events.SimulationError`.

Sampling grid
-------------

A coalescing node's sampling application hands its periodic fire to
the scheduler (:meth:`TaskScheduler.start_grid`) instead of arming a
kernel timer, so no fire costs a kernel event.  At its next entry
point (a post, :meth:`~TaskScheduler.run_idle`,
:meth:`~TaskScheduler.settle`, a dispatch, a read of
:attr:`~TaskScheduler.tasks_run`, :attr:`~TaskScheduler.is_idle` or
:attr:`~TaskScheduler.pending`, and every read of the MCU ledger
through its
:attr:`~repro.core.ledger.PowerStateLedger.sync` hook) the scheduler
books every fire that has come due, one by one, as the timer's
handler would have at its tick: a :meth:`~TaskScheduler.run_idle`
booking when idle, a queued task behind real dispatches, and, for a
fire inside a coalesced window (from a coalesced task's wake to its
planned sleep), the window's *continuation*: a task start planned at
the window's end in place of its sleep, then a sleep after the task.
Every fire runs the grid's body with its task's start tick, so the app
only records that tick.

Idle fires whose task ended before the entry point's tick are counted
instead: one booking adds their number to the run tasks, the task
serials and the MCU's wake-ups and cycles, books their wake-ups and
task times in the MCU ledger in closed form
(:meth:`~repro.hw.mcu.Msp430.count_idle_tasks`), and hands their
start ticks to the grid's block body at once.  Each such fire lies
inside one stretch of LPM0, so the ledger's sums are those of booking
it at its ticks.  A fire still running at the entry point, a busy
fire, and every fire while the MCU ledger has an ``on_transition``
observer (which must see each transition at its tick) or lacks one of
the keys a fire books (after a measurement reset) are booked one by
one as above.

Same-tick order is reproduced: the timer's kernel entry is re-armed
when the previous fire runs, so a fire at the current tick precedes
the dispatching event exactly when that event was scheduled after the
previous fire (:meth:`~repro.sim.kernel.Simulator.scheduled_after`).
For an event scheduled at exactly the previous fire's tick, that is
known where the grid holds a mark of the fire (it is the grid's
arming, was booked at its own tick, or followed an event at its tick);
otherwise the event raises :class:`~repro.sim.events.SimulationError`.
Traced and deep-sleep runs keep the kernel timer: they are the
reference the grid must match.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple, TYPE_CHECKING

from ..hw.mcu import ACTIVE, SLEEP, Msp430
from ..sim.events import SimulationError
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .power import DeepSleepPolicy, Lpm0Only
from .tasks import Task

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.spans import SpanTracer

# Ledger (state, tag) keys of a planned task start and sleep.
_TASK = (ACTIVE, "task")
_ASLEEP = (SLEEP, SLEEP)


class TaskScheduler:
    """FIFO run-to-completion scheduler bound to one MCU."""

    def __init__(self, sim: Simulator, mcu: Msp430,
                 name: str = "scheduler",
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self._mcu = mcu
        self.name = name
        self._dispatch_label = f"{name}.dispatch"
        self._trace = trace
        self._queue: Deque[Task] = deque()
        self._dispatching = False
        self._tasks_run = 0
        self._next_task_id = 1
        #: How to sleep when the queue drains (default: the paper's
        #: LPM0-only behaviour).
        self.power_policy: DeepSleepPolicy = Lpm0Only()
        #: Returns the absolute tick of the node's next known wake-up
        #: (sampling timer, beacon window, slot) or None; installed by
        #: the node assembly when a deep-sleep policy is in use.
        self.wake_hint_provider: Optional[Callable[[], Optional[int]]] \
            = None
        #: Optional causal-span tracer (:mod:`repro.obs.spans`).
        self.spans: Optional["SpanTracer"] = None
        #: End tick of a task whose sleep is planned, not an event; the
        #: scheduler counts as busy until then.
        self._idle_at: Optional[int] = None
        #: Tasks booked without a dispatch whose bodies have not run
        #: yet, in start order: (start tick, body taking that tick or
        #: None, cycles).
        self._unsettled: Deque[
            Tuple[int, Optional[Callable[[int], None]], int]] = deque()
        #: Sampling grid (see "Sampling grid"): the next fire not yet
        #: booked (None: no grid) and the fire before it (or the
        #: arming tick).  That fire's kernel mark lies in
        #: [``_grid_before``, ``_grid_after``] (None: unbounded);
        #: ``_grid_early`` is a lower bound on the next fire's, while it
        #: waits for events that precede it.  Then (period, cycles,
        #: body, block body, label).
        self._grid_next: Optional[int] = None
        self._grid_prev = 0
        self._grid_after: Optional[int] = None
        self._grid_before: Optional[int] = None
        self._grid_early: Optional[int] = None
        self._grid: Tuple[int, int, Callable[[int], None],
                          Callable[[range], None], str] = \
            (0, 0, lambda tick: None, lambda ticks: None, "")
        sim.add_end_hook(self.settle)

    # ------------------------------------------------------------------
    # Posting
    # ------------------------------------------------------------------
    def post(self, body: Callable[[], None], cycles: int,
             label: str = "") -> Task:
        """Post a task; wakes the MCU if the queue was idle.

        Args:
            body: side effects, executed at dispatch time.
            cycles: MCU active cost in core clock cycles.
            label: trace name.
        """
        self._sync()
        task = self._enqueue(body, cycles, label)
        idle_at = self._idle_at
        if idle_at is not None and idle_at < self._sim._now:
            self._idle_at = None  # the planned sleep has begun
            self._dispatching = False
        if not self._dispatching:
            self._start_dispatch()
        elif self._idle_at is not None:
            self._end_planned_sleep(label)
        return task

    def _enqueue(self, body: Callable[[], None], cycles: int,
                 label: str) -> Task:
        """Queue a task, starting no dispatch."""
        task = Task(body=body, cycles=cycles, label=label,
                    task_id=self._next_task_id)
        self._next_task_id += 1
        self._queue.append(task)
        return task

    def run_idle(self, body: Optional[Callable[[int], None]],
                 cycles: int) -> bool:
        """Book a task without dispatch events, if the MCU is idle.

        Applies when :meth:`coalescing` holds, nothing is queued or
        running, and the MCU sleeps in LPM0.  Then the wake, the task
        start (after the wake latency) and the return to sleep are
        planned ledger transitions, and ``body`` (None: cost only)
        runs later with the start tick as its argument
        (:meth:`settle`).  Returns False, booking nothing, otherwise;
        the caller then posts.
        """
        self._sync()
        now = self._sim._now
        idle_at = self._idle_at
        if idle_at is not None and idle_at < now:
            self._idle_at = None  # the planned sleep has begun
            self._dispatching = False
        if self._dispatching or self._queue or not self.coalescing():
            return False
        return self._book_idle(now, body, cycles)

    def _book_idle(self, now: int, body: Optional[Callable[[int], None]],
                   cycles: int) -> bool:
        """The booking of :meth:`run_idle` at tick ``now``, once the
        scheduler is known idle."""
        self._run_ended()
        window = self._mcu.wake_for_task(cycles, now)
        if window is None:
            return False
        self._dispatching = True
        self._idle_at = window[1]
        self._next_task_id += 1
        self._unsettled.append((window[0], body, cycles))
        return True

    def _run_ended(self) -> None:
        """Run the bodies of every booked task, once the scheduler is
        known idle: the tasks have ended and their starts lie before
        now, so run them as :meth:`settle` would, without the same-tick
        check."""
        unsettled = self._unsettled
        while unsettled:
            start, earlier, earlier_cycles = unsettled.popleft()
            self._tasks_run += 1
            self._mcu.account_cycles(earlier_cycles)
            if earlier is not None:
                earlier(start)

    def settle(self) -> None:
        """Run the bodies of the tasks booked without a dispatch (by
        :meth:`run_idle` or a grid fire) whose start has come, in start
        order.

        Called before anything can observe what the bodies change: the
        next :meth:`run_idle`, the next dispatched task body, a payload
        read, a simulator end hook and a measurement reset.  Inside an
        event, a body starting at the current tick raises
        :class:`SimulationError`: whether the per-task chain would have
        run it before that event is unknown.
        """
        self._sync()
        unsettled = self._unsettled
        now = self._sim._now
        while unsettled and unsettled[0][0] <= now:
            start, body, cycles = unsettled[0]
            if start == now and body is not None and self._sim.running:
                raise SimulationError(
                    f"{self.name}: a coalesced task starts at tick {now}, "
                    "the tick it is observed at; the per-task order of "
                    "the two is unknown")
            unsettled.popleft()
            self._tasks_run += 1
            self._mcu.account_cycles(cycles)
            if body is not None:
                body(start)

    # ------------------------------------------------------------------
    # Sampling grid
    # ------------------------------------------------------------------
    def start_grid(self, first: int, period: int, cycles: int,
                   body: Callable[[int], None],
                   block: Callable[[range], None], label: str) -> bool:
        """Take over a periodic sampling fire (see "Sampling grid").

        From tick ``first`` on, every ``period`` ticks, a fire books a
        task of ``cycles`` whose body is ``body``, called with the
        task's start tick: as :meth:`run_idle` when idle, as the
        continuation of a coalesced window, or queued under ``label``
        behind real dispatches.  Idle fires that ended before the entry
        point booking them are counted instead, and ``block`` is called
        once with their start ticks, ascending; it must leave what
        ``body`` at each of them would.  Returns False, taking nothing,
        unless :meth:`coalescing` holds and an idle fire's wake-up and
        task end before the next fire; the caller then arms a kernel
        timer.
        """
        mcu = self._mcu
        if (not self.coalescing() or mcu.wake_latency_ticks
                + mcu.cycles_to_ticks(cycles) >= period):
            return False
        sim = self._sim
        self._grid = (period, cycles, body, block, label)
        self._grid_prev = sim._now
        self._grid_after = self._grid_before = sim.mark()
        self._grid_early = None
        self._grid_next = first
        mcu.ledger.sync = self._ledger_sync
        return True

    def _sync(self) -> None:
        """Book the grid fires due by now (every entry point)."""
        grid = self._grid_next
        if grid is not None and grid <= self._sim._now:
            self._catch_up()

    # The MCU ledger's sync hook.  Booking the due fires leaves the
    # scheduler, MCU and app as the kernel timer's fires left them at
    # their ticks, whichever entry point books them first, so a ledger
    # read sees a function of the clock, as with the ledger's own due
    # plans.  Not pure: it runs sample bodies, plans MCU transitions
    # and queues tasks, and raises where a read's same-tick order
    # against a fire is unknown.  It schedules no event.  Pinned so
    # that readers of the ledger (the ``observe_metrics`` hooks, a
    # timer reading energy mid-run), which must see every fire due,
    # can read it.
    # effect: pure
    def _ledger_sync(self) -> None:
        self._sync()

    def _catch_up(self) -> None:
        """Book every grid fire that has come due, in tick order."""
        sim = self._sim
        now = sim._now
        first = self._grid_next
        assert first is not None
        period = self._grid[0]
        last = now - (now - first) % period  # the last fire so far
        early = None
        if last == now and sim.running and not self._fire_first(first):
            early = sim.mark()  # all scheduled so far precede the fire
            last -= period
        if last >= first:
            self._grid_before = self._grid_early if last == first else None
            # Booked at its tick, the fire precedes all the running
            # entry schedules.
            self._grid_after = sim.dispatch_mark() if last == now else None
            self._grid_prev = last
            self._grid_next = last + period
            self._book_fires(first, (last - first) // period + 1)
        self._grid_early = early

    def _fire_first(self, first: int) -> bool:
        """Whether the fire at the current tick precedes the entry
        being dispatched, with ``first`` the first fire not booked: the
        fire's kernel entry would have been re-armed when the previous
        fire ran."""
        now = self._sim._now
        after = before = None
        if first == now:
            prev, after, before = \
                self._grid_prev, self._grid_after, self._grid_before
        else:
            prev = now - self._grid[0]
            if first == prev:
                before = self._grid_early
        order = self._sim.scheduled_after(prev, after, before)
        if order is not None:
            return order
        raise SimulationError(
            f"{self.name}: an event scheduled at tick {prev}, the "
            f"previous sampling fire's, runs at the next fire's tick "
            f"{now}; their order is unknown")

    def _book_fires(self, first: int, count: int) -> None:
        """``count`` grid fires from tick ``first``, as the timer's
        handler would run them at their ticks."""
        period, cycles, body, _, label = self._grid
        tick, stop = first, first + count * period
        while tick < stop:  # the fires that find the scheduler busy
            idle_at = self._idle_at
            if idle_at is not None and idle_at < tick:
                self._idle_at = None  # the planned sleep has begun
                self._dispatching = False
            if not self._dispatching:
                break
            if idle_at is None:  # queued behind real dispatches
                self._enqueue(self._grid_task, cycles, label)
            else:
                self._continue_window(idle_at, tick, body, cycles, label)
            tick += period
        # Each idle fire's task ends before the next fire: all are idle.
        if tick < stop:
            tick = self._count_ended(tick, stop)
        for tick in range(tick, stop, period):
            if not self._book_idle(tick, body, cycles):
                raise SimulationError(
                    f"{self.name}: idle but the MCU is awake at {tick}")

    def _count_ended(self, tick: int, stop: int) -> int:
        """Count the idle fires from ``tick`` (before ``stop``) whose
        task ended before now, in one booking; return the first fire
        left to book one by one.

        Each such fire lies inside the MCU's LPM0 time, so its task
        adds one to the run tasks, the serials, the MCU's wake-ups and
        its ledger's round trips
        (:meth:`~repro.hw.mcu.Msp430.count_idle_tasks`), and its start
        tick goes to the grid's block body.  Counts nothing where the
        MCU declines; the caller then books the fires one by one.
        """
        period, cycles, _, block, _ = self._grid
        mcu = self._mcu
        wake = mcu.wake_latency_ticks
        # The last fire tick whose task ends before now.
        ended = self._sim._now - wake - mcu.cycles_to_ticks(cycles) - 1
        if ended < tick:
            return tick
        count = min((ended - tick) // period + 1, (stop - tick) // period)
        self._run_ended()
        if not mcu.count_idle_tasks(cycles, count):
            return tick
        self._tasks_run += count
        self._next_task_id += count
        start = tick + wake
        block(range(start, start + count * period, period))
        return tick + count * period

    def _continue_window(self, end: int, tick: int,
                         body: Callable[[int], None], cycles: int,
                         label: str) -> None:
        """A fire at ``tick`` inside the coalesced window that sleeps
        at ``end``: its task starts at ``end`` in place of the sleep,
        and the MCU sleeps after it."""
        if tick == end:
            raise _end_tick_error(self.name, label, end)
        ledger = self._mcu.ledger
        ledger.cancel_plan(end, SLEEP)
        self._idle_at = task_end = end + self._mcu.cycles_to_ticks(cycles)
        ledger.plan((end, _TASK), (task_end, _ASLEEP))
        self._next_task_id += 1
        self._unsettled.append((end, body, cycles))

    def _grid_task(self) -> None:
        """Body of a fire queued behind real dispatches: the grid's
        body, with the task's start tick."""
        self._grid[2](self._sim._now)

    def coalescing(self) -> bool:
        """Whether tasks may skip their dispatch events.

        False when a trace (it lists every dispatch) or a power policy
        other than LPM0-only (it is asked at every drain) needs the
        per-task chain.  A span tracer does not: a coalesced sample
        notes itself when its body runs, and packet-preparation tasks
        are still posted and dispatched.
        """
        return (self._sim.trace is None and self._trace is None
                and type(self.power_policy) is Lpm0Only)

    def _end_planned_sleep(self, label: str) -> None:
        """A post before the planned sleep at ``_idle_at`` began:
        dispatch the queue at that tick instead."""
        end = self._idle_at
        assert end is not None
        if end == self._sim._now:
            raise _end_tick_error(self.name, label, end)
        self._idle_at = None
        self._mcu.ledger.cancel_plan(end, SLEEP)
        self._sim.at(end, self._dispatch_next, label=self._dispatch_label)

    def post_cost_only(self, cycles: int, label: str = "") -> Optional[Task]:
        """Post a task that only costs MCU time (no modelled side effect).

        Used for activities whose effect is already modelled elsewhere
        but whose CPU cost must be paid, e.g. beacon processing.  An
        idle MCU books it through :meth:`run_idle` (returning None).
        """
        if self.run_idle(None, cycles):
            return None
        return self.post(lambda: None, cycles, label)

    @property
    def pending(self) -> int:
        """Tasks currently queued (excluding the one executing)."""
        self._sync()
        now = self._sim._now
        return len(self._queue) + sum(1 for entry in self._unsettled
                                      if entry[0] > now)

    @property
    def tasks_run(self) -> int:
        """Total tasks dispatched so far."""
        self._sync()
        now = self._sim._now
        return self._tasks_run + sum(1 for entry in self._unsettled
                                     if entry[0] <= now)

    @property
    def is_idle(self) -> bool:
        """True when nothing is queued or executing."""
        self._sync()
        if self._idle_at is not None and self._idle_at <= self._sim.now:
            return not self._queue
        return not self._dispatching and not self._queue

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def _start_dispatch(self) -> None:
        self._dispatching = True
        wake_latency = self._mcu.wake()
        # The first task starts after the wake-up transition (6 us from
        # the power-saving mode, 0 if the MCU was already active).
        self._sim.after(wake_latency, self._dispatch_next,
                        label=self._dispatch_label)

    def _dispatch_next(self) -> None:
        self._sync()
        if not self._queue:
            self._dispatching = False
            self._mcu.sleep(deep=self._choose_deep())
            return
        task = self._queue.popleft()
        self._tasks_run += 1
        mcu = self._mcu
        cycles = task.cycles
        mcu.begin_task(task.label)
        mcu.account_cycles(cycles)
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "task",
                               f"{task.label}#{task.task_id} "
                               f"({cycles} cyc)")
        duration = mcu.cycles_to_ticks(cycles)
        if self.spans is not None:
            self.spans.task_started(task.label, self._sim.now, duration)
        # The body's side effects happen at task start; the MCU then
        # stays active for the task's duration before the next dispatch.
        if self._unsettled:
            self.settle()  # earlier coalesced bodies go first
        task.body()
        if self._queue or not self.coalescing():
            self._sim.after(duration, self._dispatch_next,
                            label=self._dispatch_label)
        else:  # nothing queued behind: plan the sleep, no end event
            self._idle_at = end = self._sim._now + duration
            mcu.ledger.plan((end, _ASLEEP))

    def _choose_deep(self) -> bool:
        if self.wake_hint_provider is None:
            return self.power_policy.choose_deep(None)
        hint = self.wake_hint_provider()
        gap = None if hint is None else max(0, hint - self._sim.now)
        return self.power_policy.choose_deep(gap)


def _end_tick_error(name: str, label: str, end: int) -> SimulationError:
    """A task posted at ``end``, the end tick of a coalesced task."""
    return SimulationError(
        f"{name}: task {label!r} posted at tick {end}, the end tick of a "
        "coalesced task; the per-task order of the post and that task's "
        "end is unknown")


__all__ = ["TaskScheduler"]
