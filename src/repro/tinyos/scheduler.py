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

Same-tick order is never guessed: a post at exactly the end tick of
such a window, a settle at exactly a body's start tick from inside an
event, or a :meth:`TaskScheduler.clear` at exactly that tick, raises
:class:`~repro.sim.events.SimulationError`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple, TYPE_CHECKING

from ..hw.mcu import ACTIVE, SLEEP, Msp430
from ..sim.events import EventEntry, SimulationError, cancel_event
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder
from .power import DeepSleepPolicy, Lpm0Only
from .tasks import Task

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..obs.spans import SpanTracer


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
        #: A task booked by run_idle whose body has not run yet:
        #: (start tick, body taking that tick or None, cycles).
        self._unsettled: Optional[
            Tuple[int, Optional[Callable[[int], None]], int]] = None
        #: The dispatch a post planned at the end of a coalesced task.
        self._planned_dispatch: Optional[EventEntry] = None
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
        task = Task(body=body, cycles=cycles, label=label,
                    task_id=self._next_task_id)
        self._next_task_id += 1
        self._queue.append(task)
        idle_at = self._idle_at
        if idle_at is not None and idle_at < self._sim._now:
            self._idle_at = None  # the planned sleep has begun
            self._dispatching = False
        if not self._dispatching:
            self._start_dispatch()
        elif self._idle_at is not None:
            self._end_planned_sleep(label)
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
        idle_at = self._idle_at
        if idle_at is not None and idle_at < self._sim._now:
            self._idle_at = None  # the planned sleep has begun
            self._dispatching = False
        if self._dispatching or self._queue or not self.coalescing():
            return False
        if self._unsettled is not None:
            self.settle()
        window = self._mcu.wake_for_task(cycles)
        if window is None:
            return False
        self._dispatching = True
        self._idle_at = window[1]
        self._next_task_id += 1
        self._unsettled = (window[0], body, cycles)
        return True

    def settle(self) -> None:
        """Run the body of a :meth:`run_idle` task whose start has come.

        Called before anything can observe what the body changes: the
        next :meth:`run_idle`, the next dispatched task body, a payload
        read, a simulator end hook and a measurement reset.  Inside an
        event, a body starting at the current tick raises
        :class:`SimulationError`: whether the per-task chain would have
        run it before that event is unknown.
        """
        unsettled = self._unsettled
        if unsettled is None:
            return
        start, body, cycles = unsettled
        now = self._sim._now
        if start > now:
            return
        if start == now and body is not None and self._sim.running:
            raise SimulationError(
                f"{self.name}: a coalesced task starts at tick {now}, "
                "the tick it is observed at; the per-task order of the "
                "two is unknown")
        self._unsettled = None
        self._tasks_run += 1
        self._mcu.account_cycles(cycles)
        if body is not None:
            body(start)

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
            raise SimulationError(
                f"{self.name}: task {label!r} posted at tick {end}, the "
                "end tick of a coalesced task; the per-task order of the "
                "post and that task's end is unknown")
        self._idle_at = None
        self._mcu.ledger.cancel_plan(end, SLEEP)
        self._planned_dispatch = self._sim.at(
            end, self._dispatch_next, label=self._dispatch_label)

    def clear(self) -> None:
        """Drop every task that has not started (an MCU reset); the
        running one ends as booked.  A :meth:`run_idle` task still in its
        wake-up goes too: its planned start and sleep become a sleep at
        its start tick, as when a dispatch finds the queue empty."""
        self._queue.clear()
        if self._unsettled is None:
            return
        start, now = self._unsettled[0], self._sim._now
        if start == now and self._sim.running:
            raise SimulationError(
                f"{self.name}: cleared at tick {now}, the start tick of a "
                "coalesced task; the per-task order of the two is unknown")
        if start <= now:
            return  # started
        self._unsettled = None
        ledger = self._mcu.ledger
        ledger.cancel_plan(start, ACTIVE)
        if self._idle_at is not None:
            ledger.cancel_plan(self._idle_at, SLEEP)
        elif self._planned_dispatch is not None:  # a post moved the sleep
            cancel_event(self._planned_dispatch)
        ledger.plan((start, (SLEEP, SLEEP)))
        self._idle_at = start

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
        return len(self._queue)

    @property
    def tasks_run(self) -> int:
        """Total tasks dispatched so far."""
        unsettled = self._unsettled
        if unsettled is not None and unsettled[0] <= self._sim.now:
            return self._tasks_run + 1
        return self._tasks_run

    @property
    def is_idle(self) -> bool:
        """True when nothing is queued or executing."""
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
        if self._unsettled is not None:
            self.settle()  # an earlier coalesced body goes first
        task.body()
        if self._queue or not self.coalescing():
            self._sim.after(duration, self._dispatch_next,
                            label=self._dispatch_label)
        else:  # nothing queued behind: plan the sleep, no end event
            self._idle_at = end = self._sim._now + duration
            mcu.ledger.plan((end, (SLEEP, SLEEP)))

    def _choose_deep(self) -> bool:
        if self.wake_hint_provider is None:
            return self.power_policy.choose_deep(None)
        hint = self.wake_hint_provider()
        gap = None if hint is None else max(0, hint - self._sim.now)
        return self.power_policy.choose_deep(gap)


__all__ = ["TaskScheduler"]
