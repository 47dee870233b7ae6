"""Event and event-queue primitives for the discrete-event kernel.

The queue is a binary heap keyed on ``(time, sequence)``.  The per-queue
monotonically increasing sequence number gives FIFO semantics among events
scheduled for the same instant, which is what makes the whole simulation
reproducible: the TinyOS task model (post order == run order) depends on
stable same-time ordering.

Fast-path layout
----------------

A scheduled event *is* its heap entry: a plain 6-slot list
``[time, seq, cancelled, callback, label, stamp]`` (indices
:data:`EVT_TIME` .. :data:`EVT_STAMP`), where ``stamp`` is the tick the
entry was scheduled at.  Scheduling costs a single exact-``list``
allocation; heap sift comparisons only ever touch ``time`` and the
unique ``seq`` (plain int comparisons, no attribute lookups, no
tie-breaking object comparison); and the kernel's dispatch loop reads
the slots with C-specialised list indexing.  Cancellation is the O(1)
in-place flag write done by :func:`cancel_event` — cancelling twice, or
cancelling an event that already fired, is harmless.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, List

#: Index of the absolute fire time in an event heap entry.
EVT_TIME = 0
#: Index of the FIFO tie-breaking sequence number.
EVT_SEQ = 1
#: Index of the lazy-cancellation flag.
EVT_CANCELLED = 2
#: Index of the zero-argument callback.
EVT_CALLBACK = 3
#: Index of the human-readable label.
EVT_LABEL = 4
#: Index of the tick the entry was scheduled at (same-tick ordering of
#: work that skips its kernel events, see :mod:`repro.tinyos.scheduler`).
EVT_STAMP = 5

#: Type alias for a scheduled event as stored on (and returned from) the
#: queue: ``[time, seq, cancelled, callback, label, stamp]``.
EventEntry = list


def cancel_event(event: EventEntry) -> None:
    """Mark ``event`` so it is skipped when it reaches the queue head.

    Cancellation is lazy (the heap entry is not removed) which keeps it
    O(1); the kernel discards cancelled entries on pop.  Cancelling
    twice, or cancelling an event that already fired, is a no-op.
    """
    event[EVT_CANCELLED] = True


class EventQueue:
    """Min-heap of event entries, ordered by (time, insertion order).

    The simulator schedules onto the heap and pops it in its own
    dispatch loop (:mod:`repro.sim.kernel`).  ``len(queue)`` reports
    the number of *live* (non-cancelled) events; lazily cancelled stubs
    still sitting in the heap are excluded.  The count is an O(heap)
    scan so scheduling and dispatch carry no bookkeeping — event queues
    in BAN scenarios stay small (tens of entries) and the length is
    only consulted for diagnostics.
    """

    __slots__ = ("_heap", "_next_seq")

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []
        self._next_seq = 0

    def __len__(self) -> int:
        cancelled_i = EVT_CANCELLED
        return sum(1 for event in self._heap if not event[cancelled_i])

    def push(self, time: int, callback: Callable[[], None],
             label: str = "") -> EventEntry:
        """Schedule ``callback`` at absolute ``time``; return its entry.

        The entry is stamped as scheduled at ``time`` itself: the
        simulator pushes here only for its current tick
        (:meth:`~repro.sim.kernel.Simulator.call_soon`).  The returned
        entry can be cancelled with :func:`cancel_event`.
        """
        seq = self._next_seq
        self._next_seq = seq + 1
        event = [time, seq, False, callback, label, time]
        heappush(self._heap, event)
        return event


class SimulationError(RuntimeError):
    """Raised for kernel-level inconsistencies (e.g. scheduling in the past)."""


__all__ = ["EventEntry", "EventQueue", "SimulationError", "cancel_event",
           "EVT_TIME", "EVT_SEQ", "EVT_CANCELLED", "EVT_CALLBACK",
           "EVT_LABEL", "EVT_STAMP"]
