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

:class:`Event` is the structured view over the same layout: a ``list``
subclass adding named accessors and ``cancel()``.  Instances are valid
heap entries (they compare exactly like raw entries), but the hot paths
deliberately build raw lists — constructing a subclass is ~2.5x the
cost of a list display, and the kernel dispatches millions of events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

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
    O(1); the kernel discards cancelled entries on pop.  Works on raw
    entries and :class:`Event` instances alike; cancelling twice, or
    cancelling an event that already fired, is a no-op.
    """
    event[EVT_CANCELLED] = True


def event_cancelled(event: EventEntry) -> bool:
    """Whether :func:`cancel_event` has been called on ``event``."""
    return event[EVT_CANCELLED]


class Event(list):
    """Structured view of a scheduled callback (see the module docstring).

    Attributes (read-only properties over the underlying list slots):
        time: absolute simulation time (ticks) at which to fire.
        seq: tie-breaking sequence number, assigned by the queue.
        callback: zero-argument callable invoked when the event fires.
        label: human-readable description, used by tracing and error
            messages.  Keep it short; it is emitted once per fire when
            tracing is enabled.
        stamp: the tick it was scheduled at (a view built by hand
            counts as scheduled at its own ``time``).
    """

    __slots__ = ()

    def __init__(self, time: int, seq: int,
                 callback: Callable[[], None], label: str = "") -> None:
        list.__init__(self, (time, seq, False, callback, label, time))

    @property
    def time(self) -> int:
        """Absolute fire time in ticks."""
        return self[EVT_TIME]

    @property
    def seq(self) -> int:
        """FIFO tie-breaking sequence number."""
        return self[EVT_SEQ]

    @property
    def callback(self) -> Callable[[], None]:
        """The callable invoked when the event fires."""
        return self[EVT_CALLBACK]

    @property
    def label(self) -> str:
        """Human-readable description for traces and error messages."""
        return self[EVT_LABEL]

    @property
    def stamp(self) -> int:
        """The tick the event was scheduled at."""
        return self[EVT_STAMP]

    @property
    def cancelled(self) -> bool:
        """Whether the event has been cancelled."""
        return self[EVT_CANCELLED]

    def cancel(self) -> None:
        """Cancel this event (see :func:`cancel_event`)."""
        self[EVT_CANCELLED] = True

    def __repr__(self) -> str:  # list repr would leak the raw layout
        state = " cancelled" if self[EVT_CANCELLED] else ""
        return (f"Event(time={self[EVT_TIME]}, seq={self[EVT_SEQ]}, "
                f"label={self[EVT_LABEL]!r}{state})")


class EventQueue:
    """Min-heap of event entries, ordered by (time, insertion order).

    ``len(queue)`` reports the number of *live* (non-cancelled) events;
    lazily cancelled stubs still sitting in the heap are excluded.  The
    count is an O(heap) scan so the push/pop fast paths carry no
    bookkeeping — event queues in BAN scenarios stay small (tens of
    entries) and the length is only consulted for diagnostics.
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

    def pop(self) -> Optional[EventEntry]:
        """Remove and return the earliest non-cancelled event.

        Returns ``None`` when the queue holds no live events.  Cancelled
        entries encountered on the way are discarded.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)
            if not event[EVT_CANCELLED]:
                return event
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live event, or ``None`` if empty.

        Cancelled entries at the head are discarded as a side effect, so
        the returned time always belongs to an event that will fire.
        """
        heap = self._heap
        while heap:
            event = heap[0]
            if event[EVT_CANCELLED]:
                heappop(heap)
                continue
            return event[EVT_TIME]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()


class SimulationError(RuntimeError):
    """Raised for kernel-level inconsistencies (e.g. scheduling in the past)."""


__all__ = ["Event", "EventEntry", "EventQueue", "SimulationError",
           "cancel_event", "event_cancelled",
           "EVT_TIME", "EVT_SEQ", "EVT_CANCELLED", "EVT_CALLBACK",
           "EVT_LABEL", "EVT_STAMP"]
