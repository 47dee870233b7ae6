"""The structured trace sink: a run's event trace as JSON Lines.

The in-memory :class:`~repro.sim.trace.TraceRecorder` keeps trace
records as Python objects — perfect for tests, useless for watching a
long run or post-processing outside the process.  This module adds a
*sink*: a destination each record is pushed to the moment it is
recorded (``repro-ban run --trace-jsonl``).

* :class:`JsonlTraceSink` streams records as JSON Lines — one
  self-describing object per line, parseable by anything.
* :class:`SinkTraceRecorder` is the adapter that keeps the existing
  ``TraceRecorder`` API working: it *is* a ``TraceRecorder`` (every
  component that takes ``trace=`` accepts it unchanged, ``filter`` /
  iteration / ``total_recorded`` behave identically) and additionally
  fans each record out to the attached sinks.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, List, Optional

from ..sim.trace import TraceRecorder


class JsonlTraceSink:
    """Streams records to a file as JSON Lines.

    Each line is ``{"t": <ticks>, "source": ..., "kind": ...,
    "detail": ...}``.  The file handle is opened eagerly so a bad path
    fails fast, and buffered writes keep the per-record cost at one
    ``json.dumps`` plus a buffered ``write``.

    Args:
        path: output file path (overwritten).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[str]] = open(path, "w")
        self.emitted = 0

    def emit(self, time: int, source: str, kind: str,
             detail: str) -> None:
        """Write one trace record as a line."""
        if self._handle is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        self._handle.write(json.dumps(
            {"t": time, "source": source, "kind": kind,
             "detail": detail}) + "\n")
        self.emitted += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        handle = self._handle
        if handle is None:
            return
        self._handle = None
        try:
            handle.flush()
        finally:
            handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        # Runs on exceptional unwind too: everything emitted before the
        # exception is flushed to disk, so post-mortems see the trace
        # up to the failure point.
        self.close()


class SinkTraceRecorder(TraceRecorder):
    """A :class:`TraceRecorder` that also pushes records to sinks.

    Drop-in compatible: pass it anywhere a ``TraceRecorder`` goes (the
    kernel, scenarios, components) and the in-memory API — ``filter``,
    iteration, ``total_recorded``, ``capacity`` eviction — behaves
    exactly as before; each record is *additionally* fanned out to
    every attached sink at record time.

    Args:
        sinks: the fan-out destinations.
        capacity: in-memory bound (as for ``TraceRecorder``); pass a
            small value when the sinks are the real consumers and the
            in-memory view is only for debugging.
    """

    def __init__(self, sinks: Iterable[JsonlTraceSink],
                 capacity: Optional[int] = None) -> None:
        super().__init__(capacity=capacity)
        self.sinks: List[JsonlTraceSink] = list(sinks)

    def record(self, time: int, source: str, kind: str,
               detail: str) -> None:
        super().record(time, source, kind, detail)
        for sink in self.sinks:
            sink.emit(time, source, kind, detail)

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()


__all__ = ["JsonlTraceSink", "SinkTraceRecorder"]
