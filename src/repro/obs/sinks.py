"""Pluggable structured trace sinks.

The in-memory :class:`~repro.sim.trace.TraceRecorder` keeps trace
records as Python objects — perfect for tests, useless for watching a
long run or post-processing outside the process.  This module adds
*sinks*: destinations a record is pushed to the moment it is recorded.

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


class TraceSink:
    """Interface every sink implements.  Base methods are no-ops so
    subclasses override only what they need."""

    def emit(self, time: int, source: str, kind: str,
             detail: str) -> None:
        """Receive one trace record."""

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""


class JsonlTraceSink(TraceSink):
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
        if self._handle is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        self._handle.write(json.dumps(
            {"t": time, "source": source, "kind": kind,
             "detail": detail}) + "\n")
        self.emitted += 1

    def close(self) -> None:
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


def read_jsonl_trace(path: str) -> List[dict]:
    """Parse a :class:`JsonlTraceSink` file back into record dicts.

    A truncated *final* line — the signature of an interrupted writer
    (crash, kill, full disk) — is tolerated: instead of raising, the
    returned list ends with a ``{"warning": "truncated final line
    skipped", "raw": <text>}`` entry.  A malformed line with valid
    records after it still raises: that is corruption, not truncation.
    """
    records: List[dict] = []
    with open(path) as handle:
        lines = handle.read().split("\n")
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError:
            if any(rest.strip() for rest in lines[index + 1:]):
                raise
            records.append({"warning": "truncated final line skipped",
                            "raw": stripped})
            break
    return records


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

    def __init__(self, sinks: Iterable[TraceSink],
                 capacity: Optional[int] = None) -> None:
        super().__init__(capacity=capacity)
        self.sinks: List[TraceSink] = list(sinks)

    def record(self, time: int, source: str, kind: str,
               detail: str) -> None:
        super().record(time, source, kind, detail)
        for sink in self.sinks:
            sink.emit(time, source, kind, detail)

    def close(self) -> None:
        """Close every attached sink."""
        for sink in self.sinks:
            sink.close()


__all__ = ["TraceSink", "JsonlTraceSink", "SinkTraceRecorder",
           "read_jsonl_trace"]
