"""Discrete-event simulation kernel (the TOSSIM substrate).

This package provides the event-driven core every other layer is built on:

* :mod:`repro.sim.simtime` — integer-nanosecond time base and unit helpers,
* :mod:`repro.sim.events` — events and the stable-priority event queue,
* :mod:`repro.sim.kernel` — the :class:`Simulator`,
* :mod:`repro.sim.rng` — deterministic per-purpose random streams,
* :mod:`repro.sim.trace` — opt-in event tracing.
"""

from .events import EventEntry, EventQueue, SimulationError, cancel_event
from .kernel import Simulator
from .rng import RngRegistry
from .simtime import (
    TICKS_PER_MS,
    TICKS_PER_SECOND,
    TICKS_PER_US,
    bits_duration,
    bytes_duration,
    format_time,
    microseconds,
    milliseconds,
    nanoseconds,
    seconds,
    to_microseconds,
    to_milliseconds,
    to_seconds,
)
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "EventEntry",
    "EventQueue",
    "cancel_event",
    "SimulationError",
    "Simulator",
    "RngRegistry",
    "TraceRecord",
    "TraceRecorder",
    "TICKS_PER_MS",
    "TICKS_PER_SECOND",
    "TICKS_PER_US",
    "bits_duration",
    "bytes_duration",
    "format_time",
    "microseconds",
    "milliseconds",
    "nanoseconds",
    "seconds",
    "to_microseconds",
    "to_milliseconds",
    "to_seconds",
]
