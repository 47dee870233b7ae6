"""Declared resource lifecycles: acquire/release pairing contracts.

The energy model is an integral of per-state current over time, so a
*leaked* resource state never crashes — it silently corrupts the
estimate.  A radio left in stand-by after its MAC stops keeps accruing
0.9 mA forever; a periodic timer never cancelled keeps the MCU waking;
a trace sink never flushed loses the post-mortem.
:class:`LifecycleSpec` declares the whole pairing discipline so the
lint suite (:mod:`repro.lint.lifecycle`, rules LIF001–LIF005) can
prove it at analysis time.

Like :class:`~repro.core.states.TransitionSpec`, every field must stay
a *pure literal*: the analyzer reads the spec out of the AST without
importing this module, which also lets a test fixture co-locate a spec
with the buggy class it describes.

Spec vocabulary
---------------
* ``acquire`` / ``release`` / ``uses`` — method names on the resource
  class: calling an ``acquire`` method obtains the resource, a
  ``release`` method returns it, and a ``uses`` method is only legal
  while acquired (``send`` after ``power_down`` is the use-after-release
  the runtime ``RadioError`` guards catch dynamically).
* ``boundary`` — ``(acquire_hook, release_hook)`` method-name pairs:
  a class whose ``acquire_hook`` (``on_start``) acquires the resource
  on every path must release it on every path out of its
  ``release_hook`` (``on_stop``).
* ``acquire_on_construct`` — the constructor itself acquires (a
  ``JsonlTraceSink`` opens its file eagerly), so whoever constructs
  one owns the release obligation.
* ``release_on_unwind`` — the release must also happen on exceptional
  unwind (``try/finally`` or a ``with`` block), not just on the happy
  path: a sink that is never flushed when a command aborts loses
  exactly the trace that would explain the abort.
* ``class_paired`` — ``(open_method, close_method)`` pairs checked at
  class granularity: span phases open in one callback and close in
  another, so a class that calls ``tx_start`` somewhere must call
  ``tx_finish`` somewhere.
* ``handle_factories`` / ``reschedule_factories`` — scheduling methods
  returning a cancellable :data:`~repro.sim.events.EventEntry`.
  Discarding a *periodic* handle (``every``) makes the event
  uncancellable forever; discarding a one-shot handle
  (``at``/``after``) is fine **unless** the callback unconditionally
  re-schedules itself, which is a periodic event in disguise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


@dataclass(frozen=True)
class LifecycleSpec:
    """Declared acquire/release protocol of one resource family.

    Attributes:
        resource: short label used in findings (``"radio"``).
        module: module path (suffix) where the resource classes live;
            methods *of* those classes are exempt from the checks
            (the radio may manipulate its own state freely).
        class_names: the resource classes this spec governs.
        acquire: method names that obtain the resource.
        release: method names that return it.
        uses: method names legal only while acquired.
        acquire_on_construct: the constructor acquires (open-on-init).
        idempotent_release: releasing twice is a no-op (``close``)
            rather than an error (``power_down`` raises).
        boundary: ``(acquire_hook, release_hook)`` name pairs checked
            across methods of an owning class.
        release_on_unwind: the release must be exception-safe.
        class_paired: ``(open, close)`` method pairs checked at class
            granularity (cross-callback span phases).
        handle_factories: factory methods whose *periodic* handle must
            not be discarded.
        reschedule_factories: one-shot factory methods whose handle
            must not be discarded by an unconditional self-rescheduler.
    """

    resource: str
    module: str
    class_names: Tuple[str, ...]
    acquire: Tuple[str, ...] = field(default=())
    release: Tuple[str, ...] = field(default=())
    uses: Tuple[str, ...] = field(default=())
    acquire_on_construct: bool = False
    idempotent_release: bool = True
    boundary: Tuple[Tuple[str, str], ...] = field(default=())
    release_on_unwind: bool = False
    class_paired: Tuple[Tuple[str, str], ...] = field(default=())
    handle_factories: Tuple[str, ...] = field(default=())
    reschedule_factories: Tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.resource:
            raise ValueError("resource label must be non-empty")
        if not self.class_names:
            raise ValueError(
                f"{self.resource}: class_names must be non-empty")
        if self.boundary and not (self.acquire
                                  or self.handle_factories):
            raise ValueError(
                f"{self.resource}: a boundary needs acquire methods "
                f"(or handle factories) to pair against")
        if self.boundary and not self.release:
            raise ValueError(
                f"{self.resource}: a boundary needs release methods")
        for opener, closer in self.class_paired:
            if opener == closer:
                raise ValueError(
                    f"{self.resource}: class pair {opener!r} cannot "
                    f"close itself")
        overlap = set(self.acquire) & set(self.release)
        if overlap:
            raise ValueError(
                f"{self.resource}: methods {sorted(overlap)} both "
                f"acquire and release")


#: nRF2401 transceiver: in a class declaring both hooks, a ``power_up``
#: in ``on_start`` must pair with a release on every path out of
#: ``on_stop`` (the simulator's components never stop, so none
#: declares ``on_stop``).  ``send``/``start_rx``/``cca`` after a
#: release is the use-after-release the runtime RadioError guards
#: catch dynamically — LIF003 proves it statically.
RADIO_LIFECYCLE = LifecycleSpec(
    resource="radio",
    module="hw/radio.py",
    class_names=("Nrf2401",),
    acquire=("power_up",),
    release=("power_down",),
    uses=("send", "start_rx", "stop_rx", "cca"),
    idempotent_release=False,
    boundary=(("on_start", "on_stop"),),
)

#: TinyOS-style virtual timer: a timer armed in ``on_start`` must be
#: stopped in ``on_stop`` (``stop`` is idempotent, and re-arming after
#: a stop is legal, so there is no use-after-release surface).
TIMER_LIFECYCLE = LifecycleSpec(
    resource="timer",
    module="tinyos/timers.py",
    class_names=("VirtualTimer",),
    acquire=("start_one_shot", "start_periodic"),
    release=("stop",),
    idempotent_release=True,
    boundary=(("on_start", "on_stop"),),
)

#: Kernel scheduling handles: ``every`` returns the one persistent
#: entry of a periodic event — discarding it makes the tick
#: uncancellable for the rest of the run.  ``at``/``after`` one-shots
#: may be fire-and-forget, *except* when the callback unconditionally
#: re-schedules itself (a periodic in disguise: nothing can ever stop
#: it).  A handle stored in ``on_start`` must be cancelled on the
#: ``on_stop`` path.
HANDLE_LIFECYCLE = LifecycleSpec(
    resource="sched-handle",
    module="sim/kernel.py",
    class_names=("Simulator",),
    release=("cancel_event",),
    boundary=(("on_start", "on_stop"),),
    handle_factories=("every",),
    reschedule_factories=("at", "after"),
)

#: Structured trace sinks: opened eagerly on construction, so the
#: constructor's caller owns the flush-and-close — including on the
#: exceptional unwind path (``try/finally`` or ``with``), because a
#: sink that is never flushed when a run aborts loses exactly the
#: trace that would explain the abort.
SINK_LIFECYCLE = LifecycleSpec(
    resource="trace-sink",
    module="obs/sinks.py",
    class_names=("JsonlTraceSink", "SinkTraceRecorder"),
    acquire_on_construct=True,
    release=("close",),
    uses=("emit",),
    idempotent_release=True,
    release_on_unwind=True,
)

#: Causal span phases: ``tx_start`` opens the settle phase and
#: ``tx_finish`` closes the tail; ``air_begin``/``air_end`` bracket
#: the airtime.  The open and close live in different callbacks of the
#: same component, so the pairing is checked per *class*: a class that
#: opens a phase must close it somewhere.
SPAN_LIFECYCLE = LifecycleSpec(
    resource="span",
    module="obs/spans.py",
    class_names=("SpanTracer",),
    class_paired=(("tx_start", "tx_finish"), ("air_begin", "air_end")),
)

#: All declared lifecycle protocols, for tests and tooling.
ALL_LIFECYCLE_SPECS: Tuple[LifecycleSpec, ...] = (
    RADIO_LIFECYCLE, TIMER_LIFECYCLE, HANDLE_LIFECYCLE,
    SINK_LIFECYCLE, SPAN_LIFECYCLE,
)


__all__ = [
    "ALL_LIFECYCLE_SPECS",
    "HANDLE_LIFECYCLE",
    "LifecycleSpec",
    "RADIO_LIFECYCLE",
    "SINK_LIFECYCLE",
    "SPAN_LIFECYCLE",
    "TIMER_LIFECYCLE",
]
