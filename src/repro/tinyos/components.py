"""Component model (the nesC-flavoured layering of Figure 1).

The platform's software is "a layered modular approach in which each
platform component is a separate software block" so hardware-related
blocks can be swapped for simulator models without touching the upper
layers (Section 3.2).  :class:`Component` is the small base class the
MAC protocols and applications derive from; it standardises lifecycle
(``start``/``stop``) and gives each block a stable name for traces.
It owns the events it schedules (:meth:`Component.at`): a stop cancels
them, as an MSP430 reset kills the pending timers.

A :class:`ComponentStack` holds one node's blocks in layer order and
starts/stops them together, mirroring a TinyOS configuration's wiring.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from ..sim.events import EVT_TIME, EventEntry, SimulationError, \
    cancel_event
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder


class Component:
    """Base class for a software block on the node.

    Subclasses override :meth:`on_start` / :meth:`on_stop`; the public
    ``start``/``stop`` guard against double transitions, which in TinyOS
    would be a wiring bug.
    """

    def __init__(self, sim: Simulator, name: str,
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self.name = name
        self._trace = trace
        self._started = False
        # Entries scheduled through at(), which drops the fired ones
        # whenever more than six are kept.
        self._events: List[EventEntry] = []

    @property
    def started(self) -> bool:
        """Whether the component is running."""
        return self._started

    def start(self) -> None:
        """Start the component (idempotence is an error, as in TinyOS)."""
        if self._started:
            raise RuntimeError(f"component {self.name!r} started twice")
        self._started = True
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "start", "")
        self.on_start()

    def stop(self) -> None:
        """Stop the component: cancel its events, then :meth:`on_stop`."""
        if not self._started:
            raise RuntimeError(f"component {self.name!r} not started")
        self._started = False
        for event in self._events:
            cancel_event(event)
        self._events = []
        if self._trace is not None:
            self._trace.record(self._sim.now, self.name, "stop", "")
        self.on_stop()

    def at(self, time: int, callback: Callable[[], None],
           label: str = "") -> EventEntry:
        """Schedule ``callback`` at ``time``; :meth:`stop` cancels it.

        Raises :class:`SimulationError` once stopped: only the burst in
        flight completes after a stop, and it must not re-arm anything.
        """
        if not self._started:
            raise SimulationError(f"{self.name}: {label!r} after stop")
        events = self._events
        if len(events) > 6:
            now = self._sim.now
            events = self._events = [e for e in events if e[EVT_TIME] >= now]
        event = self._sim.at(time, callback, label)
        events.append(event)
        return event

    def after(self, delay: int, callback: Callable[[], None],
              label: str = "") -> EventEntry:
        """:meth:`at`, ``delay`` ticks from now."""
        return self.at(self._sim.now + delay, callback, label)

    def on_start(self) -> None:
        """Subclass hook: begin operation."""

    def on_stop(self) -> None:
        """Subclass hook: cease operation."""


class ComponentStack:
    """One node's software blocks, bottom layer first."""

    def __init__(self) -> None:
        self._layers: List[Component] = []
        self._by_name: Dict[str, Component] = {}

    def add(self, component: Component) -> Component:
        """Append a layer (names must be unique within the stack)."""
        if component.name in self._by_name:
            raise ValueError(f"duplicate component name {component.name!r}")
        self._layers.append(component)
        self._by_name[component.name] = component
        return component

    def __getitem__(self, name: str) -> Component:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"no component {name!r}; stack has "
                f"{[c.name for c in self._layers]}") from None

    def __iter__(self) -> Iterator[Component]:
        return iter(self._layers)

    def start_all(self) -> None:
        """Start every layer, bottom-up."""
        for component in self._layers:
            component.start()

    def stop_all(self) -> None:
        """Stop every layer, top-down."""
        for component in reversed(self._layers):
            component.stop()


__all__ = ["Component", "ComponentStack"]
