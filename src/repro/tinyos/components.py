"""Component model (the nesC-flavoured layering of Figure 1).

The platform's software is "a layered modular approach in which each
platform component is a separate software block" so hardware-related
blocks can be swapped for simulator models without touching the upper
layers (Section 3.2).  :class:`Component` is the small base class the
MAC protocols and applications derive from; it standardises the start
of a block and gives each block a stable name for traces.  Blocks
schedule their events on the kernel directly (``self._sim.at``).

A :class:`ComponentStack` holds one node's blocks in layer order and
starts them together, mirroring a TinyOS configuration's wiring.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..sim.kernel import Simulator
from ..sim.trace import TraceRecorder


class Component:
    """Base class for a software block on the node.

    Subclasses override :meth:`on_start`; the public ``start`` guards
    against a second start, which in TinyOS would be a wiring bug.
    """

    def __init__(self, sim: Simulator, name: str,
                 trace: Optional[TraceRecorder] = None) -> None:
        self._sim = sim
        self.name = name
        self._trace = trace
        self._started = False

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

    def on_start(self) -> None:
        """Subclass hook: begin operation."""


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


__all__ = ["Component", "ComponentStack"]
