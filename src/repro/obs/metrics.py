"""Metrics registry: named instruments with mergeable snapshots.

The paper's contribution is *accounting* — attributing every joule to a
power state and a cause — yet the runtime only surfaced end-of-run
totals.  :class:`MetricsRegistry` is the missing middle layer: a process
-local registry of **counters**, **gauges**, **histograms** and
**state timers** (per-state residency/energy maps), each keyed by
``component/node/name``.

Design constraints, in priority order:

1. **Zero cost when disabled.**  Nothing in the simulation core holds a
   registry unless one was explicitly attached; the kernel's hot loops
   never consult one per event.  All model instrumentation is *pull*
   based — components expose ``observe_metrics`` methods that read the
   counters/ledgers they already maintain — so an enabled registry
   cannot perturb event order, RNG streams or energy figures either.
2. **Mergeable.**  Worker processes build private registries and ship
   :meth:`MetricsRegistry.snapshot` dicts back; the parent merges them
   with :meth:`MetricsRegistry.merge_snapshot`.  Counters, histograms
   and state timers merge additively, so a ``--jobs N`` run reports
   exactly the counters a sequential run does.
3. **Exportable.**  :meth:`to_json` renders the snapshot as JSON, the
   file ``repro-ban --metrics`` writes.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

#: Placeholder node label for network-wide (non-per-node) instruments.
GLOBAL = "-"

#: Default histogram bucket upper bounds (seconds-flavoured but generic;
#: spans 100 us .. 100 s, which covers scenario wall times and dispatch
#: latencies alike).
DEFAULT_BUCKETS = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
                   100.0)


def metric_key(component: str, node: str, name: str) -> str:
    """The canonical flat key: ``component/node/name``."""
    return f"{component}/{node}/{name}"


def split_key(key: str) -> Tuple[str, str, str]:
    """Inverse of :func:`metric_key`."""
    component, node, name = key.split("/", 2)
    return component, node, name


class Counter:
    """A monotonically increasing count (events, frames, collisions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value (queue depth, state of charge, rate)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


class Histogram:
    """A weighted value distribution over fixed bucket bounds.

    ``observe(value, weight)`` supports *time-weighted* use: pass the
    duration a value was held as its weight (e.g. queue depth weighted
    by the time spent at that depth) and the histogram's mean becomes a
    time average rather than a sample average.
    """

    __slots__ = ("bounds", "bucket_weights", "count", "total", "min",
                 "max")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bucket_weights: List[float] = [0.0] * (len(self.bounds) + 1)
        self.count = 0.0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float, weight: float = 1.0) -> None:
        """Record ``value`` with the given ``weight``."""
        if weight < 0:
            raise ValueError(f"negative weight: {weight}")
        self.bucket_weights[bisect_left(self.bounds, value)] += weight
        self.count += weight
        self.total += value * weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Weighted mean of the observed values (0 when empty)."""
        return self.total / self.count if self.count else 0.0


class StateTimer:
    """Per-state residency accumulator (seconds, energy, anything).

    The paper's model is time-in-state; this instrument is its metrics
    mirror: a mapping from state name to an additive total.
    """

    __slots__ = ("states",)

    def __init__(self) -> None:
        self.states: Dict[str, float] = {}

    def add(self, state: str, amount: float) -> None:
        """Accumulate ``amount`` under ``state``."""
        self.states[state] = self.states.get(state, 0.0) + amount

    def total(self) -> float:
        """Sum over all states."""
        return sum(self.states.values())


class MetricsRegistry:
    """Keyed store of instruments with snapshot/merge/export.

    Instruments are created on first access and cached, so call sites
    simply write ``registry.counter("mac", node, "collisions").inc()``.
    The registry itself never touches simulation state: attaching one
    cannot change an energy figure.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._state_timers: Dict[str, StateTimer] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, component: str, node: str, name: str) -> Counter:
        """The counter at ``component/node/name`` (created on demand)."""
        key = metric_key(component, node, name)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, component: str, node: str, name: str) -> Gauge:
        """The gauge at ``component/node/name`` (created on demand)."""
        key = metric_key(component, node, name)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, component: str, node: str, name: str,
                  bounds: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        """The histogram at ``component/node/name`` (created on demand)."""
        key = metric_key(component, node, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(bounds)
        return instrument

    def state_timer(self, component: str, node: str,
                    name: str) -> StateTimer:
        """The state timer at ``component/node/name``."""
        key = metric_key(component, node, name)
        instrument = self._state_timers.get(key)
        if instrument is None:
            instrument = self._state_timers[key] = StateTimer()
        return instrument

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms) + len(self._state_timers))

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """A plain-data view of every instrument (JSON-serialisable)."""
        return {
            "counters": {key: c.value
                         for key, c in sorted(self._counters.items())},
            "gauges": {key: g.value
                       for key, g in sorted(self._gauges.items())},
            "histograms": {
                key: {"bounds": list(h.bounds),
                      "bucket_weights": list(h.bucket_weights),
                      "count": h.count, "total": h.total,
                      "min": h.min, "max": h.max, "mean": h.mean}
                for key, h in sorted(self._histograms.items())},
            "state_timers": {key: dict(sorted(t.states.items()))
                             for key, t
                             in sorted(self._state_timers.items())},
        }

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker) into this
        registry: counters/histograms/state timers add, gauges
        take the incoming value (last write wins).
        """
        for key, value in snapshot.get("counters", {}).items():
            component, node, name = split_key(key)
            self.counter(component, node, name).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            component, node, name = split_key(key)
            self.gauge(component, node, name).set(value)
        for key, data in snapshot.get("histograms", {}).items():
            component, node, name = split_key(key)
            histogram = self.histogram(component, node, name,
                                       bounds=data["bounds"])
            if tuple(data["bounds"]) != histogram.bounds:
                raise ValueError(
                    f"histogram {key!r}: bucket bounds differ, "
                    "cannot merge")
            for index, weight in enumerate(data["bucket_weights"]):
                histogram.bucket_weights[index] += weight
            histogram.count += data["count"]
            histogram.total += data["total"]
            for bound_name in ("min", "max"):
                incoming = data.get(bound_name)
                if incoming is None:
                    continue
                current = getattr(histogram, bound_name)
                pick = min if bound_name == "min" else max
                setattr(histogram, bound_name,
                        incoming if current is None
                        else pick(current, incoming))
        for key, states in snapshot.get("state_timers", {}).items():
            component, node, name = split_key(key)
            timer = self.state_timer(component, node, name)
            for state, amount in states.items():
                timer.add(state, amount)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_json(self, indent: int = 2) -> str:
        """The snapshot as pretty-printed JSON text."""
        return json.dumps(self.snapshot(), indent=indent,
                          sort_keys=True) + "\n"


__all__ = ["Counter", "Gauge", "Histogram", "StateTimer",
           "MetricsRegistry", "metric_key", "split_key", "GLOBAL",
           "DEFAULT_BUCKETS"]
