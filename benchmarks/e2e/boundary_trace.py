"""Per-layer spans recorded at the public boundaries of the ``repro`` packages.

The benchmark's traced run installs a :class:`BoundaryTracer` before any
scenario is built.  The tracer replaces public entry points of each
package (class methods and a few module functions) with thin wrappers,
from outside the program: nothing under ``src/`` knows it is traced.
Each wrapper is one span.  Spans stay in memory as a per-layer fold of
(inclusive seconds, self seconds) plus a call count per entry point;
self time is a span's duration minus the time its child spans cover.

Callbacks handed to the kernel (``Simulator.at``/``after``/``every``/
``call_soon``) and task bodies handed to ``TaskScheduler.post`` are
wrapped too, and charged to the package that defines them, so a timer
callback in ``repro.tinyos`` counts as ``tinyos`` and a ShockBurst
completion lambda in ``repro.hw.radio`` counts as ``hw.radio``.

Layers are the ``repro`` packages, with ``hw`` split by module because
the paper models the radio and the MCU separately.  Code of a package
that is not in :data:`LAYERS` (or code outside ``repro``) gets a fold of
its own that no metric reports, so it shows as missing coverage.

The wrapper's own cost lands in the *parent* span's self time, so
shares are skewed toward the callers of fine-grained layers; the
benchmark reports ``trace.overhead_ratio`` (traced wall / untraced
wall) so readers can judge by how much.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Reported layers, in report order.
LAYERS = ("sim", "tinyos", "hw.radio", "hw.mcu", "hw.asic", "hw.adc",
          "core", "phy", "mac", "apps", "signals", "net", "obs", "exec",
          "lint")

#: ``repro.hw`` modules -> layer (frames belong to the radio model).
_HW_LAYERS = {"radio": "hw.radio", "frames": "hw.radio",
              "mcu": "hw.mcu", "asic": "hw.asic", "adc": "hw.adc"}

#: (module, class, methods, layer): plain spans around class methods.
_METHOD_SPANS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.kernel", "Simulator", ("run_until",), "sim"),
    ("repro.tinyos.scheduler", "TaskScheduler", ("post_cost_only",),
     "tinyos"),
    ("repro.hw.radio", "Nrf2401",
     ("send", "start_rx", "stop_rx", "cca", "power_up", "power_down",
      "frame_arrival_start", "frame_arrival_end"), "hw.radio"),
    ("repro.hw.mcu", "Msp430",
     ("wake", "sleep", "begin_task", "account_cycles"), "hw.mcu"),
    ("repro.hw.asic", "BiopotentialAsic", ("read_channel",), "hw.asic"),
    ("repro.hw.adc", "Adc12", ("convert",), "hw.adc"),
    ("repro.core.ledger", "PowerStateLedger", ("transition", "retag"),
     "core"),
    ("repro.phy.channel", "Channel",
     ("begin_transmission", "is_busy_at"), "phy"),
    ("repro.obs.profiler", "SimulationProfiler",
     ("absorb", "snapshot", "merge_snapshot"), "obs"),
    ("repro.obs.metrics", "MetricsRegistry",
     ("snapshot", "merge_snapshot"), "obs"),
    ("repro.obs.spans", "SpanStore", ("snapshot", "merge_snapshot"),
     "obs"),
)

#: (module, functions, layer): spans around module-level functions.
#: ``repro.exec`` imports the ``repro.obs`` collectors at call time, so
#: patching the package attributes reaches them.
_FUNCTION_SPANS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("repro.obs", ("collect_scenario_metrics", "collect_simulator_metrics"),
     "obs"),
    ("repro.obs.spans", ("attach_span_tracer",), "obs"),
    ("repro.lint.cli", ("main",), "lint"),
)

#: Kernel/scheduler entry points whose callable argument is wrapped:
#: (class method, positional index of the callable after ``self``).
_SCHEDULING = (("at", 1), ("after", 1), ("call_soon", 0), ("every", 1))

#: Entry points timed as groups (outermost span only) for the
#: ``exec.overhead_share`` and ``net.build_share`` metrics.
_BUILD, _SCENARIO_RUN, _RUN_CONFIGS = "net.build", "net.run", "exec.run"


def layer_of_module(module: str) -> str:
    """``repro.hw.radio.x`` -> ``hw.radio``; ``repro.mac.csma`` -> ``mac``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    if parts[1] == "hw":
        return _HW_LAYERS.get(parts[2] if len(parts) > 2 else "", "hw")
    return parts[1]


def _callable_module(fn: Any) -> str:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__module__", None) or ""


def _package_classes(package: str, method_names: Iterable[str]
                     ) -> List[Tuple[type, str]]:
    """(class, method) for every class of ``package`` defining a method."""
    names = tuple(method_names)
    root = importlib.import_module(package)
    found: List[Tuple[type, str]] = []
    for info in pkgutil.iter_modules(root.__path__, f"{package}."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                found.extend((value, name) for name in names
                             if name in vars(value))
    return found


class BoundaryTracer:
    """Installs boundary spans, folds them per layer, removes them.

    Use :meth:`install` before building anything, :meth:`reset` once
    set-up is done (the build group total survives it), and
    :meth:`uninstall` when the timed phase ends.
    """

    def __init__(self) -> None:
        self._stack: List[float] = []
        #: layer -> [inclusive_s, self_s]
        self._folds: Dict[str, List[float]] = {}
        #: entry point name -> [calls]
        self._entries: Dict[str, List[int]] = {}
        #: entry point name -> layer
        self._entry_layer: Dict[str, str] = {}
        #: group -> [inclusive_s of outermost spans, open depth]
        self._groups: Dict[str, List[float]] = {
            _BUILD: [0.0, 0], _SCENARIO_RUN: [0.0, 0],
            _RUN_CONFIGS: [0.0, 0]}
        self._callback_slots: Dict[str, Tuple[List[float], List[int]]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Frames handed to software, summed from end-of-air outcomes.
        self.delivered = 0
        #: Scenario objects seen by ``BanScenario.run`` /
        #: ``MultiBanScenario.run``, for the counter read-out.
        self.scenarios: List[Any] = []
        self.multis: List[Any] = []

    # ------------------------------------------------------------------
    # Folds
    # ------------------------------------------------------------------
    def _fold(self, layer: str) -> List[float]:
        return self._folds.setdefault(layer, [0.0, 0.0])

    def _entry(self, layer: str, name: str) -> List[int]:
        self._entry_layer[name] = layer
        return self._entries.setdefault(name, [0])

    def reset(self) -> None:
        """Zero the layer folds and call counts (set-up is over)."""
        for fold in self._folds.values():
            fold[0] = fold[1] = 0.0
        for entry in self._entries.values():
            entry[0] = 0
        for name in (_SCENARIO_RUN, _RUN_CONFIGS):
            self._groups[name][0] = 0.0
        self.delivered = 0
        self.scenarios.clear()
        self.multis.clear()

    def calls(self, name: str) -> int:
        """Calls of one entry point (e.g. ``Nrf2401.cca``)."""
        entry = self._entries.get(name)
        return entry[0] if entry is not None else 0

    def layer_calls(self, layer: str) -> int:
        """Boundary calls into ``layer``."""
        return sum(entry[0] for name, entry in self._entries.items()
                   if self._entry_layer[name] == layer)

    def self_s(self, layer: str) -> float:
        """Exclusive seconds spent in ``layer``."""
        fold = self._folds.get(layer)
        return fold[1] if fold is not None else 0.0

    def group_s(self, group: str) -> float:
        """Inclusive seconds of the outermost spans of a timed group."""
        return self._groups[group][0]

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span(self, layer: str, name: str, fn: Callable[..., Any]
              ) -> Callable[..., Any]:
        return self._span_into(self._fold(layer), self._entry(layer, name),
                               fn)

    def _span_into(self, fold: List[float], entry: List[int],
                   fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        clock = perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                entry[0] += 1
                fold[0] += elapsed
                fold[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed

        return span

    def _wrap_callable(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Span a callback, charged to the package that defines it."""
        module = _callable_module(fn)
        slot = self._callback_slots.get(module)
        if slot is None:
            layer = layer_of_module(module)
            slot = (self._fold(layer),
                    self._entry(layer, f"{layer}.callback"))
            self._callback_slots[module] = slot
        return self._span_into(slot[0], slot[1], fn)

    def _scheduling(self, original: Callable[..., Any], index: int
                    ) -> Callable[..., Any]:
        wrap = self._wrap_callable

        def schedule(owner: Any, *args: Any, **kwargs: Any) -> Any:
            if len(args) > index:
                args = (args[:index] + (wrap(args[index]),)
                        + args[index + 1:])
            else:
                for key in ("callback", "body"):
                    if key in kwargs:
                        kwargs[key] = wrap(kwargs[key])
            return original(owner, *args, **kwargs)

        return schedule

    def _observed(self, fn: Callable[..., Any], group: Optional[str],
                  after: Optional[Callable[[Any, Any], None]]
                  ) -> Callable[..., Any]:
        """Time the outermost calls of ``group``, then ``after(owner,
        result)`` (both optional)."""
        state = self._groups[group] if group is not None else [0.0, 0]
        clock = perf_counter

        def observed(owner: Any, *args: Any, **kwargs: Any) -> Any:
            outermost = state[1] == 0
            state[1] += 1
            start = clock()
            try:
                result = fn(owner, *args, **kwargs)
            finally:
                state[1] -= 1
                if outermost:
                    state[0] += clock() - start
            if after is not None:
                after(owner, result)
            return result

        return observed

    def _count_delivered(self, _channel: Any, outcome: Any) -> None:
        self.delivered += len(outcome.delivered_to)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary listed in this module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, methods, layer in _METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch_methods([(cls, method) for method in methods], layer)
        for module_name, functions, layer in _FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            for function in functions:
                self._patch(module, function, self._span(
                    layer, f"{module_name}.{function}",
                    vars(module)[function]))

        from repro.sim.kernel import Simulator
        from repro.tinyos.scheduler import TaskScheduler
        for method, index in _SCHEDULING:
            self._patch(Simulator, method, self._span(
                "sim", f"Simulator.{method}",
                self._scheduling(vars(Simulator)[method], index)))
        self._patch(TaskScheduler, "post", self._span(
            "tinyos", "TaskScheduler.post",
            self._scheduling(vars(TaskScheduler)["post"], 0)))

        from repro.exec.executor import ScenarioExecutor
        from repro.net.multi import MultiBanScenario
        from repro.net.scenario import BanScenario
        from repro.phy.channel import Channel
        observed: Tuple[Tuple[type, str, str, Optional[str], Any], ...] = (
            (Channel, "end_transmission", "phy", None,
             self._count_delivered),
            (BanScenario, "__init__", "net", _BUILD, None),
            (MultiBanScenario, "__init__", "net", _BUILD, None),
            (BanScenario, "run", "net", _SCENARIO_RUN,
             lambda owner, _: self.scenarios.append(owner)),
            (MultiBanScenario, "run", "net", None,
             lambda owner, _: self.multis.append(owner)),
            (ScenarioExecutor, "run_configs", "exec", _RUN_CONFIGS, None),
        )
        for cls, method, layer, group, after in observed:
            self._patch(cls, method, self._span(
                layer, f"{cls.__name__}.{method}",
                self._observed(vars(cls)[method], group, after)))

        from repro.obs.spans import SpanTracer
        self._patch_methods(
            [(SpanTracer, name) for name, value in vars(SpanTracer).items()
             if callable(value) and not name.startswith("_")], "obs")
        self._patch_methods(
            _package_classes("repro.apps",
                             ("handle_samples", "next_payload")), "apps")
        self._patch_methods(
            _package_classes("repro.signals", ("value_at",)), "signals")

    def _patch_methods(self, methods: List[Tuple[type, str]],
                       layer: str) -> None:
        for cls, method in methods:
            self._patch(cls, method, self._span(
                layer, f"{cls.__name__}.{method}", vars(cls)[method]))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _scenario_counts(scenarios: List[Any], multis: List[Any]
                     ) -> Dict[str, float]:
    """Deterministic counts read from the scenarios after the run.

    Kernel, MCU and MAC figures come through the public collectors
    (``collect_scenario_metrics`` / ``collect_simulator_metrics``); the
    rest are read from the objects those collectors walk.  MCU wake-ups
    cover the measurement window only (the ledgers reset there); every
    other count covers the whole run, warm-up included.
    """
    from repro.obs import (MetricsRegistry, collect_scenario_metrics,
                           collect_simulator_metrics, split_key)
    from repro.sim.simtime import to_seconds
    bans = list(scenarios) + [ban for multi in multis for ban in multi.bans]
    sims = list({id(ban.sim): ban.sim for ban in bans}.values())
    channels = list({id(ban.channel): ban.channel for ban in bans}.values())
    registry = MetricsRegistry()
    for ban in bans:
        collect_scenario_metrics(ban, registry)
    for sim in sims:
        collect_simulator_metrics(sim, registry)
    totals: Dict[Tuple[str, str], int] = {}
    for key, value in registry.snapshot()["counters"].items():
        component, _, name = split_key(key)
        totals[component, name] = totals.get((component, name), 0) + value
    nodes = [node for ban in bans for node in ban.nodes]
    stations = nodes + [ban.base_station for ban in bans]
    return {
        "sim.events": totals.get(("kernel", "events_dispatched"), 0),
        "sim_s": sum(to_seconds(sim.now) for sim in sims),
        "tinyos.tasks": sum(s.scheduler.tasks_run for s in stations),
        "hw.mcu.wakeups": totals.get(("mcu", "wakeups"), 0),
        "phy.frames": sum(channel.frames_sent for channel in channels),
        "phy.collisions": sum(channel.collisions_detected
                              for channel in channels),
        "mac.cca_busy": totals.get(("mac", "cca_busy"), 0),
        "mac.tx_abandoned": totals.get(("mac", "tx_abandoned"), 0),
        "apps.samples": sum(node.app.samples_taken for node in nodes
                            if node.app is not None),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: BoundaryTracer, wall_s: float
                      ) -> Dict[str, float]:
    """Layer calls and shares, boundary counts and trace coverage.

    Call after :meth:`BoundaryTracer.uninstall`; ``wall_s`` is the
    traced wall time of the timed phase.  Shares are self seconds over
    ``wall_s``; ``trace.coverage`` is their sum over :data:`LAYERS`.
    """
    metrics: Dict[str, float] = {}
    covered = 0.0
    for layer in LAYERS:
        self_s = tracer.self_s(layer)
        covered += self_s
        metrics[f"{layer}.calls"] = tracer.layer_calls(layer)
        metrics[f"{layer}.share"] = self_s / wall_s
    counts = _scenario_counts(tracer.scenarios, tracer.multis)
    arrivals = tracer.calls("Nrf2401.frame_arrival_start")
    run_configs_s = tracer.group_s(_RUN_CONFIGS)
    overhead_s = (max(0.0, run_configs_s - tracer.group_s(_SCENARIO_RUN))
                  if run_configs_s else 0.0)
    metrics.update({
        "sim.events": counts["sim.events"],
        "sim.events_per_sim_s": _ratio(counts["sim.events"],
                                       counts["sim_s"]),
        "tinyos.tasks": counts["tinyos.tasks"],
        "hw.mcu.wakeups": counts["hw.mcu.wakeups"],
        "phy.frames": counts["phy.frames"],
        "phy.fanout_per_frame": _ratio(arrivals, counts["phy.frames"]),
        "phy.collisions": counts["phy.collisions"],
        "phy.useful_rx_ratio": _ratio(tracer.delivered, arrivals),
        "mac.cca_busy_ratio": _ratio(counts["mac.cca_busy"],
                                     tracer.calls("Nrf2401.cca")),
        "mac.tx_abandoned": counts["mac.tx_abandoned"],
        "apps.samples": counts["apps.samples"],
        "exec.overhead_share": overhead_s / wall_s,
        "net.build_share": tracer.group_s(_BUILD) / wall_s,
        "trace.coverage": covered / wall_s,
        "trace.wall_s": wall_s,
    })
    return metrics


__all__ = ["BoundaryTracer", "LAYERS", "layer_of_module",
           "per_layer_metrics"]
