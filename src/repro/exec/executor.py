"""Process-parallel execution of independent BAN scenarios.

Every table row, sweep point and sensitivity point is an independent
:class:`~repro.net.scenario.BanScenarioConfig` evaluated by a
deterministic simulator, which makes batch evaluation embarrassingly
parallel.  :class:`ScenarioExecutor` fans a batch out over a
:class:`concurrent.futures.ProcessPoolExecutor` and returns results
**in submission order**, so parallel output is bit-identical to the
sequential path — determinism is the contract, parallelism only
changes wall-clock time.

Fallback rules (all silent, all order-preserving):

* ``jobs=1`` runs everything in-process — same code path the worker
  runs, convenient for debugging and profiling.
* Configs that cannot be pickled (e.g. a lambda
  ``sync_policy_factory``) are detected up front and evaluated
  in-process; the rest of the batch still uses the pool.
* If the platform cannot start worker processes at all, the whole
  batch falls back in-process.
* If the pool breaks mid-batch (:class:`BrokenProcessPool`), the items
  whose results it has not yet returned run again, in-process; the
  results already collected are kept.

Failure rule: the first item that raises fails the batch with its own
exception, at any ``jobs``.  On the pooled path it re-raises once the
pool has shut down.  An exception raised by the item itself — an
``OSError`` included — is never mistaken for a pool failure.

Observability: constructed with a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.profiler.SimulationProfiler` or a
:class:`~repro.obs.spans.SpanStore`, the executor has each worker
build private ones, run its scenario instrumented, and ship them back:
the registry and the profiler as plain-data snapshots, the span store
as itself.  The main process merges them in submission order, at any
``jobs`` through the same path.  Counters merge additively and span IDs
are rebased, so ``jobs=N`` reports the same MAC/radio/MCU totals and
the same spans as a sequential run.  None of the three changes the
path a scenario takes: an instrumented run dispatches the same events
as a plain one.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Callable, List, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # imported lazily at runtime (workers build their own)
    from ..obs.metrics import MetricsRegistry
    from ..obs.profiler import SimulationProfiler
    from ..obs.spans import SpanStore


def _run_config_worker(config: Any) -> Any:
    """Build and run one scenario (module-level: must be picklable)."""
    from ..net.scenario import BanScenario
    return BanScenario(config).run()


def _run_config_worker_obs(config: Any, profile: bool = False,
                           spans: bool = False
                           ) -> Tuple[Any, dict, Optional[dict],
                                      Optional["SpanStore"]]:
    """Run one scenario instrumented; ship what it recorded back.

    Returns ``(result, metrics_snapshot, profiler_snapshot,
    span_store)``.  The worker builds a private registry (and, with
    ``spans``, a private :class:`~repro.obs.spans.SpanStore`, shipped
    as it is), so merging in the parent is an order-preserving fold.
    """
    from ..net.scenario import BanScenario
    from ..obs import (GLOBAL, MetricsRegistry, SimulationProfiler,
                       collect_scenario_metrics, collect_simulator_metrics)
    registry = MetricsRegistry()
    scenario = BanScenario(config)
    scenario.sim.metrics = registry
    profiler = SimulationProfiler() if profile else None
    if profiler is not None:
        scenario.sim.profiler = profiler
    tracer = None
    if spans:
        from ..obs.spans import attach_span_tracer
        tracer = attach_span_tracer(scenario)
    started = perf_counter()
    result = scenario.run()
    wall_s = perf_counter() - started
    collect_scenario_metrics(scenario, registry)
    collect_simulator_metrics(scenario.sim, registry)
    registry.histogram("exec", GLOBAL, "scenario_wall_s").observe(wall_s)
    return (result, registry.snapshot(),
            profiler.snapshot() if profiler is not None else None,
            tracer.store if tracer is not None else None)


def default_jobs() -> int:
    """Worker count used for ``jobs=None``: the machine's CPU count."""
    return os.cpu_count() or 1


def _picklable(value: Any) -> bool:
    try:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return True
    except (pickle.PicklingError, TypeError, AttributeError):
        return False


class ScenarioExecutor:
    """Runs batches of independent scenario configs, optionally parallel.

    The first scenario that raises fails the batch with its own
    exception, whatever ``jobs`` is.

    Args:
        jobs: worker process count.  ``1`` (the default) executes
            in-process; ``None`` uses :func:`default_jobs`.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            when given, :meth:`run_configs` runs scenarios instrumented
            and merges every worker's snapshot here.
        profiler: optional
            :class:`~repro.obs.profiler.SimulationProfiler` merging the
            per-scenario callback timings (implies instrumented runs).
        spans: optional :class:`~repro.obs.spans.SpanStore`; when
            given, every run is traced with a private store and the
            stores merge here in submission order (rebased span
            IDs), so ``jobs=N`` span output equals sequential.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 metrics: Optional["MetricsRegistry"] = None,
                 profiler: Optional["SimulationProfiler"] = None,
                 spans: Optional["SpanStore"] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = default_jobs() if jobs is None else jobs
        self.metrics = metrics
        self.profiler = profiler
        self.spans = spans
        #: Sum of batch wall time x pool width over every batch run.
        self._capacity_s = 0.0

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            ) -> List[Any]:
        """Apply picklable ``fn`` to each item; results in item order.

        The generic machinery behind :meth:`run_configs`.  Unpicklable
        items are evaluated in-process; so is everything when
        ``jobs == 1`` or the pool cannot start.
        The first item that raises fails the batch with its own
        exception.
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        results: List[Any] = [None] * len(items)
        skip = {index for index, item in enumerate(items)
                if not _picklable(item)}
        if not _picklable(fn):
            skip = set(range(len(items)))
        pooled = [index for index in range(len(items))
                  if index not in skip]
        if pooled:
            skip.update(self._run_pooled(fn, items, pooled, results))
        for index in sorted(skip):
            results[index] = fn(items[index])
        return results

    def _run_pooled(self, fn: Callable[[Any], Any], items: Sequence[Any],
                    pooled: Sequence[int], results: List[Any]
                    ) -> List[int]:
        """Evaluate the ``pooled`` indices in a process pool.

        Fills ``results`` in place and returns the indices left for
        in-process evaluation: all of them when the pool cannot start,
        the ones not yet collected when it breaks mid-batch.  Pool
        errors are caught around construction and submission only; an
        exception from ``future.result()`` is the item's own and
        re-raises once the pool has shut down.
        """
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pooled)))
        except (OSError, ValueError):
            return list(pooled)
        with pool:
            try:
                futures = [pool.submit(fn, items[index])
                           for index in pooled]
            except (OSError, BrokenProcessPool):
                return list(pooled)
            for position, future in enumerate(futures):
                try:
                    results[pooled[position]] = future.result()
                except BrokenProcessPool:
                    return list(pooled[position:])
        return []

    def run_configs(self, configs: Sequence[Any]) -> List[Any]:
        """Evaluate each config; results in submission order.

        With ``metrics``, ``profiler`` or ``spans`` set, every run is
        instrumented and what it recorded merged here in submission
        order.
        """
        configs = list(configs)
        observed = (self.metrics is not None
                    or self.profiler is not None
                    or self.spans is not None)
        if not observed:
            return self.map(_run_config_worker, configs)
        worker = partial(_run_config_worker_obs,
                         profile=self.profiler is not None,
                         spans=self.spans is not None)
        batch_started = perf_counter()
        results = [self._absorb_observed(packed)
                   for packed in self.map(worker, configs)]
        self._record_batch_metrics(len(configs),
                                   perf_counter() - batch_started)
        return results

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _absorb_observed(self, packed: Tuple[Any, dict, Optional[dict],
                                             Optional["SpanStore"]]
                         ) -> Any:
        """Merge one worker's records; return the bare result."""
        result, metrics_snapshot, profiler_snapshot, span_store = packed
        if self.metrics is not None:
            self.metrics.merge_snapshot(metrics_snapshot)
        if self.profiler is not None and profiler_snapshot is not None:
            self.profiler.merge_snapshot(profiler_snapshot)
        if self.spans is not None and span_store is not None:
            self.spans.merge_snapshot(span_store)
        return result

    def _record_batch_metrics(self, total: int,
                              batch_wall_s: float) -> None:
        """Batch-level figures: size, pool width, worker utilisation.

        Utilisation is the registry's cumulative scenario wall time
        over the worker capacity of every batch this executor has run
        (each batch's wall time times its pool width).
        """
        if self.metrics is None:
            return
        from ..obs import GLOBAL
        registry = self.metrics
        registry.counter("exec", GLOBAL, "scenarios_run").inc(total)
        registry.gauge("exec", GLOBAL, "workers").set(float(self.jobs))
        registry.histogram("exec", GLOBAL,
                           "batch_wall_s").observe(batch_wall_s)
        busy = registry.histogram("exec", GLOBAL, "scenario_wall_s")
        self._capacity_s += batch_wall_s * min(self.jobs, total)
        if self._capacity_s > 0.0:
            registry.gauge("exec", GLOBAL, "worker_utilization").set(
                min(1.0, busy.total / self._capacity_s))


__all__ = ["ScenarioExecutor", "default_jobs"]
