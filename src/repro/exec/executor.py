"""Process-parallel execution of independent BAN scenarios.

Every table row, sweep point, replication seed and multi-BAN parameter
set is an independent :class:`~repro.net.scenario.BanScenarioConfig`
evaluated by a deterministic simulator, which makes batch evaluation
embarrassingly parallel.  :class:`ScenarioExecutor` fans a batch out
over a :class:`concurrent.futures.ProcessPoolExecutor` and returns
results **in submission order**, so parallel output is bit-identical to
the sequential path — determinism is the contract, parallelism only
changes wall-clock time.

Fallback rules (all silent, all order-preserving):

* ``jobs=1`` runs everything in-process — same code path the worker
  runs, convenient for debugging and profiling.
* Configs that cannot be pickled (e.g. a lambda
  ``sync_policy_factory``) are detected up front and evaluated
  in-process; the rest of the batch still uses the pool.
* If the platform cannot start worker processes at all, the whole
  batch falls back in-process.

Failure rules (the part that keeps long batches alive):

* An exception raised by ``fn`` is captured **per item**.  By default
  the first one (in submission order) re-raises after the remaining
  futures have been drained — never by silently recomputing the whole
  pooled share in-process, which the old code did whenever ``fn``
  happened to raise ``OSError``.  With ``isolate_errors=True`` the
  failing slot instead holds a structured
  :class:`~repro.exec.errors.ErrorResult` and the sibling results
  survive; sequential and pooled batches produce identical outputs.
* A mid-batch :class:`BrokenProcessPool` re-dispatches only the items
  whose futures had not finished (bounded by ``retries`` extra pool
  attempts, then in-process), so already-completed work is never run
  twice.
* ``timeout_s`` bounds each pooled item's wall-clock time; an expired
  item becomes an ``ErrorResult`` (``isolate_errors=True``) or raises
  :class:`~repro.exec.errors.ScenarioTimeoutError`.  Hung worker
  processes are terminated.  In-process items cannot be preempted, so
  the timeout only applies to the pooled path.

Observability: constructed with a
:class:`~repro.obs.metrics.MetricsRegistry` (and optionally a
:class:`~repro.obs.profiler.SimulationProfiler`), the executor has each
worker build a private registry, run its scenario instrumented, and
ship plain-data snapshots back; the main process merges them in
submission order.  Counters merge additively, so ``jobs=N`` reports the
same MAC/radio/MCU totals as a sequential run.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from time import perf_counter
from typing import (TYPE_CHECKING, Any, Callable, List, Optional,
                    Sequence, Set, Tuple)

from .errors import ErrorResult, ScenarioTimeoutError, timeout_result

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
                                      Optional[dict]]:
    """Run one scenario instrumented; ship snapshots, not objects.

    Returns ``(result, metrics_snapshot, profiler_snapshot,
    spans_snapshot)``.  The worker builds a private registry (and,
    with ``spans``, a private :class:`~repro.obs.spans.SpanStore`) so
    merging in the parent is a pure, order-preserving fold over plain
    dicts.
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
            tracer.store.snapshot() if tracer is not None else None)


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
            snapshots merge here in submission order (rebased span
            IDs), so ``jobs=N`` span output equals sequential.
        isolate_errors: when True, an item whose evaluation raises (or
            times out) yields an :class:`ErrorResult` in its slot and
            the rest of the batch completes; when False (default), the
            first failure re-raises after the in-flight futures drain.
        timeout_s: optional per-item wall-clock bound for pooled items;
            expired items fail (``ErrorResult`` or
            :class:`ScenarioTimeoutError` per ``isolate_errors``) and
            their worker processes are terminated.
        retries: extra process-pool attempts for items whose futures
            were lost to a *pool-level* failure (``BrokenProcessPool``
            and kin) before falling back in-process.  Exceptions raised
            by the item itself are never retried — the simulator is
            deterministic, so they would fail identically.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 metrics: Optional["MetricsRegistry"] = None,
                 profiler: Optional["SimulationProfiler"] = None,
                 spans: Optional["SpanStore"] = None,
                 isolate_errors: bool = False,
                 timeout_s: Optional[float] = None,
                 retries: int = 0) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = default_jobs() if jobs is None else jobs
        self.metrics = metrics
        self.profiler = profiler
        self.spans = spans
        self.isolate_errors = isolate_errors
        self.timeout_s = timeout_s
        self.retries = retries
        #: Sum of batch wall time x pool width over every batch run.
        self._capacity_s = 0.0

    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            ) -> List[Any]:
        """Apply picklable ``fn`` to each item; results in item order.

        The generic machinery behind :meth:`run_configs`, exposed for
        batch entry points that need a custom per-item function (e.g.
        multi-BAN runs).  Unpicklable items are evaluated in-process;
        so is everything when ``jobs == 1`` or the pool cannot start.
        Failures follow the module-level failure rules: per-item
        capture, pool-level retry of unfinished items only, optional
        per-item timeout on the pooled path.
        """
        items = list(items)
        results: List[Any] = [None] * len(items)
        if self.jobs == 1 or len(items) <= 1:
            for index in range(len(items)):
                results[index] = self._run_one_local(fn, items, index)
            return results

        skip = {index for index, item in enumerate(items)
                if not _picklable(item)}
        if not _picklable(fn):
            skip = set(range(len(items)))
        pooled = [index for index in range(len(items))
                  if index not in skip]
        if pooled:
            skip.update(self._run_pooled(fn, items, pooled, results))
        for index in sorted(skip):
            results[index] = self._run_one_local(fn, items, index)
        return results

    # ------------------------------------------------------------------
    # Failure-isolating execution paths
    # ------------------------------------------------------------------
    def _run_one_local(self, fn: Callable[[Any], Any],
                       items: Sequence[Any], index: int) -> Any:
        """Evaluate one item in-process under the isolation policy."""
        try:
            return fn(items[index])
        # lint: allow(EXC001): isolation contract, re-raised otherwise
        except Exception as exc:
            if not self.isolate_errors:
                raise
            return ErrorResult.from_exception(index, items[index], exc)

    def _run_pooled(self, fn: Callable[[Any], Any], items: Sequence[Any],
                    pooled: Sequence[int], results: List[Any]
                    ) -> Set[int]:
        """Evaluate ``pooled`` indices via a process pool.

        Fills ``results`` in place and returns the indices that still
        need in-process evaluation (pool never started, or pool-level
        failures exhausted ``retries``).  Items whose evaluation raised
        are *finished* — recomputing a deterministic failure would only
        duplicate side effects — so they are never re-dispatched.
        """
        remaining = list(pooled)
        deferred: Optional[BaseException] = None
        attempt = 0
        while remaining:
            attempt += 1
            done: Set[int] = set()
            try:
                workers = min(self.jobs, len(remaining))
                pool = ProcessPoolExecutor(max_workers=workers)
            except (OSError, ValueError):
                return set(remaining)
            timed_out = False
            try:
                futures = [(index, pool.submit(fn, items[index]))
                           for index in remaining]
                for index, future in futures:
                    try:
                        results[index] = future.result(
                            timeout=self.timeout_s)
                        done.add(index)
                    except BrokenProcessPool:
                        raise  # pool-level: handled by the outer except
                    except FuturesTimeoutError:
                        timed_out = True
                        future.cancel()
                        if not self.isolate_errors:
                            raise ScenarioTimeoutError(
                                f"batch item {index} exceeded "
                                f"{self.timeout_s:g}s") from None
                        results[index] = timeout_result(
                            index, items[index], self.timeout_s, attempt)
                        done.add(index)
                    # lint: allow(EXC001): per-item capture, deferred
                    except Exception as exc:
                        # Raised by fn inside the worker (including
                        # OSError — previously mistaken for a pool
                        # failure and silently recomputed everywhere).
                        done.add(index)
                        if self.isolate_errors:
                            results[index] = ErrorResult.from_exception(
                                index, items[index], exc, attempt)
                        elif deferred is None:
                            deferred = exc
                remaining = []
            except (OSError, BrokenProcessPool, pickle.PicklingError):
                # Pool machinery failed: only the genuinely unfinished
                # items go around again (or fall back in-process).
                remaining = [index for index in remaining
                             if index not in done]
                if attempt > self.retries:
                    return set(remaining)
            finally:
                self._drain_pool(pool, force=timed_out)
        if deferred is not None:
            raise deferred
        return set()

    @staticmethod
    def _drain_pool(pool: ProcessPoolExecutor, force: bool) -> None:
        """Shut a pool down; ``force`` terminates hung workers."""
        if force:
            processes = list((getattr(pool, "_processes", None)
                              or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except (OSError, AttributeError):
                    pass
        else:
            pool.shutdown(wait=True)

    def run_configs(self, configs: Sequence[Any]) -> List[Any]:
        """Evaluate each config; results in submission order.

        With ``metrics``, ``profiler`` or ``spans`` set, every run is
        instrumented and its snapshots merged here in submission
        order.
        """
        configs = list(configs)
        observed = (self.metrics is not None
                    or self.profiler is not None
                    or self.spans is not None)
        worker: Callable[[Any], Any] = _run_config_worker
        if observed:
            worker = partial(_run_config_worker_obs,
                             profile=self.profiler is not None,
                             spans=self.spans is not None)
        batch_started = perf_counter()
        results = self.map(worker, configs)
        if observed:
            results = [packed if isinstance(packed, ErrorResult)
                       else self._absorb_observed(packed)
                       for packed in results]
            failed = sum(1 for result in results
                         if isinstance(result, ErrorResult))
            self._record_batch_metrics(len(configs),
                                       perf_counter() - batch_started,
                                       failed)
        return results

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _absorb_observed(self, packed: Tuple[Any, dict, Optional[dict],
                                             Optional[dict]]
                         ) -> Any:
        """Merge one worker's snapshots; return the bare result."""
        result, metrics_snapshot, profiler_snapshot, spans_snapshot \
            = packed
        if self.metrics is not None:
            self.metrics.merge_snapshot(metrics_snapshot)
        if self.profiler is not None and profiler_snapshot is not None:
            self.profiler.merge_snapshot(profiler_snapshot)
        if self.spans is not None and spans_snapshot is not None:
            self.spans.merge_snapshot(spans_snapshot)
        return result

    def _record_batch_metrics(self, total: int, batch_wall_s: float,
                              failed: int = 0) -> None:
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
        if failed:
            registry.counter("exec", GLOBAL,
                             "scenarios_failed").inc(failed)
        registry.gauge("exec", GLOBAL, "workers").set(float(self.jobs))
        registry.histogram("exec", GLOBAL,
                           "batch_wall_s").observe(batch_wall_s)
        busy = registry.histogram("exec", GLOBAL, "scenario_wall_s")
        self._capacity_s += batch_wall_s * min(self.jobs, total)
        if self._capacity_s > 0.0:
            registry.gauge("exec", GLOBAL, "worker_utilization").set(
                min(1.0, busy.total / self._capacity_s))


def run_configs(configs: Sequence[Any], jobs: Optional[int] = 1,
                isolate_errors: bool = False,
                timeout_s: Optional[float] = None,
                retries: int = 0) -> List[Any]:
    """One-call convenience: ``ScenarioExecutor(jobs).run_configs``."""
    return ScenarioExecutor(jobs=jobs,
                            isolate_errors=isolate_errors,
                            timeout_s=timeout_s,
                            retries=retries).run_configs(configs)


__all__ = ["ScenarioExecutor", "default_jobs", "run_configs"]
