#!/usr/bin/env python3
"""Standalone kernel-benchmark runner with a committed history.

Runs the same workloads as ``bench_kernel.py`` without requiring
pytest-benchmark, and appends one structured record per workload to
``BENCH_kernel.json`` at the repository root.  The committed file is the
performance trajectory of the simulator substrate: every optimisation PR
appends its before/after numbers so regressions are visible in review.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/run_bench.py --label my-change
    PYTHONPATH=src python benchmarks/run_bench.py --repeats 7 --full

``--full`` adds the (slower) whole-BAN simulation-rate workload on top
of the kernel event-throughput microbenchmark.

``--check-floor`` (implies ``--full``) turns the run into a perf gate:
it fails (exit 1) if ``ban_simulation_rate_5s`` or ``ban_csma_rate_5s``
simulates fewer seconds per wall second than the committed ``seed``
record scaled by ``--floor-fraction``.  Each run simulates a fixed
span, so that is the seed record's ``best_s`` divided by the fraction,
compared with the measured ``best_s``.  Events/s would not do: a change
that dispatches fewer events for the same simulated span would read
as a slowdown.  CI passes a fraction < 1 because hosted runners are
slower and noisier than the reference container; locally, use the
default 1.0 to assert "no regression against seed".
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.net.scenario import BanScenario, BanScenarioConfig  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

#: Where the committed benchmark trajectory lives.
RESULTS_PATH = ROOT / "BENCH_kernel.json"

#: Events dispatched by the kernel-throughput workload.
KERNEL_EVENTS = 100_000


def kernel_event_throughput() -> int:
    """The ``bench_kernel.py::test_kernel_event_throughput`` workload:
    dispatch 100k self-rescheduling events through one Simulator."""
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < KERNEL_EVENTS:
            sim.after(10, tick)

    sim.after(10, tick)
    sim.run_until(10 * KERNEL_EVENTS + 1)
    return count[0]


def kernel_metrics_overhead() -> int:
    """The throughput workload with a metrics registry *attached*.

    Paired with :func:`kernel_event_throughput` (registry detached),
    the two records quantify the observability layer's enabled-path
    cost; the disabled path is unchanged code.  Chunked ``run_until``
    calls exercise the per-call gauge/histogram writes.
    """
    from repro.obs import MetricsRegistry

    sim = Simulator()
    sim.metrics = MetricsRegistry()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < KERNEL_EVENTS:
            sim.after(10, tick)

    sim.after(10, tick)
    horizon = 10 * KERNEL_EVENTS + 1
    for end in range(horizon // 10, horizon + 1, horizon // 10):
        sim.run_until(end)
    sim.run_until(horizon)
    return count[0]


#: Scenario shared by the spans-overhead pair (small enough to keep the
#: default benchmark run fast, busy enough to exercise every hook).
_SPANS_CONFIG = dict(mac="static", app="ecg_streaming", num_nodes=3,
                     cycle_ms=30.0, sampling_hz=205.0, measure_s=2.0)


def ban_spans_baseline() -> int:
    """Spans-off partner of :func:`kernel_spans_overhead`: the same
    3-node 2 s BAN run with no tracer attached.  The disabled path is
    a per-hook ``is None`` test on unchanged code, so this doubles as
    the honest baseline the overhead figure is quoted against."""
    scenario = BanScenario(BanScenarioConfig(**_SPANS_CONFIG))
    scenario.run()
    return scenario.sim.events_dispatched


def kernel_spans_overhead() -> int:
    """The same BAN run with a causal span tracer attached.

    Paired with :func:`ban_spans_baseline`, the two records quantify
    the enabled-path cost of span tracing (cf. the ~1.4% metrics
    figure from the ``kernel_metrics_overhead`` pair); the span set
    itself is byte-identical across runs, so only wall time varies.
    """
    from repro.obs import attach_span_tracer

    scenario = BanScenario(BanScenarioConfig(**_SPANS_CONFIG))
    attach_span_tracer(scenario)
    scenario.run()
    return scenario.sim.events_dispatched


def ban_simulation_rate() -> int:
    """The densest table row (5 nodes, 30 ms cycle, 205 Hz streaming)
    over a short 5 s window; returns events dispatched."""
    config = BanScenarioConfig(mac="static", app="ecg_streaming",
                               num_nodes=5, cycle_ms=30.0,
                               sampling_hz=205.0, measure_s=5.0)
    scenario = BanScenario(config)
    scenario.run()
    return scenario.sim.events_dispatched


def ban_csma_rate() -> int:
    """The contention-MAC counterpart of :func:`ban_simulation_rate`:
    the same 5-node 205 Hz streaming load under CSMA/CA, so the perf
    gate also covers the backoff/CCA event machinery."""
    config = BanScenarioConfig(mac="csma", app="ecg_streaming",
                               num_nodes=5, cycle_ms=30.0,
                               sampling_hz=205.0, measure_s=5.0)
    scenario = BanScenario(config)
    scenario.run()
    return scenario.sim.events_dispatched


#: Benchmarks gated by ``--check-floor`` against their ``seed`` records,
#: on wall time per run (each simulates the same fixed span).
FLOOR_GATED = ("ban_simulation_rate_5s", "ban_csma_rate_5s")


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure(workload: Callable[[], int], repeats: int) -> Dict[str, float]:
    """Run ``workload`` ``repeats`` times; report best/mean wall time."""
    times: List[float] = []
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        events = workload()
        times.append(time.perf_counter() - start)
    best = min(times)
    return {
        "best_s": round(best, 6),
        "mean_s": round(statistics.fmean(times), 6),
        "repeats": repeats,
        "events": events,
        "events_per_s": round(events / best, 1),
    }


def seed_baseline(benchmark: str) -> float:
    """The committed ``seed``-labelled ``best_s`` for ``benchmark``.

    Raises SystemExit if the history has no such record — a perf gate
    with no baseline should fail loudly, not silently pass.
    """
    history: List[Dict] = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text())
    times = [r["best_s"] for r in history
             if r.get("benchmark") == benchmark and r.get("label") == "seed"]
    if not times:
        raise SystemExit(
            f"no 'seed' record for {benchmark} in {RESULTS_PATH}")
    return min(times)


def append_record(record: Dict) -> None:
    """Append ``record`` to the committed JSON history (a list)."""
    history: List[Dict] = []
    if RESULTS_PATH.exists():
        history = json.loads(RESULTS_PATH.read_text())
    history.append(record)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per workload; best-of is recorded "
                             "(default 5)")
    parser.add_argument("--label", default="",
                        help="free-form tag stored with the record "
                             "(e.g. 'seed', 'fast-path')")
    parser.add_argument("--full", action="store_true",
                        help="also run the whole-BAN simulation-rate "
                             "workload (slower)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print records without touching "
                             "BENCH_kernel.json")
    parser.add_argument("--check-floor", action="store_true",
                        help="fail if the 5 s BAN runs simulate fewer "
                             "seconds per wall second than the committed "
                             "seed records scaled by --floor-fraction "
                             "(implies --full)")
    parser.add_argument("--floor-fraction", type=float, default=1.0,
                        help="fraction of the seed baseline that is "
                             "still a pass (default 1.0; CI uses less "
                             "to absorb hosted-runner variance)")
    args = parser.parse_args(argv)
    if not 0.0 < args.floor_fraction <= 1.0:
        parser.error(f"--floor-fraction must be in (0, 1]:"
                     f" {args.floor_fraction}")

    workloads = [("kernel_event_throughput", kernel_event_throughput),
                 ("kernel_metrics_overhead", kernel_metrics_overhead),
                 ("ban_spans_baseline_2s", ban_spans_baseline),
                 ("kernel_spans_overhead", kernel_spans_overhead)]
    if args.full or args.check_floor:
        workloads.append(("ban_simulation_rate_5s", ban_simulation_rate))
        workloads.append(("ban_csma_rate_5s", ban_csma_rate))

    rev = _git_rev()
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    measured: Dict[str, float] = {}
    for name, workload in workloads:
        stats = measure(workload, args.repeats)
        measured[name] = stats["best_s"]
        record = {"benchmark": name, "timestamp_utc": stamp,
                  "git_rev": rev, "label": args.label,
                  "python": sys.version.split()[0], **stats}
        print(json.dumps(record))
        if not args.dry_run:
            append_record(record)
    if not args.dry_run:
        print(f"appended to {RESULTS_PATH}")
    if args.check_floor:
        failed = False
        for benchmark in FLOOR_GATED:
            baseline = seed_baseline(benchmark)
            ceiling = baseline / args.floor_fraction
            best = measured[benchmark]
            verdict = "ok" if best <= ceiling else "FAIL"
            print(f"floor check [{benchmark}]: {best:.4f} s per run vs "
                  f"ceiling {ceiling:.4f} s (seed {baseline:.4f} s / "
                  f"{args.floor_fraction:g}): {verdict}")
            failed = failed or best > ceiling
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
