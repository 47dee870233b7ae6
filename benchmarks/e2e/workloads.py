"""The end-to-end benchmark's workloads.

Each workload is a function ``(seed, window_s) -> run``: everything it
does before returning ``run`` is set-up, ``run()`` is the timed phase,
and the ``finish()`` it returns turns raw results into records after
the clock stops.  The workloads call public ``repro`` APIs only.
``child.py`` runs one repeat of one of them in a fresh process.
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Simulated measurement window of every scenario [s].  Short enough
#: that one run holds ~20 repeats of a table workload: a shared host
#: slows down for seconds at a time, and a median over many short
#: repeats absorbs such bursts where one over a few long repeats moves.
WINDOW_S = 5.0

#: MACs of the ward's BANs, cycled in BAN order.
WARD_MACS = ("static", "dynamic", "aloha", "csma")

#: The lint analyses whose timings the lint report publishes.  The first
#: four run inside ``interproc``; the last four are the top-level passes.
LINT_ANALYSES = ("callgraph", "effects", "fingerprint", "lifecycle",
                 "interproc", "rngprov", "statemachine", "units")
_LINT_TOP_LEVEL = ("interproc", "rngprov", "statemachine", "units")

Outcome = Dict[str, Any]
#: Called after the timed phase: turns raw results into records.
Finish = Callable[[], Outcome]
#: The timed phase of one repeat.
Run = Callable[[], Finish]


@dataclass(frozen=True)
class Workload:
    """A named workload: ``setup(seed, window_s)`` returns its timed run."""

    name: str
    #: Operations per repeat (a scenario, a multi-BAN run, a lint run).
    ops: int
    #: Whether ``--seed`` changes the inputs (the paper's tables do not).
    seeded: bool
    #: Whether it runs the simulator (trace coverage is checked then).
    simulates: bool
    setup: Callable[[int, float], Run]


# ----------------------------------------------------------------------
# Operation records
# ----------------------------------------------------------------------
def _fingerprint(result: Any) -> str:
    """SHA-256 of the bit-exact canonical encoding of a result."""
    from repro.exec.cache import config_fingerprint
    return hashlib.sha256(config_fingerprint(result).encode()).hexdigest()


def _stations(result: Any) -> Dict[str, List[float]]:
    """Per station: radio mJ, MCU mJ, then the six traffic counters."""
    stations = dict(result.nodes)
    if result.base_station is not None:
        stations[result.base_station.node_id] = result.base_station
    return {station_id: [station.radio_mj, station.mcu_mj,
                         *astuple(station.traffic)]
            for station_id, station in sorted(stations.items())}


def _failed(exc: BaseException) -> Dict[str, str]:
    return {"error": f"{type(exc).__name__}: {exc}"}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def _tables(table_ids: Sequence[str], window_s: float,
            **observers: Any) -> Run:
    """Reproduce paper tables through one sequential executor.

    Each scenario is one operation.  The executor's ``run_configs`` is
    shadowed on the instance to keep every full scenario result (the
    reproducers only return the reported node's energies).
    """
    from repro.analysis.experiments import TABLE_REPRODUCERS
    from repro.data.paper_tables import TABLE_1, TABLE_2, TABLE_3, TABLE_4
    from repro.exec import ScenarioExecutor
    published = {"table1": TABLE_1, "table2": TABLE_2, "table3": TABLE_3,
                 "table4": TABLE_4}
    tables = [(TABLE_REPRODUCERS[table_id], len(published[table_id].rows))
              for table_id in table_ids]
    executor = ScenarioExecutor(jobs=1, **observers)
    recorded: List[Any] = []
    run_configs = executor.run_configs

    def recording(configs: Sequence[Any]) -> List[Any]:
        results = run_configs(configs)
        recorded.extend(results)
        return results

    executor.run_configs = recording  # type: ignore[method-assign]

    def run() -> Finish:
        # One entry per scenario: its result, or what its table raised.
        scenarios: List[Any] = []
        reproduced = []
        for reproduce, rows in tables:
            recorded.clear()
            try:
                reproduced.append(reproduce(measure_s=window_s,
                                            executor=executor))
            except Exception as exc:  # a raising scenario fails its table
                scenarios.extend([exc] * rows)
                continue
            scenarios.extend(recorded)
        return lambda: _tables_outcome(scenarios, reproduced, window_s,
                                       executor.spans)

    return run


def _tables_outcome(scenarios: Sequence[Any], reproduced: Sequence[Any],
                    window_s: float, spans: Any) -> Outcome:
    ops = [_failed(item) if isinstance(item, Exception)
           else {"fp": _fingerprint(item), "out": _stations(item)}
           for item in scenarios]
    rows = [row for table in reproduced for row in table.rows]
    info: Dict[str, Any] = {"sim_s": window_s * len(ops)}
    if rows:
        for component in ("radio", "mcu"):
            info[f"{component}_err_pct"] = 100 * sum(
                row.error_vs("real", component) for row in rows) / len(rows)
    if spans is not None:
        info["obs.spans"] = len(spans)
    return {"ops": ops, "info": info}


def tables_streaming(seed: int, window_s: float) -> Run:
    """Tables 1 + 2: ECG streaming, static and dynamic TDMA (9 rows)."""
    return _tables(("table1", "table2"), window_s)


def tables_rpeak(seed: int, window_s: float) -> Run:
    """Tables 3 + 4: on-node R-peak detection (9 rows)."""
    return _tables(("table3", "table4"), window_s)


def observed_table1(seed: int, window_s: float) -> Run:
    """Table 1 with metrics, profiler and spans on (``--metrics
    --profile --spans``)."""
    from repro.obs import MetricsRegistry, SimulationProfiler, SpanStore
    return _tables(("table1",), window_s, metrics=MetricsRegistry(),
                   profiler=SimulationProfiler(), spans=SpanStore())


def ward_mixed(seed: int, window_s: float) -> Run:
    """Eight 5-node BANs on one channel, all in range, MACs mixed."""
    from repro.net.multi import MultiBanScenario
    from repro.net.scenario import BanScenarioConfig
    configs = [BanScenarioConfig(mac=WARD_MACS[index % len(WARD_MACS)],
                                 app="ecg_streaming", num_nodes=5,
                                 cycle_ms=120.0, sampling_hz=55.0,
                                 measure_s=window_s, seed=seed)
               for index in range(8)]
    ward = MultiBanScenario(configs, stagger_ms=7.8, seed=seed)
    info = {"sim_s": window_s}

    def run() -> Finish:
        try:
            results = ward.run()
        except Exception as exc:  # the one operation failed
            return lambda: {"ops": [_failed(exc)], "info": info}
        collisions = ward.collisions_detected

        def finish() -> Outcome:
            bans = {name: _stations(result)
                    for name, result in sorted(results.items())}
            return {"ops": [{"fp": _fingerprint(results),
                             "out": {"bans": bans,
                                     "collisions": collisions}}],
                    "info": info}

        return finish

    return run


def lint_src(seed: int, window_s: float) -> Run:
    """``repro.lint`` over ``src/``: JSON report, one job, no cache.

    The report goes to a temporary directory beside this file (the
    benchmark writes only inside its checkout), removed once read.
    """
    from repro.lint import cli
    scratch = tempfile.TemporaryDirectory(prefix=".lint_report_", dir=HERE)
    report = Path(scratch.name) / "report.json"

    def run() -> Finish:
        try:
            # Looked up at call time so a traced run sees the wrapper.
            code = cli.main([os.path.relpath(SRC), "--format", "json",
                             "--output", str(report)])
        except Exception as exc:  # the one operation failed
            scratch.cleanup()
            return lambda: {"ops": [_failed(exc)], "info": {}}

        def finish() -> Outcome:
            with scratch:
                return _lint_outcome(code, report)

        return finish

    return run


def _lint_outcome(code: int, path: Path) -> Outcome:
    report = json.loads(path.read_text(encoding="utf-8"))
    findings = report["summary"]["total"]
    op: Dict[str, Any] = {
        "fp": hashlib.sha256(json.dumps(
            report["findings"], sort_keys=True).encode()).hexdigest(),
        "out": {"exit": code, "findings": findings}}
    if code != 0 or findings:
        op["error"] = f"lint exited {code} with {findings} finding(s)"
    return {"ops": [op],
            "info": {"lint_timings": report["analyses"]["timings"],
                     "lint_files": report["files_scanned"]}}


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("tables_streaming", 9, False, True, tables_streaming),
        Workload("tables_rpeak", 9, False, True, tables_rpeak),
        Workload("ward_mixed", 1, True, True, ward_mixed),
        Workload("observed_table1", 4, False, True, observed_table1),
        Workload("lint_src", 1, False, False, lint_src),
    )
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------
def _lint_metrics(info: Dict[str, Any], wall_s: float) -> Dict[str, float]:
    """Lint analysis shares of the traced wall, from the report timings.

    ``lint.rules_share`` is the rest of the wall time: file parsing and
    the per-file rules.
    """
    timings = info.get("lint_timings", {})
    metrics = {f"lint.{name}_share": timings.get(name, 0.0) / wall_s
               for name in LINT_ANALYSES}
    analyses_s = sum(timings.get(name, 0.0) for name in _LINT_TOP_LEVEL)
    metrics["lint.rules_share"] = (max(0.0, wall_s - analyses_s) / wall_s
                                   if timings else 0.0)
    metrics["lint.files"] = info.get("lint_files", 0)
    return metrics


def traced_layer_metrics(tracer: Any, wall_s: float,
                         info: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat, except the overhead
    ratio (which needs the untraced repeat)."""
    from boundary_trace import per_layer_metrics
    metrics = per_layer_metrics(tracer, wall_s)
    metrics["obs.spans"] = info.get("obs.spans", 0)
    metrics.update(_lint_metrics(info, wall_s))
    return metrics
