"""Tests of the end-to-end benchmark (run with ``pytest benchmarks/e2e``).

Workloads run here with a 1 s simulated window, so the whole module
takes well under a minute; the reference check only applies at the
benchmark's own window (``workloads.WINDOW_S``, 5 s).
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

import run
from boundary_trace import BoundaryTracer
from host_speed import HostSpeedMeter
from workloads import LINT_ANALYSES, WORKLOADS, traced_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WINDOW_S = 1.0
SIMULATING = [name for name, workload in WORKLOADS.items()
              if workload.simulates]


def _outcome(name: str, traced: bool
             ) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Set up and run one workload in-process; layer metrics if traced."""
    tracer = BoundaryTracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        timed = WORKLOADS[name].setup(3, WINDOW_S)
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        finish = timed()
        wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    outcome = finish()
    layers = (traced_layer_metrics(tracer, wall_s, outcome["info"])
              if tracer is not None else {})
    return outcome, layers


@pytest.fixture(scope="module")
def plain() -> Dict[str, Dict[str, Any]]:
    return {name: _outcome(name, traced=False)[0] for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced() -> Dict[str, Tuple[Dict[str, Any], Dict[str, float]]]:
    return {name: _outcome(name, traced=True) for name in SIMULATING}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_without_failures(plain, name):
    ops = plain[name]["ops"]
    assert len(ops) == WORKLOADS[name].ops
    assert [op.get("error") for op in ops] == [None] * len(ops)


@pytest.mark.parametrize("name", SIMULATING)
def test_tracing_leaves_results_unchanged(plain, traced, name):
    assert ([op["fp"] for op in traced[name][0]["ops"]]
            == [op["fp"] for op in plain[name]["ops"]])


@pytest.mark.parametrize("name", SIMULATING)
def test_layer_spans_cover_the_traced_wall(traced, name):
    assert traced[name][1]["trace.coverage"] >= run.COVERAGE_FLOOR


def test_uninstall_restores_every_entry_point():
    from repro.sim.kernel import Simulator
    from repro.signals.ecg import SyntheticEcg
    before = (Simulator.at, Simulator.run_until, SyntheticEcg.value_at)
    tracer = BoundaryTracer()
    tracer.install()
    assert Simulator.at is not before[0]
    tracer.uninstall()
    assert (Simulator.at, Simulator.run_until,
            SyntheticEcg.value_at) == before


def test_host_speed_meter_leaves_out_its_samples_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    meter = HostSpeedMeter()
    meter.start()
    began = time.perf_counter()
    while time.perf_counter() - began < 0.2:
        pass
    wall_s, corrected_s = meter.lap()
    meter.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    # ~20 samples of >= 0.1 ms each fell inside the 0.2 s busy loop.
    assert 0.1 < wall_s < 0.2
    assert 0.2 * wall_s < corrected_s < 5 * wall_s


def test_lint_reports_every_analysis_and_no_findings(plain):
    outcome = plain["lint_src"]
    assert set(outcome["info"]["lint_timings"]) >= set(LINT_ANALYSES)
    assert outcome["ops"][0]["out"] == {"exit": 0, "findings": 0}


def test_lint_leaves_no_report_behind(plain):
    assert not list(HERE.glob(".lint_report_*"))


def test_perturbed_reference_fails_exactly_one_operation(plain):
    workload = WORKLOADS["tables_rpeak"]
    record = {"ops": plain["tables_rpeak"]["ops"]}
    entry = {"ops": [op["out"] for op in record["ops"]]}
    assert run.count_failures(workload, [record], entry) == 0
    energy = copy.deepcopy(entry)
    station = next(iter(energy["ops"][3]))
    energy["ops"][3][station][0] *= 1 + 1e-6
    assert run.count_failures(workload, [record], energy) == 1
    traffic = copy.deepcopy(entry)
    traffic["ops"][5][station][2] += 1
    assert run.count_failures(workload, [record], traffic) == 1


def test_fingerprint_disagreement_between_repeats_fails(plain):
    workload = WORKLOADS["tables_rpeak"]
    first = {"ops": plain["tables_rpeak"]["ops"]}
    second = copy.deepcopy(first)
    second["ops"][0]["fp"] = "0" * 64
    assert run.count_failures(workload, [first, second, None], None) \
        == 1 + workload.ops


def test_printed_metrics_match_the_benchmark_spec(monkeypatch, capsys):
    """The two modes together print every metric BENCHMARK.json declares,
    each mode exactly its own half, as one result object per run."""
    monkeypatch.setattr(run, "WINDOW_S", WINDOW_S)
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        code = run.main(["--workload", "ward_mixed", "--seconds", "0",
                         "--trace", trace])
        printed = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("{") for line in printed) == 1
        result = json.loads(printed[-1])
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert code == 0
        assert result["correct"] and result["failed"] == 0
        assert {name: metric["unit"] for name, metric
                in result["metrics"].items()} == declared
        shown = {line.split()[0]: line.split()[-1] for line in printed
                 if line.startswith("  ") and line.split()[0] in declared}
        assert shown == declared


@pytest.mark.parametrize("argv", [["--trace", "0"],
                                  ["--workload", "ward_mixed"], []])
def test_workload_and_mode_are_required(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        run.main(argv)
    assert exited.value.code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "tables_rpeak", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        check=False)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
