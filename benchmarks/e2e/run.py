"""End-to-end benchmark of the BAN energy simulator.

One invocation runs one workload named in ``BENCHMARK.json``, in one
of its two modes::

    python3 benchmarks/e2e/run.py --workload NAME --trace 0|1
        [--seed N] [--seconds S]

Each repeat of a workload is a fresh process (``child.py``), one at a
time, with ``jobs=1``.  Repeats continue until the ``--seconds`` budget
would be exceeded (at least two; the reported values are medians).
Times are host-speed-corrected seconds (``host_speed.py``); the program
wall seconds are printed beside them.

``--trace 0`` reports every end-to-end metric; ``--trace 1`` runs one
untraced repeat and then traced repeats, and reports every per-layer
metric (see ``boundary_trace.py``).  Both flags are required: there is
no default mode that reports half of the metrics.  Every metric is
printed by name with its unit, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` for
that workload.

An operation (one scenario, one multi-BAN run, one lint run) fails when
it raises, when its result fingerprint differs between the repeats of
the run (traced and untraced alike), or when its outputs differ from
``reference_seed0.json``.  The exit code is non-zero when any operation
failed or a check did not hold.

``--write-reference`` regenerates ``reference_seed0.json`` from one
untraced seed-0 repeat of every simulating workload.
"""

from __future__ import annotations

import argparse
import compileall
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import WINDOW_S, WORKLOADS, Workload  # noqa: E402

REFERENCE = HERE / "reference_seed0.json"
#: Fewest repeats per run.  Two, so that a run of ``lint_src``, whose
#: repeats take 5-10 s of wall time, stays within its budget; its
#: corrected times spread by ~2 % from repeat to repeat.
MIN_REPEATS = 2
#: A child that takes longer than this has hung (the longest repeat,
#: lint, takes 5-10 s).
CHILD_TIMEOUT_S = 40
#: Relative tolerance on energies, the rule of ``analysis/golden.py``.
ENERGY_REL_TOL = 1e-9
#: Least share of the traced wall time the layer spans must cover.
COVERAGE_FLOOR = 0.95

Record = Optional[Dict[str, Any]]


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def warm_bytecode() -> None:
    """Compile ``src/`` and the benchmark to bytecode (git ignores the
    ``__pycache__`` directories).  Children then import from bytecode
    whether or not the environment lets Python write it, so no timed
    set-up compiles a module, not even in a checkout's first run."""
    for directory in (ROOT / "src", HERE):
        compileall.compile_dir(directory, quiet=1)


def spawn(workload: Workload, seed: int, trace: bool) -> Record:
    """Run one repeat in a fresh process; None when it failed."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload.name, "--seed", str(seed),
               "--window-s", repr(WINDOW_S), "--trace", str(int(trace))]
    try:
        child = subprocess.run(command, cwd=ROOT,
                               capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload.name}: repeat timed out\n")
        return None
    if child.returncode != 0:
        sys.stderr.write(f"{workload.name}: repeat exited "
                         f"{child.returncode}\n{child.stderr[-4000:]}")
        return None
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"{workload.name}: unreadable repeat output\n")
        return None


def repeats(workload: Workload, seed: int, trace: bool, seconds: float,
            minimum: int, started: float) -> List[Record]:
    """Repeat while another repeat still fits in ``seconds``; at least
    ``minimum`` times, unless those would take four budgets."""
    records: List[Record] = []
    while True:
        records.append(spawn(workload, seed, trace))
        elapsed = time.perf_counter() - started
        if (elapsed + elapsed / len(records) > seconds
                and (len(records) >= minimum or elapsed > 4 * seconds)):
            return records


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def matches(got: Any, want: Any) -> bool:
    """Equal structure; floats within ENERGY_REL_TOL, the rest exact."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[key], want[key]) for key in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    if isinstance(want, float):
        return (isinstance(got, (int, float))
                and abs(got - want) <= ENERGY_REL_TOL
                * max(abs(want), 1e-12))
    return type(got) is type(want) and got == want


def load_reference() -> Dict[str, Any]:
    """The committed reference outputs."""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def reference_for(workload: Workload, seed: int,
                  reference: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The reference entry that applies to this run, if any."""
    entry = reference["workloads"].get(workload.name)
    if entry is None or reference["window_s"] != WINDOW_S:
        return None
    if workload.seeded and seed != reference["seed"]:
        return None
    return entry


def count_failures(workload: Workload, records: Sequence[Record],
                   entry: Optional[Dict[str, Any]]) -> int:
    """Failed operations across the repeats of one run.

    The first result of each operation fixes its fingerprint and is
    compared with the reference; every later repeat must reproduce that
    fingerprint, and shares the first result's verdict.
    """
    failed = 0
    verdicts: List[Optional[Tuple[str, bool]]] = [None] * workload.ops
    for record in records:
        if record is None or len(record["ops"]) != workload.ops:
            failed += workload.ops
            continue
        for index, op in enumerate(record["ops"]):
            if "error" in op:
                failed += 1
                continue
            verdict = verdicts[index]
            if verdict is None:
                verdict = verdicts[index] = (
                    op["fp"], entry is None
                    or matches(op["out"], entry["ops"][index]))
            if op["fp"] != verdict[0] or not verdict[1]:
                failed += 1
    return failed


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _median(records: Sequence[Dict[str, Any]], key: str) -> float:
    return statistics.median(record[key] for record in records)


def end_to_end(records: Sequence[Dict[str, Any]]
               ) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics (medians over repeats) and info lines."""
    metrics = {"run_s": _median(records, "run_s"),
               "setup_s": _median(records, "setup_s"),
               "peak_rss_mb": _median(records, "rss_mb")}
    walls = sorted(record["wall_s"] for record in records)
    info = [f"{len(walls)} repeats, program wall s: median "
            f"{statistics.median(walls):.4f}, min {walls[0]:.4f}, "
            f"max {walls[-1]:.4f}; set-up median "
            f"{_median(records, 'setup_wall_s'):.4f}"]
    sim_s = records[0]["info"].get("sim_s")
    if sim_s:
        info.append(f"sim_rate {sim_s / metrics['run_s']:.2f} "
                    f"simulated s / run_s ({sim_s:g} s simulated)")
    for key in ("radio_err_pct", "mcu_err_pct"):
        if key in records[0]["info"]:
            info.append(f"{key} {records[0]['info'][key]:.4f} % "
                        f"(mean |ours - Real| / Real)")
    return metrics, info


def per_layer(workload: Workload, untraced: Dict[str, Any],
              traced: Sequence[Dict[str, Any]]
              ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics (medians over traced repeats) and problems."""
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(record["layers"][name]
                                       for record in traced)
               for name in names}
    metrics["trace.overhead_ratio"] = (_median(traced, "wall_s")
                                       / untraced["wall_s"])
    problems = []
    if workload.simulates and metrics["trace.coverage"] < COVERAGE_FLOOR:
        problems.append(f"trace.coverage {metrics['trace.coverage']:.4f} "
                        f"< {COVERAGE_FLOOR}")
    return metrics, problems


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool, spec: Dict[str, Any],
                 reference: Dict[str, Any]) -> Dict[str, Any]:
    """Run, check and report one workload; returns the result object."""
    started = time.perf_counter()
    if trace:
        first = spawn(workload, seed, trace=False)
        records = [first] + repeats(workload, seed, True, seconds, 1,
                                    started)
    else:
        records = repeats(workload, seed, False, seconds, MIN_REPEATS,
                          started)
    entry = reference_for(workload, seed, reference)
    failed = count_failures(workload, records, entry)
    done = [record for record in records if record is not None]
    metrics: Dict[str, float] = {}
    info: List[str] = []
    problems: List[str] = []
    if trace and records[0] is not None and len(done) > 1:
        metrics, more = per_layer(workload, records[0], done[1:])
        problems += more
    elif not trace and done:
        metrics, info = end_to_end(done)
    else:
        problems.append("no repeat completed")
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if trace else "end_to_end"]}
    if metrics and metrics.keys() != units.keys():
        raise SystemExit(f"{workload.name}: metrics differ from "
                         f"BENCHMARK.json: "
                         f"{sorted(metrics.keys() ^ units.keys())}")
    print(f"{workload.name}  seed={seed}  repeats={len(records)}  "
          f"ops={workload.ops * len(records)}  failed={failed}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for line in info + problems:
        print(f"  {line}")
    return {"correct": failed == 0 and not problems,
            "attempted": workload.ops * len(records),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def write_reference() -> int:
    """Record seed-0 outputs of every simulating workload."""
    workloads: Dict[str, Any] = {}
    for workload in WORKLOADS.values():
        if not workload.simulates:
            continue
        record = spawn(workload, 0, trace=False)
        if record is None or any("error" in op for op in record["ops"]):
            sys.stderr.write(f"{workload.name}: failed, no reference\n")
            return 1
        workloads[workload.name] = {"ops": [op["out"]
                                            for op in record["ops"]]}
    REFERENCE.write_text(json.dumps({"seed": 0, "window_s": WINDOW_S,
                                     "workloads": workloads}, indent=1)
                         + "\n", encoding="utf-8")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the requested workloads, report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="time budget of the workload's repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference_seed0.json and exit")
    args = parser.parse_args(argv)
    if not args.write_reference and (args.workload is None
                                     or args.trace is None):
        parser.error("--workload and --trace are required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro sources under {ROOT / 'src'}\n")
        return 2
    warm_bytecode()
    if args.write_reference:
        return write_reference()
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), spec, load_reference())
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # Turn SIGTERM into an exception so subprocess.run kills the child.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
