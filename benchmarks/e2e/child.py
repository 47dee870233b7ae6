"""One repeat of one workload, in a fresh process.

``run.py`` starts every repeat as::

    python3 benchmarks/e2e/child.py --workload NAME --seed N \
        --window-s 5 --trace 0|1

The child sets the workload up, runs it once, and prints one JSON line:
set-up and timed-phase seconds, peak RSS, one record per operation (a
result fingerprint plus the outputs the reference check compares),
workload info (simulated seconds, error against the paper's Real
column, lint timings) and, with ``--trace 1``, the per-layer metrics of
:mod:`boundary_trace`.

Set-up runs from the start of :func:`main` until the workload is ready:
the imports of the workloads and of ``repro``, configs, scenario
construction.  Times come in two forms: program wall seconds
(``setup_wall_s``, ``wall_s``) and host-speed-corrected seconds
(``setup_s``, ``run_s``; see :mod:`host_speed`).  A traced repeat does
not sample the host's speed, so that the samples do not land in the
layers' self times; only its wall seconds count.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from typing import Sequence

from host_speed import HostSpeedMeter


def main(argv: Sequence[str] = ()) -> int:
    """Set up, run and report one repeat of one workload."""
    meter = HostSpeedMeter()
    meter.start()
    try:
        return _repeat(meter, argv)
    finally:
        meter.stop()


def _repeat(meter: HostSpeedMeter, argv: Sequence[str]) -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window-s", type=float, default=workloads.WINDOW_S)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        meter.stop()
        from boundary_trace import BoundaryTracer
        tracer = BoundaryTracer()
        tracer.install()
    run = workload.setup(args.seed, args.window_s)
    setup_wall_s, setup_s = meter.lap()
    import repro
    if Path(repro.__file__).resolve().parents[1] != workloads.SRC:
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {workloads.SRC}")
    if tracer is not None:
        tracer.reset()
    meter.lap()
    finish = run()
    wall_s, run_s = meter.lap()
    meter.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    outcome = finish()
    record = {"setup_wall_s": setup_wall_s, "setup_s": setup_s,
              "wall_s": wall_s, "run_s": run_s, "rss_mb": rss_mb,
              **outcome}
    if tracer is not None:
        record["layers"] = workloads.traced_layer_metrics(
            tracer, wall_s, outcome["info"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
