#!/usr/bin/env python3
"""Fault-injection and failing-batch smoke test for CI.

Two checks, both deterministic:

1. **Fault injection** — a two-node scenario takes a crash+reboot on
   one node and a beacon-loss burst on the other (the CI job also
   exercises the same plan through ``python -m repro run --faults``).
   Both nodes must end the run synchronised and the injector's
   counters must show every fault fired.

2. **Failing batch** — a three-config batch whose middle config
   deterministically fails to join is executed sequentially and
   pooled.  Both runs must fail with the scenario's own
   ``RuntimeError``, with the same type and message.

The collected fault counters and the batch failure are written as a
JSON artifact (``--out``) so every CI run leaves an inspectable record
of what failed.  Exits non-zero if any invariant breaks.

Usage::

    PYTHONPATH=src python tools/fault_smoke.py --jobs 2 \
        --out fault-smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.exec import ScenarioExecutor
from repro.faults import parse_fault_spec
from repro.mac import RecoveryConfig
from repro.net import BanScenario, BanScenarioConfig

FAULT_SPEC = ("crash,node=node1,at=0.4,reboot=0.5; "
              "beacons,node=node2,at=0.8,count=4")


def _config(**overrides) -> BanScenarioConfig:
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=2,
                    cycle_ms=30.0, measure_s=2.0, seed=11)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


def check_fault_injection() -> dict:
    """Crash + beacon burst: every fault fires, every node recovers."""
    scenario = BanScenario(_config(
        faults=parse_fault_spec(FAULT_SPEC),
        recovery=RecoveryConfig()))
    scenario.run()
    summary = scenario.fault_injector.summary()
    assert summary["node1"]["crashes"] == 1, summary
    assert summary["node1"]["reboots"] == 1, summary
    assert summary["node2"]["beacon_bursts"] == 1, summary
    for node in scenario.nodes:
        assert node.mac.started and node.mac.is_synced, \
            f"{node.node_id} did not recover"
    return summary


def _batch_failure(configs: list, jobs: int) -> dict:
    """Run a batch that must fail; return its error's type and message."""
    try:
        ScenarioExecutor(jobs=jobs).run_configs(configs)
    except RuntimeError as exc:
        return {"error_type": type(exc).__name__, "message": str(exc)}
    raise AssertionError(f"jobs={jobs}: the failing batch did not raise")


def check_failing_batch(jobs: int) -> dict:
    """One failing config fails its batch with its own error."""
    bad = _config(num_slots=1, join_protocol=True, join_deadline_s=0.5,
                  seed=2)
    configs = [_config(seed=1), bad, _config(seed=3)]
    sequential = _batch_failure(configs, jobs=1)
    pooled = _batch_failure(configs, jobs=jobs)
    assert sequential == pooled, \
        f"jobs=1 and pooled runs fail differently: {sequential} {pooled}"
    assert sequential["error_type"] == "RuntimeError", sequential
    assert "failed to join" in sequential["message"], sequential
    return sequential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool size for the failing-batch check")
    parser.add_argument("--out", metavar="PATH",
                        default="fault-smoke.json",
                        help="where to write the JSON artifact")
    args = parser.parse_args(argv)

    report = {
        "fault_spec": FAULT_SPEC,
        "fault_counters": check_fault_injection(),
        "batch_jobs": args.jobs,
        "batch_failure": check_failing_batch(args.jobs),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"fault smoke OK -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
