#!/usr/bin/env python3
"""Fault-injection and crash-isolation smoke test for CI.

Two checks, both deterministic:

1. **Fault injection** — a two-node scenario takes a crash+reboot on
   one node and a beacon-loss burst on the other (the CI job also
   exercises the same plan through ``python -m repro run --faults``).
   Both nodes must end the run synchronised and the injector's
   counters must show every fault fired.

2. **Crash isolation** — a three-config batch whose middle config
   deterministically fails to join is executed with
   ``isolate_errors=True``, sequentially and pooled.  Both runs must
   return the two valid results plus one structured
   :class:`ErrorResult` in the failing slot, and must be equal.

The collected fault counters and failure summaries are written as a
JSON artifact (``--out``) so every CI run leaves an inspectable record
of what failed and how it was contained.  Exits non-zero if any
invariant breaks.

Usage::

    PYTHONPATH=src python tools/fault_smoke.py --jobs 2 \
        --out fault-smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.exec import ErrorResult, failures, run_configs
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


def check_crash_isolation(jobs: int) -> list:
    """One failing config must not discard its siblings' results."""
    bad = _config(num_slots=1, join_protocol=True, join_deadline_s=0.5,
                  seed=2)
    configs = [_config(seed=1), bad, _config(seed=3)]
    sequential = run_configs(configs, jobs=1, isolate_errors=True)
    pooled = run_configs(configs, jobs=jobs, isolate_errors=True)
    assert sequential == pooled, \
        "jobs=1 and pooled runs disagree under failure isolation"
    errors = failures(pooled)
    assert len(errors) == 1 and errors[0].index == 1, errors
    valid = [r for r in pooled if not isinstance(r, ErrorResult)]
    assert len(valid) == len(configs) - 1, \
        "sibling results were lost alongside the failure"
    return [error.summary() for error in errors]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="pool size for the isolation check")
    parser.add_argument("--out", metavar="PATH",
                        default="fault-smoke.json",
                        help="where to write the JSON artifact")
    args = parser.parse_args(argv)

    report = {
        "fault_spec": FAULT_SPEC,
        "fault_counters": check_fault_injection(),
        "isolation_jobs": args.jobs,
        "isolated_failures": check_crash_isolation(args.jobs),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"fault smoke OK -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
