#!/usr/bin/env python3
"""Dynamic determinism smoke: the invariant the static rules guard.

``repro.lint`` statically bans the things that *would* break bit-exact
reproducibility (global RNG, wall-clock reads, set-ordered dispatch);
this tool proves the invariant actually holds end to end.  Six
checks, each over a reference scenario set:

1. **Repeat-run** — the same config run twice in one process must
   produce an identical energy result *and* an identical event trace
   (every dispatched ``(tick, source, kind, detail)`` record).
2. **Parallel-equals-sequential** — a mixed batch executed with
   ``jobs=1`` and ``jobs=2`` must produce identical per-config result
   fingerprints in the same order.
3. **Merged counters** — the executor's merged telemetry counters and
   state timers (sim-time quantities; wall-clock histograms/gauges are
   explicitly out of scope) must be equal for ``jobs=1`` and
   ``jobs=2``.
4. **Causal spans** — attaching a span tracer must not perturb the
   run: traced, the result and trace fingerprints equal the spans-off
   run's; untraced, the result fingerprint and ``events_dispatched``
   do, so a tracer keeps the coalesced path of a plain run, and its
   span set equals the traced run's.  The span set must be
   bit-identical across repeat runs, and the merged ``--jobs N`` span
   store must equal the sequential one.
5. **Static/runtime hook agreement** (``--static-obs``) — the
   interprocedural OBS pass (``repro.lint``) must be clean over
   ``src``, and the set of classes it audited as carrying ``spans``
   hook guards must agree with the classes the runtime
   ``attach_span_tracer`` actually wires: every audited-and-
   instantiated class receives the tracer, and every class that
   receives it is audited.  Together with check 4 this closes the
   loop — the perturbation test exercises exactly the hook surface
   the static pass proved effect-free.
6. **Cross-mode** — a plain run coalesces idle-MCU samples (one
   kernel event per sample, planned ledger transitions); a traced run
   takes the per-sample chain, the reference path, because its trace
   lists every dispatch.  For every checked config plus two
   fault configs, one whose crash and reboot land mid-sample and one
   whose crash lands inside a sample's wake-up, the two result
   fingerprints must be equal.

Every check runs the reference configs (one per MAC family, plus
extra apps) and two fault configs whose crash lands inside a
ShockBurst: a contention one, and a static-TDMA one that also reboots
inside the burst.  So each check also reaches the radio's deferred
release and the reboot that waits for it.  A hidden-terminal CSMA
config adds a partial topology and a lossy channel, so each check also
covers per-receiver loss draws and audiences smaller than the network.

Fingerprints are SHA-256 over the canonical dataclass encoding
(:func:`repro.exec.cache.config_fingerprint`), so "equal" means equal
to the last bit of every float.  A JSON artifact (``--out``) records
every fingerprint for offline diffing; the exit code is non-zero on
any divergence.

Usage::

    PYTHONPATH=src python tools/determinism_check.py --jobs 2 \
        --out determinism.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from typing import Any, Dict, List, Tuple

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.exec import ScenarioExecutor
from repro.exec.cache import config_fingerprint
from repro.faults import FaultPlan, NodeCrash
from repro.net import BanScenario, BanScenarioConfig
from repro.obs import MetricsRegistry, SpanStore, attach_span_tracer
from repro.phy.lossmodels import UniformLoss
from repro.phy.topology import BodyTopology, Position
from repro.sim.simtime import TICKS_PER_SECOND, microseconds, seconds
from repro.sim.trace import TraceRecorder


def reference_configs() -> List[BanScenarioConfig]:
    """A small batch covering distinct MACs, apps and seeds."""
    return [
        BanScenarioConfig(mac="static", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=7),
        BanScenarioConfig(mac="dynamic", app="eeg_streaming",
                          num_nodes=2, measure_s=2.0, seed=11),
        BanScenarioConfig(mac="static", app="rpeak", num_nodes=2,
                          measure_s=2.0, seed=13,
                          clock_skew_ppm=40.0),
        BanScenarioConfig(mac="csma", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=17,
                          sampling_hz=205.0),
        BanScenarioConfig(mac="aloha", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=23,
                          sampling_hz=205.0),
        # Noisy ECG (a MixSource over a HashNoiseSource) into the
        # adaptive app, fast enough to raise a tachycardia alarm and
        # stream raw codes.
        BanScenarioConfig(mac="dynamic", app="adaptive", num_nodes=2,
                          measure_s=3.0, seed=19, ecg_noise_mv=0.05,
                          heart_rate_bpm=140.0),
    ]


def _node1_crash(config: BanScenarioConfig, crash: int,
                 reboot_after_s: float) -> BanScenarioConfig:
    """``config`` with node1 crashing at tick ``crash``."""
    plan = FaultPlan((NodeCrash(node="node1",
                                at_s=crash / TICKS_PER_SECOND,
                                reboot_after_s=reboot_after_s),))
    return replace(config, faults=plan)


def _sample_grid(config: BanScenarioConfig) -> Tuple[int, int]:
    """(sampling period, MCU wake-up) in ticks.

    Every node samples on the same grid from t=0; a sample's wake-up
    takes 6 us and its two-channel task 44 us after that.
    """
    period = round(TICKS_PER_SECOND / config.derived_sampling_hz())
    return period, seconds(DEFAULT_CALIBRATION.mcu_wakeup_s)


def fault_config() -> BanScenarioConfig:
    """Reference config 0 with node1 crashing inside one of its samples
    and rebooting inside a sample of the other nodes."""
    config = reference_configs()[0]
    period, wake = _sample_grid(config)
    crash = 101 * period + wake + 10_000  # 10 us into the task
    reboot = 160 * period + wake // 2     # halfway through the wake-up
    return _node1_crash(config, crash, (reboot - crash) / TICKS_PER_SECOND)


def wakeup_fault_config() -> BanScenarioConfig:
    """Reference config 0 with node1 crashing halfway through the
    wake-up of one of its samples and rebooting 0.3 s later.

    The crash drops the sample it woke for, which the coalesced run
    has already planned on the ledger.
    """
    config = reference_configs()[0]
    period, wake = _sample_grid(config)
    return _node1_crash(config, 101 * period + wake // 2, 0.3)


def _crash_in_burst(config: BanScenarioConfig, into_us: float,
                    reboot_after_s: float) -> BanScenarioConfig:
    """``config`` with node1 crashing ``into_us`` into its first
    ShockBurst at or after 1 s, located from a traced pre-run."""
    trace = TraceRecorder()
    BanScenario(config, trace=trace).run()
    burst = next(record.time for record in trace
                 if record.source == "node1.radio"
                 and record.kind == "tx_start"
                 and record.time >= seconds(1.0))
    return _node1_crash(config, burst + microseconds(into_us),
                        reboot_after_s)


def contention_fault_config() -> BanScenarioConfig:
    """The CSMA reference config with node1 crashing 100 us into one of
    its ShockBursts and rebooting half a poll interval later.

    The crash stops the MAC mid-burst, so the radio's release waits for
    the burst's end; the reboot lands before the poll that was pending
    at the crash.
    """
    config = next(c for c in reference_configs() if c.mac == "csma")
    return _crash_in_burst(config, 100, config.cycle_ms / 2e3)


def reboot_fault_config() -> BanScenarioConfig:
    """The static reference config with node1 crashing 300 us into one
    of its ShockBursts and rebooting 50 us later, with the burst still
    on the air: the restart waits for the burst's last tick."""
    return _crash_in_burst(reference_configs()[0], 300, 50e-6)


def hidden_terminal_config() -> BanScenarioConfig:
    """The CSMA reference config with node1 and node3 out of each
    other's range (0.6 m radio range, 0.8 m apart) on a 5 % lossy
    channel: both reach the base station and node2, so their carrier
    sense misses each other and their frames collide there."""
    config = next(c for c in reference_configs() if c.mac == "csma")
    topology = BodyTopology({"base_station": Position(0.0, 1.0),
                             "node1": Position(-0.4, 1.1),
                             "node2": Position(0.0, 1.35),
                             "node3": Position(0.4, 1.1)}, range_m=0.6)
    return replace(config, topology=topology,
                   loss_model=UniformLoss(0.05))


def checked_configs() -> List[BanScenarioConfig]:
    """What checks 1-6 run: the reference configs, the two mid-burst
    fault configs and the hidden-terminal config."""
    return reference_configs() + [contention_fault_config(),
                                  reboot_fault_config(),
                                  hidden_terminal_config()]


def result_fingerprint(result: Any) -> str:
    """SHA-256 of the canonical (bit-exact) result encoding."""
    text = config_fingerprint(result)
    return hashlib.sha256(text.encode()).hexdigest()


def traced_run(config: BanScenarioConfig, spans: bool = False
               ) -> Tuple[str, str, str]:
    """Run once with tracing; return (result_fp, trace_fp, span_fp).

    ``span_fp`` is the span-store fingerprint when ``spans`` is set
    and ``""`` otherwise.
    """
    trace = TraceRecorder()
    scenario = BanScenario(config, trace=trace)
    tracer = attach_span_tracer(scenario) if spans else None
    result = scenario.run()
    digest = hashlib.sha256()
    for record in trace:
        digest.update(
            f"{record.time}|{record.source}|{record.kind}|"
            f"{record.detail}\n".encode())
    span_fp = tracer.store.fingerprint() if tracer is not None else ""
    return result_fingerprint(result), digest.hexdigest(), span_fp


def untraced_run(config: BanScenarioConfig, spans: bool = False
                 ) -> Tuple[str, int, str]:
    """Run once without a trace; return (result_fp, events_dispatched,
    span_fp), ``span_fp`` as in :func:`traced_run`."""
    scenario = BanScenario(config)
    tracer = attach_span_tracer(scenario) if spans else None
    result = scenario.run()
    span_fp = tracer.store.fingerprint() if tracer is not None else ""
    return (result_fingerprint(result), scenario.sim.events_dispatched,
            span_fp)


def check_repeat_run(report: Dict[str, Any]) -> List[str]:
    """Check 1: same config, same process, twice — identical.

    Every reference config is exercised, so each MAC family (including
    the contention ones, whose backoff/jitter draws are the likeliest
    determinism hazard) proves repeatability separately.
    """
    failures = []
    entries = []
    for index, config in enumerate(checked_configs()):
        first = traced_run(config)
        second = traced_run(config)
        entries.append({
            "mac": config.mac,
            "result_fingerprints": [first[0], second[0]],
            "trace_fingerprints": [first[1], second[1]],
        })
        if first[0] != second[0]:
            failures.append(
                f"repeat-run energy results diverge "
                f"(config {index}, mac={config.mac})")
        if first[1] != second[1]:
            failures.append(
                f"repeat-run event traces diverge "
                f"(config {index}, mac={config.mac})")
    report["repeat_run"] = {"configs": entries}
    return failures


def check_jobs_equivalence(jobs: int, report: Dict[str, Any]
                           ) -> List[str]:
    """Checks 2+3: pooled results and merged counters == sequential."""
    failures = []
    configs = checked_configs()

    sequential_metrics = MetricsRegistry()
    sequential = ScenarioExecutor(
        jobs=1, metrics=sequential_metrics).run_configs(configs)
    pooled_metrics = MetricsRegistry()
    pooled = ScenarioExecutor(
        jobs=jobs, metrics=pooled_metrics).run_configs(configs)

    sequential_fps = [result_fingerprint(r) for r in sequential]
    pooled_fps = [result_fingerprint(r) for r in pooled]
    report["jobs_equivalence"] = {
        "jobs": jobs,
        "sequential": sequential_fps,
        "pooled": pooled_fps,
    }
    for index, (left, right) in enumerate(zip(sequential_fps,
                                              pooled_fps)):
        if left != right:
            failures.append(
                f"config {index}: jobs=1 and jobs={jobs} results "
                "diverge")

    # Sim-time telemetry must merge to equality; wall-clock figures
    # (histograms, gauges) legitimately differ run to run.
    deterministic_keys = ("counters", "state_timers")
    sequential_snapshot = sequential_metrics.snapshot()
    pooled_snapshot = pooled_metrics.snapshot()
    counters = {}
    for key in deterministic_keys:
        left, right = sequential_snapshot[key], pooled_snapshot[key]
        counters[key] = {"equal": left == right}
        if left != right:
            diff = {name for name in set(left) | set(right)
                    if left.get(name) != right.get(name)}
            counters[key]["diverging"] = sorted(diff)[:20]
            failures.append(
                f"merged {key} diverge between jobs=1 and "
                f"jobs={jobs}: {sorted(diff)[:5]}")
    report["merged_telemetry"] = counters
    return failures


def check_spans(jobs: int, report: Dict[str, Any]) -> List[str]:
    """Check 4: spans neither perturb nor vary (repeat + jobs merge).

    The perturbation check runs per reference config: the span hooks
    sit on different code paths per MAC family (TDMA slot machinery vs
    contention backoff/CCA phases), so one family passing proves
    nothing about the others.  It runs traced, where both sides take
    the per-task chain, and untraced, where a tracer must not move the
    run off the coalesced path.
    """
    failures = []
    configs = checked_configs()
    entries = []
    for index, config in enumerate(configs):
        base = traced_run(config)
        first = traced_run(config, spans=True)
        second = traced_run(config, spans=True)
        plain = untraced_run(config)
        observed = untraced_run(config, spans=True)
        entries.append({
            "mac": config.mac,
            "result_fingerprints": [base[0], first[0], second[0]],
            "trace_fingerprints": [base[1], first[1], second[1]],
            "span_fingerprints": [first[2], second[2], observed[2]],
            "untraced_result_fingerprints": [plain[0], observed[0]],
            "untraced_events_dispatched": [plain[1], observed[1]],
        })
        where = f"(config {index}, mac={config.mac})"
        if (base[0], base[1]) != (first[0], first[1]):
            failures.append(
                "attaching spans perturbs the run (result or trace "
                f"fingerprint changed) {where}")
        if plain[:2] != observed[:2]:
            failures.append(
                "attaching spans perturbs the untraced run (result "
                f"fingerprint or events dispatched changed) {where}")
        if observed[2] != first[2]:
            failures.append(
                f"untraced and traced span sets diverge {where}")
        if first[:2] != second[:2]:
            failures.append(f"spans-enabled repeat runs diverge {where}")
        if first[2] != second[2]:
            failures.append(f"repeat-run span sets diverge {where}")
    report["spans"] = {"configs": entries}
    merged: Dict[int, str] = {}
    for worker_count in (1, jobs):
        store = SpanStore()
        ScenarioExecutor(jobs=worker_count,
                         spans=store).run_configs(configs)
        merged[worker_count] = store.fingerprint()
    report["spans"]["jobs_span_fingerprints"] = {
        str(worker_count): fingerprint
        for worker_count, fingerprint in sorted(merged.items())}
    if merged[1] != merged[jobs]:
        failures.append(
            f"merged span sets diverge between jobs=1 and jobs={jobs}")
    return failures


def check_cross_mode(report: Dict[str, Any]) -> List[str]:
    """Check 6: coalesced sampling == the per-sample chain.

    The per-sample run is the traced run of check 1 (a trace selects
    that path); the coalesced run is the same config untraced.
    """
    failures = []
    entries = []
    cases = [(f"config {index}, mac={config.mac}", config)
             for index, config in enumerate(checked_configs())]
    cases.append(("fault config, crash and reboot mid-sample",
                  fault_config()))
    cases.append(("fault config, crash inside a wake-up",
                  wakeup_fault_config()))
    for where, config in cases:
        coalesced = untraced_run(config)[0]
        per_sample = traced_run(config)[0]
        entries.append({"case": where,
                        "result_fingerprints": [coalesced, per_sample]})
        if coalesced != per_sample:
            failures.append(
                f"coalesced and per-sample results diverge ({where})")
    report["cross_mode"] = {"configs": entries}
    return failures


def _runtime_object_graph(scenario: Any) -> List[Any]:
    """Every repro-package object reachable from ``scenario``."""
    seen: Dict[int, Any] = {}
    queue = [scenario]
    while queue:
        obj = queue.pop()
        if id(obj) in seen:
            continue
        module = type(obj).__module__ or ""
        if not module.startswith("repro."):
            if isinstance(obj, dict):
                queue.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                queue.extend(obj)
            continue
        seen[id(obj)] = obj
        try:
            queue.extend(vars(obj).values())
        except TypeError:
            pass
    return list(seen.values())


def check_static_obs(report: Dict[str, Any]) -> List[str]:
    """Check 5: static OBS audit == runtime span-hook surface.

    Statically: lint ``src`` and require zero unsuppressed OBS
    findings, collecting the classes the effect pass audited as
    guarding on ``spans``.  Dynamically: attach
    a tracer to every reference scenario and walk its object graph for
    the classes that actually received it.  The two sets must agree on
    the instantiated surface in both directions.
    """
    from pathlib import Path

    from repro.lint import lint_paths
    from repro.obs import attach_span_tracer as attach

    failures: List[str] = []
    src = Path(__file__).resolve().parent.parent / "src"
    lint_report = lint_paths([src])
    obs_findings = [f for f in lint_report.findings
                    if f.rule.startswith("OBS") and not f.suppressed]
    for finding in obs_findings:
        failures.append(
            f"static OBS pass not clean: {finding.rule} "
            f"{finding.path}:{finding.line}")
    hooks = lint_report.extras["effects"]["hooks"]
    static_guarded = {guard["class"] for guard in hooks["span_guards"]
                      if guard["attr"] == "spans" and guard["class"]}

    # The static audit anchors each guard at the class that *defines*
    # it; the runtime graph holds concrete subclasses.  Compare through
    # the MRO so ``StaticTdmaBaseMac`` matches its guard on
    # ``BaseStationMac``.
    instantiated: set = set()
    runtime_hooked: set = set()
    hooked_unaudited_set: set = set()
    for config_obj in checked_configs():
        scenario = BanScenario(config_obj)
        tracer = attach(scenario)
        for obj in _runtime_object_graph(scenario):
            mro = {cls.__name__ for cls in type(obj).__mro__}
            instantiated.update(mro)
            if getattr(obj, "spans", None) is tracer:
                runtime_hooked.update(mro & static_guarded)
                if not (mro & static_guarded):
                    hooked_unaudited_set.add(type(obj).__name__)

    audited_unreached = sorted(
        (static_guarded & instantiated) - runtime_hooked)
    hooked_unaudited = sorted(hooked_unaudited_set)
    report["static_obs"] = {
        "obs_findings": len(obs_findings),
        "static_guard_classes": sorted(static_guarded),
        "runtime_hooked_classes": sorted(runtime_hooked),
        "audited_but_not_attached": audited_unreached,
        "attached_but_not_audited": hooked_unaudited,
    }
    if audited_unreached:
        failures.append(
            "statically audited spans-guard classes never receive the "
            f"tracer at runtime: {audited_unreached} — the "
            "perturbation check is not exercising them")
    if hooked_unaudited:
        failures.append(
            "classes receive the span tracer but carry no statically "
            f"audited guard: {hooked_unaudited} — the static pass is "
            "not proving them effect-free")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end determinism smoke "
                    "(static rules' dynamic counterpart).")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker count for the pooled runs "
                             "(default: 2)")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write fingerprint report JSON to PATH")
    parser.add_argument("--static-obs", action="store_true",
                        help="also cross-check the static OBS hook "
                             "audit against the runtime span "
                             "attachment surface (check 5)")
    args = parser.parse_args(argv)

    report: Dict[str, Any] = {"tool": "determinism_check",
                              "checks": {}}
    failures = []
    failures += check_repeat_run(report["checks"])
    failures += check_jobs_equivalence(args.jobs, report["checks"])
    failures += check_spans(args.jobs, report["checks"])
    failures += check_cross_mode(report["checks"])
    if args.static_obs:
        failures += check_static_obs(report["checks"])
    report["ok"] = not failures
    report["failures"] = failures

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if failures:
        for failure in failures:
            print(f"DETERMINISM BROKEN: {failure}", file=sys.stderr)
        return 1
    suffix = (" and static/runtime hook audit agrees"
              if args.static_obs else "")
    print("determinism ok: repeat-run, jobs equivalence, merged "
          "telemetry, causal spans and coalesced vs per-sample "
          f"sampling all bit-identical{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
