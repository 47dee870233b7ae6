#!/usr/bin/env python3
"""Dynamic determinism smoke: the invariant the static rules guard.

``repro.lint`` statically bans the things that *would* break bit-exact
reproducibility (global RNG, wall-clock reads, set-ordered dispatch);
this tool proves the invariant actually holds end to end.  Checks 1-6
run over a reference scenario set; check 7 runs a failing batch:

1. **Repeat-run** — the same config run twice in one process must
   produce an identical energy result *and* an identical event trace
   (every dispatched ``(tick, source, kind, detail)`` record).  It is
   also run untraced twice: the second run's ECG block reads are
   served from the per-patient recording the first run made
   (:mod:`repro.signals.ecg`), and it reads every delivered stream
   payload's codes newest-first before its station digest (check 6)
   reads them in delivery order; the two result fingerprints,
   ``events_dispatched`` and station digests must be equal.
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
6. **Cross-mode** — a plain run coalesces idle-MCU samples (no
   kernel event for an idle sample's fire, planned ledger transitions,
   block reads); a traced run fires a kernel timer and takes the
   per-sample chain, the reference path, because its trace lists
   every dispatch.  For every checked config the two result
   fingerprints must be equal, and so must the two station digests
   (:func:`station_rows`): results carry energies and traffic counts,
   not what the apps computed, so the digest covers the apps' counters,
   the beat reports they still hold and every payload the base station
   received.  Each node's ordered acquisition ticks must be equal too
   (:func:`acquisition_ticks`), since a sample taken at the wrong tick
   often changes no code, report or counter.
7. **Failing batch** — a three-config batch whose middle config
   deterministically fails to join must fail its run with the
   scenario's own ``RuntimeError`` ("failed to join"), with the same
   type and message sequentially and at ``--jobs N``: the executor
   fails loudly instead of losing a scenario.

Checks 1-6 run the reference configs (each MAC family, both apps on
both TDMA MACs).  A hidden-terminal CSMA config adds a partial
topology and a lossy channel, so each check also covers per-receiver
loss draws and audiences smaller than the network.
Four configs meet a node's sampling grid with other work: one
samples fast enough that a fire lands inside every beacon processing
task, one skews its crystals so far that its slot posts land on fire
ticks, and a dynamic-TDMA R-peak reference config and a dynamic-TDMA
ECG streaming config sample so fast that fires land in coalesced
tasks and queue behind real dispatches.  The tutorial's lost-beacons
config drops exact frames with a ``DeterministicLoss``, whose
per-link counts must start from zero in every run of the one config
object that checks 1 and 2 run repeatedly.

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
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.apps.base import SamplingApplication
from repro.apps.ecg_streaming import EcgStreamingApp, StreamPayload
from repro.exec import ScenarioExecutor
from repro.exec.cache import config_fingerprint
from repro.mac.sync import FixedLead
from repro.net import BanScenario, BanScenarioConfig
from repro.obs import MetricsRegistry, SpanStore, attach_span_tracer
from repro.phy.lossmodels import DeterministicLoss, UniformLoss
from repro.phy.topology import BodyTopology, Position
from repro.sim.simtime import microseconds
from repro.sim.trace import TraceRecorder


def reference_configs() -> List[BanScenarioConfig]:
    """A small batch covering distinct MACs, apps and seeds."""
    return [
        BanScenarioConfig(mac="static", app="ecg_streaming",
                          num_nodes=3, measure_s=2.0, seed=7),
        BanScenarioConfig(mac="dynamic", app="ecg_streaming",
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
        # R-peak nodes sampling at 1,370 Hz: an untraced run books
        # fires inside a coalesced task's 6 us wake-up and queues fires
        # behind real dispatches.
        BanScenarioConfig(mac="dynamic", app="rpeak", num_nodes=2,
                          measure_s=3.0, seed=13, sampling_hz=1370.0,
                          slot_ms=7.0),
    ]


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


def beacon_window_config() -> BanScenarioConfig:
    """The static reference config sampling at 600 Hz: each node's
    2.24 ms beacon processing covers a sampling fire every cycle, so
    an untraced run books those fires as the coalesced window's
    continuations."""
    return replace(reference_configs()[0], seed=29, sampling_hz=600.0)


def rpeak_beacon_window_config() -> BanScenarioConfig:
    """The static R-peak reference config sampling at 210 Hz: some
    fires land inside beacon processing, so blocks holding those
    continuations' ticks reach the detector (``RpeakApp.handle_block``)
    during the run, at every payload read."""
    config = next(c for c in reference_configs()
                  if (c.mac, c.app) == ("static", "rpeak"))
    return replace(config, sampling_hz=210.0)


def skew_beyond_guard_config() -> BanScenarioConfig:
    """Two static nodes at 4,000 ppm of crystal skew behind a fixed
    50 us lead: they miss beacons and resync, and their slot posts
    land on sampling-fire ticks, so an untraced run orders those
    entries by when they were scheduled."""
    return BanScenarioConfig(
        mac="static", app="ecg_streaming", num_nodes=2, measure_s=6.0,
        seed=7, clock_skew_ppm=4000.0,
        sync_policy_factory=lambda cal: FixedLead(microseconds(50)))


def dynamic_streaming_busy_config() -> BanScenarioConfig:
    """The dynamic-TDMA ECG streaming reference config sampling at
    1,370 Hz with 7 ms slots: an untraced run books fires inside
    coalesced windows and queues fires behind real dispatches, on
    Table 2's path."""
    config = next(c for c in reference_configs()
                  if (c.mac, c.app) == ("dynamic", "ecg_streaming"))
    return replace(config, sampling_hz=1370.0, slot_ms=7.0)


def lost_beacons_config() -> BanScenarioConfig:
    """The tutorial's lossy config (docs/tutorial.md, section 7): the
    20th to 23rd base-station frames to node1 are lost, so it misses
    three beacons, falls back to acquisition and resyncs.  Its
    ``DeterministicLoss`` counts each link's frames, so every check
    that runs this one object more than once shows whether a run
    starts that count from zero."""
    loss = DeterministicLoss({("base_station", "node1"): (20, 21, 22, 23)})
    return BanScenarioConfig(mac="static", app="ecg_streaming",
                             num_nodes=1, cycle_ms=30.0, measure_s=2.0,
                             seed=3, loss_model=loss)


def checked_configs() -> List[BanScenarioConfig]:
    """What checks 1-6 run: the reference configs, the hidden-terminal
    config, four configs whose sampling fires meet other work:
    inside beacon processing (ECG streaming and R-peak), at the tick of
    a slot post, and inside and behind dynamic-TDMA packet tasks (ECG
    streaming); and the lost-beacons config."""
    return reference_configs() + [hidden_terminal_config(),
                                  beacon_window_config(),
                                  rpeak_beacon_window_config(),
                                  skew_beyond_guard_config(),
                                  dynamic_streaming_busy_config(),
                                  lost_beacons_config()]


def result_fingerprint(result: Any) -> str:
    """SHA-256 of the canonical (bit-exact) result encoding."""
    text = config_fingerprint(result)
    return hashlib.sha256(text.encode()).hexdigest()


def station_rows(bans: List[BanScenario]) -> List[Tuple[Any, ...]]:
    """One row per station of each BAN, base station last: the MCU's
    wakeups and cycles, the tasks run, the app's counters and the beat
    reports it still holds, the front end's reads and conversions, and
    the (arrival time, frame) of every data frame the base station
    delivered."""
    rows = []
    for ban in bans:
        for station in [*ban.nodes, ban.base_station]:
            app = getattr(station, "app", None)
            asic = getattr(station, "asic", None)
            adc = getattr(station, "adc", None)
            rows.append((
                station.mcu.wakeups, station.mcu.cycles_executed,
                station.scheduler.tasks_run,
                getattr(app, "samples_taken", None),
                getattr(app, "codes_sent", None),
                getattr(app, "codes_dropped", None),
                getattr(app, "beats_detected", None),
                list(getattr(app, "_pending", ())),
                None if asic is None else asic.reads,
                None if adc is None else adc.conversions,
                list(getattr(station, "deliveries", ()))))
    return rows


def station_digest(scenario: BanScenario) -> str:
    """SHA-256 of :func:`station_rows` for one scenario (floats by
    ``repr``, so bit-exact)."""
    return hashlib.sha256(
        repr(station_rows([scenario])).encode()).hexdigest()


def traced_run(config: BanScenarioConfig, spans: bool = False
               ) -> Tuple[str, str, str, str]:
    """Run once with tracing; return (result_fp, trace_fp, span_fp,
    station_fp).

    ``span_fp`` is the span-store fingerprint when ``spans`` is set
    and ``""`` otherwise; ``station_fp`` is :func:`station_digest`.
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
    return (result_fingerprint(result), digest.hexdigest(), span_fp,
            station_digest(scenario))


@contextmanager
def acquisition_ticks() -> Iterator[Dict[str, List[int]]]:
    """Record every sampling app's acquisition ticks, per app name, in
    the order its samples are handled, for scenarios built and run
    inside the block.

    A per-task sample is acquired at the tick its task runs
    (``SamplingApplication._acquire``); coalesced ones at the ticks
    each flush takes from the app's recorded ticks (the base
    ``flush_samples`` and ``EcgStreamingApp``'s).  The payload read,
    the end hook and the measurement reset all flush, so every sample
    is seen.  The app classes are patched while the block runs, so
    the end hooks that apps register when built call the recorders.
    """
    log: Dict[str, List[int]] = {}

    def recording_acquire(acquire: Callable[[Any], None]
                          ) -> Callable[[Any], None]:
        def record(app: Any) -> None:
            acquire(app)  # flushes the earlier, coalesced ticks first
            log.setdefault(app.name, []).append(app.sample_tick)
        return record

    def recording_flush(flush: Callable[[Any], None]
                        ) -> Callable[[Any], None]:
        def record(app: Any) -> None:
            log.setdefault(app.name, []).extend(app._deferred_ticks)
            flush(app)
        return record

    patches = [(SamplingApplication, "_acquire", recording_acquire),
               (SamplingApplication, "flush_samples", recording_flush),
               (EcgStreamingApp, "flush_samples", recording_flush)]
    originals = [(cls, name, cls.__dict__[name])
                 for cls, name, _ in patches]
    for cls, name, wrap in patches:
        setattr(cls, name, wrap(cls.__dict__[name]))
    try:
        yield log
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


def read_codes_newest_first(scenario: BanScenario) -> None:
    """Read the codes of every stream payload the base station
    delivered, newest first (each computes them on first read)."""
    for _, frame in reversed(scenario.base_station.deliveries):
        if isinstance(frame.payload, StreamPayload):
            frame.payload.get("codes")


def untraced_run(config: BanScenarioConfig, spans: bool = False,
                 newest_first: bool = False
                 ) -> Tuple[str, int, str, str]:
    """Run once without a trace; return (result_fp, events_dispatched,
    span_fp, station_fp), the fingerprints as in :func:`traced_run`.

    With ``newest_first``, the delivered stream payloads' codes are
    read newest first (:func:`read_codes_newest_first`) before the
    station digest reads them in delivery order.
    """
    scenario = BanScenario(config)
    tracer = attach_span_tracer(scenario) if spans else None
    result = scenario.run()
    if newest_first:
        read_codes_newest_first(scenario)
    span_fp = tracer.store.fingerprint() if tracer is not None else ""
    return (result_fingerprint(result), scenario.sim.events_dispatched,
            span_fp, station_digest(scenario))


def check_repeat_run(report: Dict[str, Any]) -> List[str]:
    """Check 1: same config, same process, twice — identical.

    Every reference config is exercised, so each MAC family (including
    the contention ones, whose backoff/jitter draws are the likeliest
    determinism hazard) proves repeatability separately.  The untraced
    pair checks the ECG recordings: the first run synthesizes what the
    second reads back, so a recording that served a value other than
    the synthesis gave would change the second run's station digest.
    The second run also reads its stream payloads newest first, so a
    payload whose codes depended on when or in what order payloads are
    read would change it too.
    """
    failures = []
    entries = []
    for index, config in enumerate(checked_configs()):
        first = traced_run(config)
        second = traced_run(config)
        recording = untraced_run(config)
        replaying = untraced_run(config, newest_first=True)
        entries.append({
            "mac": config.mac,
            "result_fingerprints": [first[0], second[0]],
            "trace_fingerprints": [first[1], second[1]],
            "untraced_result_fingerprints": [recording[0], replaying[0]],
            "untraced_events_dispatched": [recording[1], replaying[1]],
            "untraced_station_fingerprints": [recording[3],
                                              replaying[3]],
        })
        where = f"(config {index}, mac={config.mac})"
        if first[0] != second[0]:
            failures.append(f"repeat-run energy results diverge {where}")
        if first[1] != second[1]:
            failures.append(f"repeat-run event traces diverge {where}")
        if recording != replaying:
            failures.append(
                "untraced repeat runs diverge (result fingerprint, events "
                f"dispatched or station digest) {where}")
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
    that path); the coalesced run is the same config untraced.  Both
    the results and the station digests must be equal.
    """
    failures = []
    entries = []
    cases = [(f"config {index}, mac={config.mac}", config)
             for index, config in enumerate(checked_configs())]
    for where, config in cases:
        with acquisition_ticks() as coalesced_ticks:
            coalesced = untraced_run(config)
        with acquisition_ticks() as per_sample_ticks:
            per_sample = traced_run(config)
        entries.append({
            "case": where,
            "result_fingerprints": [coalesced[0], per_sample[0]],
            "station_fingerprints": [coalesced[3], per_sample[3]],
            "acquisitions": [
                sum(len(ticks) for ticks in coalesced_ticks.values()),
                sum(len(ticks) for ticks in per_sample_ticks.values())],
        })
        if coalesced[0] != per_sample[0]:
            failures.append(
                f"coalesced and per-sample results diverge ({where})")
        if coalesced[3] != per_sample[3]:
            failures.append(
                "coalesced and per-sample station digests diverge "
                f"({where})")
        if coalesced_ticks != per_sample_ticks:
            failures.append(
                "coalesced and per-sample acquisition ticks diverge "
                f"({where})")
    report["cross_mode"] = {"configs": entries}
    return failures


def _batch_failure(configs: List[BanScenarioConfig], jobs: int
                   ) -> Dict[str, str]:
    """Run a batch that must fail; return its error's type and message
    (an empty dict if it did not raise)."""
    try:
        ScenarioExecutor(jobs=jobs).run_configs(configs)
    except RuntimeError as exc:
        return {"error_type": type(exc).__name__, "message": str(exc)}
    return {}


def check_failing_batch(jobs: int, report: Dict[str, Any]) -> List[str]:
    """Check 7: one failing config fails its batch with its own error,
    sequentially and pooled alike."""
    def config(**overrides: Any) -> BanScenarioConfig:
        defaults: Dict[str, Any] = dict(
            mac="static", app="ecg_streaming", num_nodes=2,
            cycle_ms=30.0, measure_s=2.0, seed=11)
        defaults.update(overrides)
        return BanScenarioConfig(**defaults)

    bad = config(num_slots=1, join_protocol=True, join_deadline_s=0.5,
                 seed=2)
    configs = [config(seed=1), bad, config(seed=3)]
    sequential = _batch_failure(configs, jobs=1)
    pooled = _batch_failure(configs, jobs=jobs)
    report["failing_batch"] = {"jobs": jobs, "sequential": sequential,
                               "pooled": pooled}
    failures = []
    for name, outcome in (("jobs=1", sequential), (f"jobs={jobs}", pooled)):
        if not outcome:
            failures.append(f"{name}: the failing batch did not raise")
        elif (outcome["error_type"] != "RuntimeError"
              or "failed to join" not in outcome["message"]):
            failures.append(
                f"{name}: the failing batch raised {outcome}, not the "
                "scenario's join failure")
    if sequential != pooled:
        failures.append(
            f"jobs=1 and jobs={jobs} fail the batch differently: "
            f"{sequential} != {pooled}")
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
                        help="worker count for the pooled runs, the "
                             "failing batch's included (default: 2)")
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
    failures += check_failing_batch(args.jobs, report["checks"])
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
          "sampling all bit-identical, and a failing batch fails "
          f"alike at any --jobs{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
