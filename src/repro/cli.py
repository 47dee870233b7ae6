"""Command-line interface: ``repro-ban`` (or ``python -m repro``).

Subcommands:

* ``table1`` .. ``table4`` — reproduce one validation table and print
  it next to the paper's Real/Sim columns;
* ``figure4`` — reproduce the streaming-vs-Rpeak comparison;
* ``validate`` — reproduce everything and print the error summary;
* ``run`` — run an arbitrary scenario and print the node's energy,
  loss-taxonomy breakdown and battery-lifetime projection; optional
  CSV/JSON/VCD exports;
* ``explain`` — the closed-form analytic derivation for a scenario;
* ``baseline`` — the model-fidelity ladder (airtime-only vs full);
* ``interference`` — two adjacent BANs on one channel;
* ``lint`` — the determinism & simulation-safety static analyser
  (delegates to :mod:`repro.lint`; see ``docs/static_analysis.md``).

Every subcommand accepts ``--jobs N`` (fan independent scenarios out
over N worker processes; output identical to sequential).  Commands
that run a single scenario ignore ``--jobs``.  A scenario that raises
fails its command with its own error, at any ``--jobs``.  ``run``
additionally takes ``--faults SPEC`` (deterministic fault injection;
see ``docs/protocols.md``) and ``--recovery`` (MAC degradation
behaviour under faults).

Telemetry (see ``docs/observability.md``): ``--metrics PATH`` writes a
metrics snapshot (JSON, or Prometheus text when PATH ends in
``.prom``), ``--trace-jsonl PATH`` streams the event trace as JSON
lines (single-scenario commands), and ``--profile`` times event
callbacks and prints the hottest labels.  Causal spans (see
``docs/observability.md``): the ``spans`` subcommand runs a scenario
and prints the per-packet latency/energy attribution report, while
``--spans PATH`` / ``--spans-perfetto PATH`` export the span set as
JSON lines or Chrome/Perfetto ``trace_event`` JSON from any
simulating command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.closed_form import explain as explain_analytic
from .analysis.experiments import (
    TABLE_REPRODUCERS,
    reproduce_all_tables,
    reproduce_figure4,
)
from .analysis.export import network_records, to_csv, to_json
from .analysis.figures import render_figure4
from .analysis.lifetime import project_lifetime
from .analysis.validation import validate_all
from .analysis.waveforms import WaveformProbe
from .baselines.naive import fidelity_ladder
from .core.report import render_loss_breakdown, render_table
from .exec import ScenarioExecutor
from .faults import parse_fault_spec
from .hw.battery import CR2477, LIPO_160
from .mac.recovery import RecoveryConfig
from .net.multi import MultiBanScenario
from .net.scenario import APPS, MACS, BanScenario, BanScenarioConfig, \
    run_scenario
from .obs import (
    JsonlTraceSink,
    MetricsRegistry,
    SimulationProfiler,
    SinkTraceRecorder,
    SpanStore,
    SpanTracer,
    attach_periodic_snapshots,
    attach_span_tracer,
    attribution_report,
    collect_scenario_metrics,
    collect_simulator_metrics,
    rollup_spans,
    write_perfetto,
    write_spans_jsonl,
)

#: Named batteries selectable from the command line.
BATTERIES = {"cr2477": CR2477, "lipo160": LIPO_160}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--measure-s", type=float, default=60.0,
                        help="measurement window in seconds (default 60)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent scenarios "
                             "(default 1 = in-process; 0 = CPU count)")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write a metrics snapshot (JSON, or "
                             "Prometheus text if PATH ends in .prom)")
    parser.add_argument("--trace-jsonl", metavar="PATH", default=None,
                        help="stream the event trace as JSON lines "
                             "(single-scenario commands: run, spans, "
                             "interference)")
    parser.add_argument("--profile", action="store_true",
                        help="time event callbacks and print the "
                             "hottest labels")
    parser.add_argument("--metrics-period", type=float, default=5.0,
                        metavar="S",
                        help="sim-time period of trajectory snapshots "
                             "recorded with --metrics (single-scenario "
                             "commands: run, spans, interference; "
                             "default 5)")
    parser.add_argument("--spans", metavar="PATH", default=None,
                        help="export causal spans as JSON lines "
                             "(see docs/observability.md)")
    parser.add_argument("--spans-perfetto", metavar="PATH", default=None,
                        help="export causal spans as Chrome/Perfetto "
                             "trace_event JSON (open in ui.perfetto.dev)")


class _Observability:
    """One CLI invocation's telemetry wiring (flags -> obs objects).

    Centralises what every subcommand needs: a registry when
    ``--metrics`` is given, a profiler for ``--profile``, a JSONL sink
    for ``--trace-jsonl``, and a ``finish`` step that writes the
    outputs and prints the profile table.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.metrics_path = getattr(args, "metrics", None)
        self.trace_path = getattr(args, "trace_jsonl", None)
        self.period_s = getattr(args, "metrics_period", 5.0)
        self.registry = (MetricsRegistry()
                         if self.metrics_path else None)
        self.profiler = (SimulationProfiler()
                         if getattr(args, "profile", False) else None)
        self._sink: Optional[JsonlTraceSink] = None
        self.spans_path = getattr(args, "spans", None)
        self.perfetto_path = getattr(args, "spans_perfetto", None)
        want_spans = (self.spans_path is not None
                      or self.perfetto_path is not None
                      or getattr(args, "command", None) == "spans")
        self.span_store: Optional[SpanStore] = (SpanStore() if want_spans
                                                else None)

    def make_trace(self, trace_capacity: Optional[int] = None
                   ) -> Optional[SinkTraceRecorder]:
        """A sink-fanning recorder when ``--trace-jsonl`` is set."""
        if self.trace_path is None:
            return None
        self._sink = JsonlTraceSink(self.trace_path)
        return SinkTraceRecorder([self._sink],
                                 capacity=trace_capacity)

    def attach(self, sim, scenario=None) -> None:
        """Instrument one kernel that runs in this process."""
        if self.registry is not None:
            sim.metrics = self.registry
            if self.period_s > 0:
                attach_periodic_snapshots(sim, self.registry,
                                          scenario=scenario,
                                          period_s=self.period_s)
        if self.profiler is not None:
            sim.profiler = self.profiler

    def attach_spans(self, scenario,
                     tracer: Optional[SpanTracer] = None) -> SpanTracer:
        """Wire a span tracer through one in-process scenario.

        Feeds the shared :class:`SpanStore`; pass ``tracer`` to reuse
        one tracer across scenarios on a shared channel (multi-BAN).
        """
        if tracer is None:
            tracer = SpanTracer(self.span_store)
        return attach_span_tracer(scenario, tracer)

    def collect(self, scenario) -> None:
        """Pull a finished scenario's models into the registry."""
        if self.registry is None:
            return
        collect_scenario_metrics(scenario, self.registry)
        collect_simulator_metrics(scenario.sim, self.registry)

    def finish(self) -> None:
        """Write snapshot/trace outputs and print the profile table."""
        registry = self.registry
        if self.trace_path is not None and self._sink is None:
            print("note: --trace-jsonl applies to single-scenario "
                  "commands; ignored")
        if self._sink is not None:
            self._sink.close()
            print(f"wrote {self.trace_path} "
                  f"({self._sink.emitted} trace records)")
        if self.span_store is not None:
            if registry is not None:
                rollup_spans(self.span_store, registry)
            if self.spans_path is not None:
                count = write_spans_jsonl(self.span_store,
                                          self.spans_path)
                print(f"wrote {self.spans_path} ({count} spans)")
            if self.perfetto_path is not None:
                count = write_perfetto(self.span_store,
                                       self.perfetto_path)
                print(f"wrote {self.perfetto_path} "
                      f"({count} trace events)")
        if registry is not None:
            exported = (registry.to_prometheus()
                        if self.metrics_path.endswith(".prom")
                        else registry.to_json())
            with open(self.metrics_path, "w") as handle:
                handle.write(exported)
            print(f"wrote {self.metrics_path}")
        if self.profiler is not None:
            print()
            print(self.profiler.render_table())

    def close(self) -> None:
        """Flush the trace sink even when the command aborts mid-run.

        Idempotent: ``finish()`` already closed the sink on the happy
        path; this is the unwind-path backstop (``try/finally`` in the
        sink-opening commands) so an exception never loses exactly the
        trace records that would explain it.
        """
        if self._sink is not None:
            self._sink.close()

    def note_analytic(self) -> None:
        """Warn once when telemetry flags hit an analytic command."""
        if (self.metrics_path or self.trace_path
                or self.profiler is not None
                or self.span_store is not None):
            print("note: telemetry flags are ignored by analytic "
                  "commands (nothing is simulated)")


def _executor_from_args(args: argparse.Namespace,
                        obs: Optional[_Observability] = None
                        ) -> ScenarioExecutor:
    """Build the scenario executor the batch commands run through."""
    if args.jobs < 0:
        raise SystemExit(
            f"repro-ban: error: --jobs must be >= 0, got {args.jobs}")
    jobs = None if args.jobs == 0 else args.jobs
    return ScenarioExecutor(
        jobs=jobs,
        metrics=obs.registry if obs is not None else None,
        profiler=obs.profiler if obs is not None else None,
        spans=obs.span_store if obs is not None else None)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-ban",
        description="OS-based BAN sensor-node energy estimation "
                    "(reproduction of Rincon et al., DATE 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    for table_id in sorted(TABLE_REPRODUCERS):
        table_parser = sub.add_parser(
            table_id, help=f"reproduce the paper's {table_id}")
        _add_common(table_parser)

    figure_parser = sub.add_parser(
        "figure4", help="reproduce Figure 4 (streaming vs Rpeak)")
    _add_common(figure_parser)

    validate_parser = sub.add_parser(
        "validate", help="reproduce all tables and summarise errors")
    _add_common(validate_parser)

    def add_scenario_flags(target: argparse.ArgumentParser) -> None:
        target.add_argument("--mac", choices=MACS, default="static")
        target.add_argument("--app", choices=APPS,
                            default="ecg_streaming")
        target.add_argument("--nodes", type=int, default=5)
        target.add_argument("--cycle-ms", type=float, default=30.0,
                            help="static TDMA cycle length")
        target.add_argument("--slot-ms", type=float, default=10.0,
                            help="dynamic TDMA slot length")
        target.add_argument("--sampling-hz", type=float, default=None,
                            help="per-channel sampling rate "
                                 "(default: derived)")
        target.add_argument("--heart-rate", type=float, default=75.0)

    run_parser = sub.add_parser("run", help="run a custom BAN scenario")
    _add_common(run_parser)
    add_scenario_flags(run_parser)
    run_parser.add_argument("--join", action="store_true",
                            help="exercise the over-the-air join protocol")
    run_parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject a deterministic fault schedule, e.g. "
             "'crash,node=node1,at=5,reboot=3; "
             "beacons,node=node2,at=8,count=4' "
             "(kinds: crash, lockup, beacons, clockstep, brownout, "
             "random; see docs/protocols.md)")
    run_parser.add_argument(
        "--recovery", action="store_true",
        help="enable MAC degradation/recovery behaviour (widened "
             "beacon windows, duty-cycled reacquisition, SSR backoff) "
             "- typically combined with --faults")
    run_parser.add_argument("--battery", choices=sorted(BATTERIES),
                            default="cr2477")
    run_parser.add_argument("--losses", action="store_true",
                            help="print the loss-taxonomy breakdown")
    run_parser.add_argument("--csv", metavar="PATH", default=None,
                            help="export per-node records as CSV")
    run_parser.add_argument("--json", metavar="PATH", default=None,
                            help="export per-node records as JSON")
    run_parser.add_argument("--vcd", metavar="PATH", default=None,
                            help="dump power-state waveforms as VCD")

    spans_parser = sub.add_parser(
        "spans", help="causal span tracing: run a scenario and print "
                      "the per-packet latency/energy attribution "
                      "report")
    _add_common(spans_parser)
    add_scenario_flags(spans_parser)
    spans_parser.add_argument(
        "--join", action="store_true",
        help="exercise the over-the-air join protocol")

    explain_parser = sub.add_parser(
        "explain", help="closed-form analytic energy derivation")
    _add_common(explain_parser)
    add_scenario_flags(explain_parser)

    baseline_parser = sub.add_parser(
        "baseline", help="model-fidelity ladder for a scenario")
    _add_common(baseline_parser)
    add_scenario_flags(baseline_parser)

    interference_parser = sub.add_parser(
        "interference", help="two adjacent BANs on one channel")
    _add_common(interference_parser)
    interference_parser.add_argument(
        "--stagger-ms", type=float, default=7.5,
        help="offset between the BANs' beacon grids; 7.5 ms aligns "
             "ban2's slots onto ban1's for a worst-case demo")

    report_parser = sub.add_parser(
        "report", help="full reproduction report (tables + figure + "
                       "validation) to stdout or a file")
    _add_common(report_parser)
    report_parser.add_argument("--out", metavar="PATH", default=None,
                               help="write the report to a file")

    sensitivity_parser = sub.add_parser(
        "sensitivity", help="calibration tornado analysis")
    _add_common(sensitivity_parser)
    add_scenario_flags(sensitivity_parser)
    sensitivity_parser.add_argument(
        "--relative", type=float, default=0.10,
        help="perturbation applied to each parameter (default ±10%%)")
    sensitivity_parser.add_argument(
        "--quantity", choices=("total", "radio", "mcu"),
        default="total")
    sensitivity_parser.add_argument(
        "--method", choices=("analytic", "simulate"), default="analytic",
        help="analytic = instant closed form; simulate = one full "
             "discrete-event run per perturbation (use --jobs)")

    # Listed here for --help discoverability; ``main`` hands the raw
    # argument tail to repro.lint.cli before this tree ever parses it,
    # so the lint CLI keeps its own flags and exit codes.
    lint_parser = sub.add_parser(
        "lint", help="determinism & simulation-safety static analysis "
                     "(see docs/static_analysis.md)")
    lint_parser.add_argument("lint_args", nargs=argparse.REMAINDER,
                             help="arguments for repro.lint "
                                  "(try: repro-ban lint --help)")
    return parser


def _cmd_table(table_id: str, args: argparse.Namespace) -> int:
    obs = _Observability(args)
    executor = _executor_from_args(args, obs)
    result = TABLE_REPRODUCERS[table_id](measure_s=args.measure_s,
                                         seed=args.seed,
                                         executor=executor)
    print(result.render())
    obs.finish()
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    obs = _Observability(args)
    executor = _executor_from_args(args, obs)
    result = reproduce_figure4(measure_s=args.measure_s, seed=args.seed,
                               executor=executor)
    print(render_figure4(result))
    obs.finish()
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    obs = _Observability(args)
    executor = _executor_from_args(args, obs)
    results = reproduce_all_tables(measure_s=args.measure_s,
                                   seed=args.seed, executor=executor)
    for table_id in sorted(results):
        print(results[table_id].render())
        print()
    print(validate_all(results).render())
    obs.finish()
    return 0


def _scenario_config(args: argparse.Namespace,
                     **extra) -> BanScenarioConfig:
    return BanScenarioConfig(
        mac=args.mac, app=args.app, num_nodes=args.nodes,
        cycle_ms=args.cycle_ms, slot_ms=args.slot_ms,
        sampling_hz=args.sampling_hz, heart_rate_bpm=args.heart_rate,
        measure_s=args.measure_s, seed=args.seed, **extra)


def _cmd_run(args: argparse.Namespace) -> int:
    obs = _Observability(args)
    extra = {}
    if args.faults:
        try:
            extra["faults"] = parse_fault_spec(args.faults)
        except ValueError as exc:
            raise SystemExit(f"repro-ban: error: --faults: {exc}")
    if args.recovery:
        extra["recovery"] = RecoveryConfig()
    config = _scenario_config(args, join_protocol=args.join, **extra)
    scenario = BanScenario(
        config, trace=obs.make_trace(config.trace_capacity))
    try:
        return _run_scenario_command(args, obs, scenario)
    finally:
        obs.close()


def _run_scenario_command(args: argparse.Namespace, obs: _Observability,
                          scenario: BanScenario) -> int:
    obs.attach(scenario.sim, scenario)
    if obs.span_store is not None:
        obs.attach_spans(scenario)
    probe = (WaveformProbe.attach_to_scenario(scenario)
             if args.vcd else None)
    result = scenario.run()
    obs.collect(scenario)
    headers = ["node", "radio (mJ)", "uC (mJ)", "ASIC (mJ)",
               "total (mJ)", "avg power (mW)"]
    rows = []
    for node_id in sorted(result.nodes):
        node = result.nodes[node_id]
        rows.append((node_id, node.radio_mj, node.mcu_mj, node.asic_mj,
                     node.total_with_asic_mj,
                     node.total_with_asic_mj / node.horizon_s))
    print(render_table(
        headers, rows,
        title=f"{args.app} over {args.mac} MAC, {args.nodes} nodes, "
              f"{args.measure_s:.0f} s"))
    battery = BATTERIES[args.battery]
    print()
    for node_id in sorted(result.nodes):
        projection = project_lifetime(result.nodes[node_id], battery)
        print(projection.render())
    if args.losses:
        print()
        for node_id in sorted(result.nodes):
            print(render_loss_breakdown(result.nodes[node_id]))
            print()
    if scenario.fault_injector is not None:
        print()
        summary = scenario.fault_injector.summary()
        if summary:
            print("injected faults:")
            for node_id, counts in summary.items():
                details = ", ".join(f"{name}={value}" for name, value
                                    in sorted(counts.items()))
                print(f"  {node_id}: {details}")
        else:
            print("injected faults: none fired within the horizon")
    records = network_records(result)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(to_csv(records))
        print(f"wrote {args.csv}")
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(to_json(records))
        print(f"wrote {args.json}")
    if probe is not None:
        probe.write_vcd(args.vcd)
        print(f"wrote {args.vcd} ({len(probe.signals)} signals)")
    obs.finish()
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    obs = _Observability(args)
    config = _scenario_config(args, join_protocol=args.join)
    scenario = BanScenario(
        config, trace=obs.make_trace(config.trace_capacity))
    try:
        obs.attach(scenario.sim, scenario)
        tracer = obs.attach_spans(scenario)
        scenario.run()
        obs.collect(scenario)
        print(attribution_report(tracer.store, scenario))
        obs.finish()
    finally:
        obs.close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    _Observability(args).note_analytic()
    print(explain_analytic(_scenario_config(args)))
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    _Observability(args).note_analytic()
    config = _scenario_config(args)
    rows = [(estimate.fidelity.value, estimate.radio_mj,
             estimate.mcu_mj, estimate.total_mj)
            for estimate in fidelity_ladder(config)]
    print(render_table(
        ["fidelity", "radio (mJ)", "uC (mJ)", "total (mJ)"], rows,
        title=f"Model-fidelity ladder: {args.app} over {args.mac} MAC, "
              f"{args.measure_s:.0f} s"))
    print("\nL2 (guard windows) is the paper's model; the gap to L0 is "
          "the energy a duty-cycle estimate misses.")
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    obs = _Observability(args)
    configs = [
        BanScenarioConfig(mac="static", app="ecg_streaming", num_nodes=3,
                          cycle_ms=30.0, sampling_hz=205.0,
                          measure_s=args.measure_s, seed=args.seed),
        BanScenarioConfig(mac="static", app="ecg_streaming", num_nodes=3,
                          cycle_ms=40.0, sampling_hz=150.0,
                          measure_s=args.measure_s, seed=args.seed),
    ]
    multi = MultiBanScenario(configs, stagger_ms=args.stagger_ms,
                             seed=args.seed, trace=obs.make_trace())
    try:
        obs.attach(multi.sim)
        if obs.span_store is not None:
            tracer = SpanTracer(obs.span_store)
            for ban in multi.bans:
                obs.attach_spans(ban, tracer)
        results = multi.run()
        if obs.registry is not None:
            for ban in multi.bans:
                collect_scenario_metrics(ban, obs.registry)
            collect_simulator_metrics(multi.sim, obs.registry)
        print(multi.interference_summary(results))
        print()
        rows = []
        for ban_name in sorted(results):
            for node_id in sorted(results[ban_name].nodes):
                node = results[ban_name].nodes[node_id]
                rows.append((node_id, node.radio_mj, node.mcu_mj,
                             node.traffic.overheard,
                             node.traffic.corrupted))
        print(render_table(
            ["node", "radio (mJ)", "uC (mJ)", "overheard", "corrupted"],
            rows, title="Per-node figures under co-channel interference"))
        obs.finish()
    finally:
        obs.close()
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis.sensitivity import render_tornado, tornado
    obs = _Observability(args)
    executor = _executor_from_args(args, obs)
    entries = tornado(_scenario_config(args), relative=args.relative,
                      quantity=args.quantity, method=args.method,
                      executor=executor)
    print(f"Sensitivity of {args.quantity} energy "
          f"({args.app} over {args.mac} MAC, {args.measure_s:.0f} s) "
          f"to +/-{100 * args.relative:.0f}% parameter perturbations "
          f"[{args.method}]:\n")
    print(render_tornado(entries))
    obs.finish()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.summary import full_report
    obs = _Observability(args)
    executor = _executor_from_args(args, obs)
    text = full_report(measure_s=args.measure_s, seed=args.seed,
                       executor=executor)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    obs.finish()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "lint":
        from .lint.cli import main as lint_main
        return lint_main(raw[1:])
    args = build_parser().parse_args(raw)
    if args.command in TABLE_REPRODUCERS:
        return _cmd_table(args.command, args)
    if args.command == "figure4":
        return _cmd_figure4(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "spans":
        return _cmd_spans(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "interference":
        return _cmd_interference(args)
    if args.command == "sensitivity":
        return _cmd_sensitivity(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
