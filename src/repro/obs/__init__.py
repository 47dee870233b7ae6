"""Unified telemetry: metrics registry, trace sinks, profiler.

``repro.obs`` is the observability layer over the simulation runtime —
the piece that turns the paper's *accounting* (every joule attributed
to a power state and a cause) into numbers you can watch during a run
and export after it:

* :mod:`repro.obs.metrics` — counters, gauges, time-weighted
  histograms and state-residency timers keyed by
  ``component/node/name``, with mergeable snapshots and a JSON
  exporter;
* :mod:`repro.obs.sinks` — the JSONL streaming trace sink plus
  :class:`~repro.obs.sinks.SinkTraceRecorder`, the adapter that keeps
  the in-memory ``TraceRecorder`` API intact;
* :mod:`repro.obs.profiler` — attributes host ``perf_counter`` time to
  event labels and reports sim-seconds-per-wall-second;
* :mod:`repro.obs.instrument` — pull collectors reading the kernel,
  MACs, radios and MCUs into a registry;
* :mod:`repro.obs.spans` — causal span tracing: per-packet lifecycle
  phases with sim-time intervals and ledger-exact energy attribution,
  mergeable across workers, exportable as JSONL or Perfetto JSON.

Everything is opt-in: a run without a registry/profiler/sink executes
byte-identical code, and even instrumented runs never perturb event
order, RNG streams or energy figures.
"""

from .instrument import collect_scenario_metrics, collect_simulator_metrics
from .metrics import (
    GLOBAL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StateTimer,
    metric_key,
    split_key,
)
from .profiler import KERNEL_LABEL, SimulationProfiler, normalize_label
from .sinks import JsonlTraceSink, SinkTraceRecorder
from .spans import (
    Span,
    SpanStore,
    SpanTracer,
    attach_span_tracer,
    attribution_report,
    reconcile_spans,
    rollup_spans,
    spans_to_sink,
    to_perfetto,
    write_perfetto,
    write_spans_jsonl,
)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "StateTimer",
    "metric_key", "split_key", "GLOBAL",
    "JsonlTraceSink", "SinkTraceRecorder",
    "SimulationProfiler", "normalize_label", "KERNEL_LABEL",
    "collect_simulator_metrics", "collect_scenario_metrics",
    "Span", "SpanStore", "SpanTracer", "attach_span_tracer",
    "spans_to_sink", "write_spans_jsonl", "to_perfetto",
    "write_perfetto", "rollup_spans", "reconcile_spans",
    "attribution_report",
]
