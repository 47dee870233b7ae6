"""Tests for causal span tracing (``repro.obs.spans``).

The load-bearing contracts, in order of importance:

* **Zero perturbation** — attaching a span tracer changes no event
  count, no trace record and no energy figure; spans-on runs are
  byte-identical to spans-off runs, traced or not (a tracer does not
  select the scheduler's per-task chain).
* **Determinism** — repeat runs produce bit-identical span sets, and
  ``ScenarioExecutor(jobs=N, spans=store)`` merges worker stores into
  exactly the sequential store.
* **Reconciliation** — span-summed TX energy equals the
  ``PowerStateLedger`` TX total (settle/air/tail partition the TX
  ticks); RX/MCU-active coverage is partial but positive.

Plus the exporters (JSONL through the trace sink, Perfetto
trace_event JSON), the metrics rollups, the attribution report, the
CLI surface and the sink's flush on exceptional unwind.
"""

import hashlib
import json

import pytest

from conftest import read_jsonl
from repro.cli import main
from repro.exec import ScenarioExecutor
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    Span,
    SpanStore,
    SpanTracer,
    attach_span_tracer,
    attribution_report,
    reconcile_spans,
    rollup_spans,
    to_perfetto,
    write_perfetto,
    write_spans_jsonl,
)
from repro.obs.spans import ROOT
from repro.sim.trace import TraceRecorder


def _config(**overrides):
    base = dict(mac="static", app="ecg_streaming", num_nodes=2,
                cycle_ms=30.0, measure_s=1.0, seed=7)
    base.update(overrides)
    return BanScenarioConfig(**base)


def _traced(config, spans):
    trace = TraceRecorder()
    scenario = BanScenario(config, trace=trace)
    tracer = attach_span_tracer(scenario) if spans else None
    result = scenario.run()
    digest = hashlib.sha256()
    for record in trace:
        digest.update(record.render().encode())
    return scenario, result, digest.hexdigest(), tracer


class _NotingTracer(SpanTracer):
    """A tracer that also keeps each node's sample ticks noted since
    the measurement reset; whoever reads them pops them."""

    def __init__(self):
        super().__init__()
        self.noted = {}

    def note_sample(self, node, now, cycles):
        self.noted.setdefault(node, []).append(now)
        super().note_sample(node, now, cycles)

    def reset(self):
        self.noted.clear()
        super().reset()


# ----------------------------------------------------------------------
# Zero perturbation and determinism
# ----------------------------------------------------------------------
class TestSpanDeterminism:
    def test_spans_do_not_perturb_the_run(self):
        config = _config()
        s_off, r_off, trace_off, _ = _traced(config, spans=False)
        s_on, r_on, trace_on, tracer = _traced(config, spans=True)
        assert trace_on == trace_off
        assert r_on == r_off
        assert s_on.sim.events_dispatched == s_off.sim.events_dispatched
        assert len(tracer.store) > 0

    def test_spans_keep_the_plain_path(self):
        # Untraced, the scheduler may coalesce tasks; a tracer must not
        # send the run down the per-task chain instead.
        config = _config()
        off = BanScenario(config)
        r_off = off.run()
        on = BanScenario(config)
        tracer = attach_span_tracer(on)
        r_on = on.run()
        assert r_on == r_off
        assert on.sim.events_dispatched == off.sim.events_dispatched
        assert len(tracer.store) > 0

    def test_repeat_runs_bit_identical(self):
        config = _config(mac="dynamic", app="rpeak", seed=11)
        _, _, _, first = _traced(config, spans=True)
        _, _, _, second = _traced(config, spans=True)
        assert first.store.fingerprint() == second.store.fingerprint()
        assert first.store.snapshot() == second.store.snapshot()

    def test_executor_jobs_merge_equals_sequential(self):
        configs = [_config(seed=3), _config(mac="dynamic", seed=4),
                   _config(mac="aloha", app="rpeak", seed=5)]
        fingerprints = []
        for jobs in (1, 2):
            store = SpanStore()
            ScenarioExecutor(jobs=jobs, spans=store).run_configs(configs)
            fingerprints.append(store.fingerprint())
        assert fingerprints[0] == fingerprints[1]

    def test_span_ids_never_touch_simulator_serials(self):
        # frame_id is stamped from Simulator.next_serial(); if span
        # allocation consumed kernel serials, spans-on frame ids
        # would shift.  Compare data-frame ids against a spans-off
        # run's trace text instead of trusting the implementation.
        config = _config()
        _, _, trace_off, _ = _traced(config, spans=False)
        _, _, trace_on, _ = _traced(config, spans=True)
        assert trace_on == trace_off  # includes every frame_id


# ----------------------------------------------------------------------
# Span structure
# ----------------------------------------------------------------------
class TestSpanStructure:
    def test_roots_and_children(self):
        _, _, _, tracer = _traced(_config(), spans=True)
        store = tracer.store
        roots = store.roots()
        assert roots
        for root in roots:
            assert root.name == ROOT
            children = store.children_of(root.span_id)
            assert children
            for child in children:
                assert child.parent_id == root.span_id
                assert child.start >= root.start
                assert child.name != ROOT
            # root energy is the sum of child energies (exact: the
            # root total is literally accumulated from these floats).
            assert root.energy_j == pytest.approx(
                sum(c.energy_j for c in children), abs=0.0, rel=1e-12)

    def test_data_roots_cover_expected_phases(self):
        _, _, _, tracer = _traced(_config(), spans=True)
        store = tracer.store
        data_roots = [r for r in store.roots() if r.kind == "data"]
        assert data_roots
        phases = {c.name for r in data_roots
                  for c in store.children_of(r.span_id)}
        for expected in ("app.buffer", "mac.slot_wait", "tinyos.queue",
                         "mcu.prepare", "radio.settle", "phy.air",
                         "radio.tail", "phy.rx"):
            assert expected in phases, expected

    def test_delivery_status_on_roots(self):
        scenario, _, _, tracer = _traced(_config(), spans=True)
        data_roots = [r for r in tracer.store.roots()
                      if r.kind == "data"]
        delivered = sum(1 for r in data_roots
                        if r.status == "delivered")
        # every data root judged "delivered" corresponds to a frame
        # the base station actually delivered upward in the window
        assert delivered == scenario.base_station.frames_received

    @pytest.mark.parametrize("mac, seed", [("aloha", 23), ("csma", 17),
                                           ("static", 7)])
    def test_app_buffer_ends_at_the_payload_read(self, mac, seed):
        """``app.buffer`` runs from the first sample noted after the
        node's previous payload read to the read that takes them; an
        ALOHA node transmits up to a poll interval after that read."""
        tracer = _NotingTracer()
        scenario = BanScenario(_config(mac=mac, num_nodes=3, measure_s=2.0,
                                       seed=seed, sampling_hz=205.0))
        attach_span_tracer(scenario, tracer)
        # (node, first sample tick, read tick) -> samples the read took
        reads = {}
        for node in scenario.nodes:
            def reading(provide=node.mac.payload_provider,
                        node_id=node.node_id):
                payload = provide()
                if payload is not None and tracer.noted.get(node_id):
                    ticks = tracer.noted.pop(node_id)
                    reads[node_id, ticks[0], scenario.sim.now] = len(ticks)
                return payload
            node.mac.payload_provider = reading
        scenario.run()
        buffers = [span for span in tracer.store.spans
                   if span.name == "app.buffer"]
        assert buffers
        for span in buffers:
            taken = reads.get((span.node, span.start, span.end))
            assert span.status == f"samples={taken}", span

    def test_measurement_reset_drops_warmup(self):
        # Spans recorded before the measurement window must not leak
        # into the store (scenario.run resets at measure start).
        _, _, _, tracer = _traced(_config(), spans=True)
        starts = [s.start for s in tracer.store.spans]
        # All retained intervals end inside/after the measurement
        # window; the earliest data root must not start at t=0.
        assert min(starts) > 0


# ----------------------------------------------------------------------
# Store merge mechanics
# ----------------------------------------------------------------------
class TestSpanStoreMerge:
    def test_merge_rebases_ids(self):
        left = SpanStore()
        root_id = left.allocate()
        left.add(Span(root_id, None, root_id, ROOT, "a", "data", 1,
                      0, 10, 1.0, "delivered"))
        child_id = left.allocate()
        left.add(Span(child_id, root_id, root_id, "phy.air", "a",
                      "data", 1, 2, 8, 0.5, ""))

        incoming = SpanStore()
        other_root = incoming.allocate()
        shipped = Span(other_root, None, other_root, ROOT, "b", "data",
                       2, 0, 10, 2.0, "lost")
        incoming.add(shipped)
        other_child = incoming.allocate()
        incoming.add(Span(other_child, other_root, other_root, "phy.air",
                          "b", "data", 2, 2, 8, 1.0, ""))
        left.merge_snapshot(incoming)

        assert [s.span_id for s in left.spans] == [1, 2, 3, 4]
        # the worker's span objects move over, rebased in place
        assert left.spans[2] is shipped
        assert shipped.span_id == 3 and shipped.trace_id == 3
        assert left.spans[3].parent_id == 3
        assert left.spans[3].trace_id == 3
        assert len(incoming) == 0
        # allocator continues past the merged ids
        assert left.allocate() == 5

    def test_merge_empty_snapshot_is_noop(self):
        store = SpanStore()
        store.merge_snapshot(SpanStore())
        assert len(store) == 0 and store.allocate() == 1


# ----------------------------------------------------------------------
# Energy reconciliation
# ----------------------------------------------------------------------
class TestReconciliation:
    def test_tx_energy_matches_ledger_exactly(self):
        scenario, _, _, tracer = _traced(_config(), spans=True)
        rows = reconcile_spans(tracer.store, scenario)
        tx_rows = [r for r in rows if r["state"] == "tx"]
        assert tx_rows
        for row in tx_rows:
            # settle/air/tail partition the ledger's TX ticks and use
            # its exact I*V coefficient; only float addition order
            # differs.
            assert row["span_j"] == pytest.approx(row["ledger_j"],
                                                  rel=1e-9)

    def test_partial_coverage_is_positive_and_bounded(self):
        scenario, _, _, tracer = _traced(_config(), spans=True)
        for row in reconcile_spans(tracer.store, scenario):
            if row["state"] in ("rx", "active"):
                assert 0.0 < row["coverage"] <= 1.0 + 1e-9, row


# ----------------------------------------------------------------------
# Exporters and rollups
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        _, _, _, tracer = _traced(_config(), spans=True)
        path = tmp_path / "spans.jsonl"
        count = write_spans_jsonl(tracer.store, str(path))
        assert count == len(tracer.store)
        records = read_jsonl(path)
        assert len(records) == count
        first = records[0]
        assert first["kind"] == "span"
        detail = json.loads(first["detail"])
        assert {"span_id", "trace_id", "name", "energy_j",
                "status"} <= set(detail)

    def test_perfetto_shape(self, tmp_path):
        _, _, _, tracer = _traced(_config(), spans=True)
        payload = to_perfetto(tracer.store)
        events = payload["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(spans) == len(tracer.store)
        assert {m["args"]["name"] for m in metas} == {
            s.node for s in tracer.store.spans}
        for event in spans:
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
        path = tmp_path / "trace.json"
        assert write_perfetto(tracer.store, str(path)) == len(events)
        assert json.loads(path.read_text()) == payload

    def test_rollup_metrics(self):
        _, _, _, tracer = _traced(_config(), spans=True)
        registry = MetricsRegistry()
        rollup_spans(tracer.store, registry)
        snapshot = registry.snapshot()
        assert any(key.endswith("latency_ms")
                   for key in snapshot["histograms"])
        assert any(key.endswith("energy_by_phase_uj")
                   for key in snapshot["state_timers"])
        recorded = sum(
            value for key, value in snapshot["counters"].items()
            if key.endswith("spans_recorded"))
        assert recorded == len(tracer.store)

    def test_attribution_report_renders(self):
        scenario, _, _, tracer = _traced(_config(), spans=True)
        text = attribution_report(tracer.store, scenario)
        assert "Causal span attribution" in text
        assert "phy.air" in text
        assert "reconciliation vs power-state ledgers" in text
        assert "float addition order" in text


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestSpansCli:
    def test_spans_subcommand(self, capsys):
        assert main(["spans", "--nodes", "2", "--measure-s", "1"]) == 0
        out = capsys.readouterr().out
        assert "Causal span attribution" in out
        assert "coverage" in out

    def test_run_with_span_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "s.jsonl"
        perfetto = tmp_path / "s.perfetto.json"
        metrics = tmp_path / "m.json"
        assert main(["run", "--nodes", "2", "--measure-s", "1",
                     "--spans", str(jsonl),
                     "--spans-perfetto", str(perfetto),
                     "--metrics", str(metrics)]) == 0
        assert read_jsonl(jsonl)
        assert json.loads(perfetto.read_text())["traceEvents"]
        snapshot = json.loads(metrics.read_text())
        assert any(key.startswith("spans/")
                   for key in snapshot["counters"])

    def test_batch_command_merges_spans(self, tmp_path, capsys):
        jsonl = tmp_path / "t1.jsonl"
        assert main(["table1", "--measure-s", "1", "--jobs", "2",
                     "--spans", str(jsonl)]) == 0
        assert read_jsonl(jsonl)


# ----------------------------------------------------------------------
# Satellite: sink robustness
# ----------------------------------------------------------------------
class TestSinkRobustness:
    def test_close_flushes_on_exceptional_unwind(self, tmp_path):
        path = tmp_path / "unwind.jsonl"
        with pytest.raises(RuntimeError):
            with JsonlTraceSink(str(path)) as sink:
                sink.emit(5, "x", "k", "d")
                raise RuntimeError("boom")
        records = read_jsonl(path)
        assert records == [{"t": 5, "source": "x", "kind": "k",
                            "detail": "d"}]

    def test_close_idempotent(self, tmp_path):
        sink = JsonlTraceSink(str(tmp_path / "s.jsonl"))
        sink.emit(1, "a", "k", "d")
        sink.close()
        sink.close()
        with pytest.raises(ValueError):
            sink.emit(2, "a", "k", "d")
