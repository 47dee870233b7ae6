"""Tests for the observability layer (``repro.obs``).

The two load-bearing contracts:

* **Disabled-path neutrality** — a run without a registry executes the
  same code as before the layer existed, and even an *attached*
  registry (pull-based collectors only) changes no energy figure and
  no event count.
* **Merge equality** — ``jobs=2`` merges worker snapshots into exactly
  the counters the sequential path reports.

Plus the satellites that ride along: the JSONL sink round-trip, the
profiler's attribution floor, the O(1) trace eviction, the JSON
exporter and the CLI flags.
"""

import dataclasses
import json

import pytest

from conftest import read_jsonl
from repro.cli import main
from repro.exec import ScenarioExecutor
from repro.net.scenario import BanScenario, BanScenarioConfig
from repro.obs import (
    GLOBAL,
    JsonlTraceSink,
    MetricsRegistry,
    SimulationProfiler,
    SinkTraceRecorder,
    collect_scenario_metrics,
    collect_simulator_metrics,
    normalize_label,
)
from repro.sim.trace import TraceRecorder

#: Short horizon keeping each scenario fast but covering several cycles.
MEASURE_S = 1.0


def _config(**overrides) -> BanScenarioConfig:
    defaults = dict(mac="static", app="ecg_streaming", num_nodes=2,
                    cycle_ms=30.0, measure_s=MEASURE_S, seed=7)
    defaults.update(overrides)
    return BanScenarioConfig(**defaults)


def _energies(result):
    """Exact per-node energy repr strings (byte-identity check)."""
    rows = {}
    for node_id in sorted(result.nodes):
        node = result.nodes[node_id]
        rows[node_id] = (repr(node.radio_mj), repr(node.mcu_mj),
                         repr(node.total_mj))
    return rows


class TestDisabledPathNeutrality:
    def test_attached_registry_changes_nothing(self):
        """Same config, with and without a registry: byte-identical
        energies and identical event counts."""
        plain = BanScenario(_config())
        plain_result = plain.run()

        observed = BanScenario(_config())
        registry = MetricsRegistry()
        observed.sim.metrics = registry
        observed_result = observed.run()
        collect_scenario_metrics(observed, registry)
        collect_simulator_metrics(observed.sim, registry)

        assert _energies(observed_result) == _energies(plain_result)
        assert observed.sim.events_dispatched == plain.sim.events_dispatched
        counted = registry.snapshot()["counters"]
        assert counted["kernel/-/events_dispatched"] \
            == plain.sim.events_dispatched

    def test_profiler_changes_no_energies(self):
        plain_result = BanScenario(_config()).run()
        profiled = BanScenario(_config())
        profiled.sim.profiler = SimulationProfiler()
        assert _energies(profiled.run()) == _energies(plain_result)

    def test_registry_collects_radio_mac_figures(self):
        scenario = BanScenario(_config())
        scenario.run()
        registry = MetricsRegistry()
        collect_scenario_metrics(scenario, registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["mac/base_station/beacons_sent"] > 0
        assert snapshot["counters"]["radio/node1/data_tx"] > 0
        residency = snapshot["state_timers"]["radio/node1/residency_s"]
        assert sum(residency.values()) > 0.0
        energy = snapshot["state_timers"]["radio/node1/energy_mj"]
        node = scenario.nodes[0]
        assert sum(energy.values()) == pytest.approx(node.radio.energy_mj())


class TestMergeEquality:
    def _counters(self, jobs, profile=False):
        base = _config()
        configs = [dataclasses.replace(base, seed=seed)
                   for seed in range(3)]
        registry = MetricsRegistry()
        profiler = SimulationProfiler() if profile else None
        executor = ScenarioExecutor(jobs=jobs, metrics=registry,
                                    profiler=profiler)
        results = executor.run_configs(configs)
        return registry.snapshot(), results

    def test_jobs2_counters_equal_sequential(self):
        sequential, seq_results = self._counters(jobs=1)
        parallel, par_results = self._counters(jobs=2)
        assert parallel["counters"] == sequential["counters"]
        assert parallel["state_timers"] == sequential["state_timers"]
        assert par_results == seq_results

    def test_exec_batch_metrics_present(self):
        snapshot, _ = self._counters(jobs=2)
        assert snapshot["counters"]["exec/-/scenarios_run"] == 3
        assert snapshot["gauges"]["exec/-/workers"] == 2.0
        wall = snapshot["histograms"]["exec/-/scenario_wall_s"]
        assert wall["count"] == 3

    def test_profiler_merges_across_workers(self):
        base = _config()
        configs = [dataclasses.replace(base, seed=seed)
                   for seed in range(2)]
        profiler = SimulationProfiler()
        ScenarioExecutor(jobs=2, profiler=profiler).run_configs(configs)
        assert profiler.events > 0
        assert profiler.attributed_fraction >= 0.95

    def test_merge_snapshot_counters_add_gauges_overwrite(self):
        a = MetricsRegistry()
        a.counter("mac", "node1", "data_sent").inc(3)
        a.gauge("mac", "node1", "slot").set(2.0)
        b = MetricsRegistry()
        b.counter("mac", "node1", "data_sent").inc(4)
        b.gauge("mac", "node1", "slot").set(5.0)
        a.merge_snapshot(b.snapshot())
        snapshot = a.snapshot()
        assert snapshot["counters"]["mac/node1/data_sent"] == 7
        assert snapshot["gauges"]["mac/node1/slot"] == 5.0


class TestTraceSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        recorder = SinkTraceRecorder([sink], capacity=2)
        recorder.record(10, "node1.radio", "tx", "frame 1")
        recorder.record(20, "node1.radio", "rx", "frame 2")
        recorder.record(30, "node1.mac", "sync", "")
        recorder.close()
        records = read_jsonl(path)
        assert [r["t"] for r in records] == [10, 20, 30]
        assert records[2]["source"] == "node1.mac"
        # The in-memory view honoured its capacity independently.
        assert len(recorder) == 2
        assert recorder.total_recorded == 3
        assert sink.emitted == 3

    def test_jsonl_lines_are_plain_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(str(path)) as sink:
            sink.emit(5, "src", "kind", "detail")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"t": 5, "source": "src",
                                        "kind": "kind",
                                        "detail": "detail"}

    def test_scenario_streams_through_sink(self, tmp_path):
        path = tmp_path / "scenario.jsonl"
        sink = JsonlTraceSink(str(path))
        scenario = BanScenario(
            _config(), trace=SinkTraceRecorder([sink]))
        scenario.run()
        sink.close()
        records = read_jsonl(path)
        assert records
        times = [record["t"] for record in records]
        assert times == sorted(times)


class TestTraceEviction:
    def test_deque_eviction_is_bounded(self):
        recorder = TraceRecorder(capacity=3)
        for index in range(10):
            recorder.record(index, "s", "k", str(index))
        assert [record.detail for record in recorder] == ["7", "8", "9"]
        assert recorder.total_recorded == 10
        assert recorder.capacity == 3


class TestProfiler:
    def test_attribution_floor(self):
        scenario = BanScenario(_config())
        profiler = SimulationProfiler()
        scenario.sim.profiler = profiler
        scenario.run()
        assert profiler.events == scenario.sim.events_dispatched
        assert profiler.attributed_fraction >= 0.95
        table = profiler.render_table()
        assert "(kernel dispatch)" in table
        assert "sim-s/wall-s" in table

    def test_labels_normalised(self):
        assert normalize_label("node12.mac.rxon") == "node*.mac.rxon"
        assert normalize_label("base_station.mac.beacon") \
            == "base_station.mac.beacon"
        scenario = BanScenario(_config())
        profiler = SimulationProfiler()
        scenario.sim.profiler = profiler
        scenario.run()
        labels = set(profiler.labels)
        assert any(label.startswith("node*.") for label in labels)
        assert not any("node1." in label for label in labels)


class TestExporters:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("mac", "node1", "data_sent").inc(4)
        registry.gauge("kernel", GLOBAL, "queue_depth").set(7.0)
        registry.histogram("exec", GLOBAL,
                           "scenario_wall_s").observe(0.25)
        registry.state_timer("radio", "node1",
                             "residency_s").add("rx", 1.5)
        return registry

    def test_json_round_trip(self):
        registry = self._populated()
        decoded = json.loads(registry.to_json())
        restored = MetricsRegistry()
        restored.merge_snapshot(decoded)
        assert restored.snapshot() == registry.snapshot()


class TestCliFlags:
    def test_run_writes_metrics_trace_and_profile(self, tmp_path,
                                                  capsys):
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        code = main(["run", "--app", "rpeak", "--nodes", "2",
                     "--measure-s", "1",
                     "--metrics", str(metrics_path),
                     "--trace-jsonl", str(trace_path), "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(kernel dispatch)" in out
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["kernel/-/events_dispatched"] > 0
        assert snapshot["counters"]["mac/base_station/beacons_sent"] > 0
        assert read_jsonl(trace_path)
