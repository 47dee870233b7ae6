"""Regression tests for the resource leaks the lifecycle lint found.

The LIF001/LIF004 findings over the shipped tree were real bugs, not
lint noise: periodic snapshotters could never be disarmed, and a CLI
command that aborted mid-run lost its trace file un-flushed.  Each
test here fails against the pre-fix code and pins the repaired
behaviour.
"""

import argparse
import json

from repro.cli import _Observability
from repro.obs.instrument import (PeriodicSnapshotter,
                                  attach_periodic_snapshots)
from repro.obs.metrics import MetricsRegistry
from repro.sim.simtime import seconds


class TestSnapshotterStop:
    def test_stop_disarms_future_fires(self, sim):
        registry = MetricsRegistry()
        snap = attach_periodic_snapshots(sim, registry, period_s=0.1)
        sim.run_until(seconds(1.05))
        taken = snap.samples
        assert taken >= 10
        snap.stop()
        sim.run_until(seconds(5.0))
        assert snap.samples == taken

    def test_stop_before_any_fire(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        sim.run_until(seconds(2.0))
        assert snap.samples == 0

    def test_stop_is_idempotent_and_rearmable(self, sim):
        registry = MetricsRegistry()
        snap = PeriodicSnapshotter(sim, None, registry, period_s=0.1)
        snap.start()
        snap.stop()
        snap.stop()  # no-op, not an error
        snap.start()  # a stopped snapshotter may be re-armed
        sim.run_until(seconds(0.55))
        assert snap.samples == 5


class TestObservabilityUnwind:
    def _obs(self, trace_path):
        args = argparse.Namespace(metrics=None, trace_jsonl=trace_path,
                                  metrics_period=5.0, profile=False,
                                  spans=None, spans_perfetto=None,
                                  command="run")
        return _Observability(args)

    def test_close_flushes_sink_without_finish(self, tmp_path):
        """The unwind backstop: an aborted command still gets its
        trace records on disk."""
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        recorder = obs.make_trace()
        recorder.record(0, "node1", "boot", "")
        recorder.record(10, "node1", "tx", "frame=1")
        obs.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["kind"] == "tx"

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs = self._obs(str(path))
        obs.make_trace().record(0, "node1", "boot", "")
        obs.close()
        obs.close()
        assert len(path.read_text(encoding="utf-8")
                   .splitlines()) == 1

    def test_close_without_sink_is_noop(self, tmp_path):
        obs = self._obs(None)
        obs.close()  # no trace requested: nothing to flush
