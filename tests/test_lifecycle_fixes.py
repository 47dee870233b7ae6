"""Regression tests for the resource leak the lifecycle lint found.

The LIF004 finding over the shipped tree was a real bug, not lint
noise: a CLI command that aborted mid-run lost its trace file
un-flushed.  Each test here fails against the pre-fix code and pins
the repaired behaviour.
"""

import argparse
import json

from repro.cli import _Observability


class TestObservabilityUnwind:
    def _obs(self, trace_path):
        args = argparse.Namespace(metrics=None, trace_jsonl=trace_path,
                                  profile=False, spans=None,
                                  spans_perfetto=None, command="run")
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
