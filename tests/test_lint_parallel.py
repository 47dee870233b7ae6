"""Tests for parallel linting (``lint_paths(..., jobs=N)``).

The contract is byte-identity: a pool run must produce exactly the
findings of a sequential run — same rules, same locations, same
messages, same suppression state — with only the timing extras
allowed to differ.  That holds on any machine.  Wall time is not
asserted: whether the pool pays off depends on the host's free cores.
"""

import dataclasses
import pathlib

import pytest

from repro.lint import LintConfig, lint_paths, load_config
from repro.lint.cli import main as lint_main
from repro.lint.report import finding_to_dict, render_json

ROOT = pathlib.Path(__file__).resolve().parent.parent

FILES = {
    "rng.py": "import random\nVALUE = random.random()\n",
    "waived.py": ("import random\nV = random.random()"
                  "  # lint: allow(DET001): fixture\n"),
    "clean.py": "X = 1\n",
    "leak.py": (ROOT / "tests" / "fixtures" / "lint"
                / "leaked_radio.py").read_text(encoding="utf-8"),
}


@pytest.fixture()
def tree(tmp_path):
    for name, source in FILES.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    return tmp_path


def _dicts(report):
    return [finding_to_dict(f) for f in report.findings]


class TestByteIdentity:
    def test_findings_identical_over_fixture_tree(self, tree):
        seq = lint_paths([tree], LintConfig())
        par = lint_paths([tree], LintConfig(), jobs=2)
        assert seq.findings  # the tree is seeded with real findings
        assert _dicts(seq) == _dicts(par)
        assert seq.ok == par.ok
        assert seq.files_scanned == par.files_scanned

    def test_findings_identical_over_lint_package(self):
        target = ROOT / "src" / "repro" / "lint"
        config = load_config([target])
        seq = lint_paths([target], config)
        par = lint_paths([target], config, jobs=3)
        assert _dicts(seq) == _dicts(par)

    def test_json_reports_differ_only_in_timings(self, tree):
        import json
        seq = json.loads(render_json(lint_paths([tree], LintConfig())))
        par = json.loads(render_json(lint_paths([tree], LintConfig(),
                                                jobs=2)))
        seq["analyses"].pop("timings")
        par["analyses"].pop("timings")
        assert seq == par

    def test_rule_selection_respected_in_pool(self, tree):
        config = dataclasses.replace(LintConfig(),
                                     select=("LIF001", "LIF004"))
        seq = lint_paths([tree], config)
        par = lint_paths([tree], config, jobs=2)
        assert _dicts(seq) == _dicts(par)
        assert {f.rule for f in par.findings} <= {"LIF001", "LIF004"}


class TestTimingExtras:
    def test_pool_run_reports_jobs_and_wall(self, tree):
        par = lint_paths([tree], LintConfig(), jobs=2)
        timings = par.extras["timings"]
        assert timings["jobs"] == 2
        assert timings["pool_wall"] > 0
        # The pool tasks mirror the sequential analysis names.
        for name in ("interproc", "units", "statemachine", "rngprov"):
            assert name in timings

    def test_sequential_run_has_no_pool_keys(self, tree):
        seq = lint_paths([tree], LintConfig())
        assert "jobs" not in seq.extras["timings"]
        assert "pool_wall" not in seq.extras["timings"]


class TestCacheInteraction:
    def test_pool_run_populates_cache_like_sequential(self, tree,
                                                      tmp_path):
        from repro.lint.cache import LintCache
        config = LintConfig()
        cache_dir = tmp_path / "cache"
        cache = LintCache(cache_dir, config)
        first = lint_paths([tree], config, cache=cache, jobs=2)
        warm = LintCache(cache_dir, config)
        second = lint_paths([tree], config, cache=warm)
        assert _dicts(first) == _dicts(second)
        stats = second.extras["cache"]
        assert stats["file_hits"] == first.files_scanned


class TestCli:
    def test_jobs_flag_runs_and_gates(self, tree, capsys):
        assert lint_main([str(tree), "--jobs", "2"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_jobs_zero_is_usage_error(self, tree, capsys):
        assert lint_main([str(tree), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err


def test_parallel_matches_sequential_over_src():
    """A cold ``--jobs 4`` run over the whole source tree finds exactly
    what a sequential run finds.  Wall time is not asserted: whether
    the pool pays off depends on the host's free cores."""
    target = ROOT / "src"
    config = load_config([target])
    seq = lint_paths([target], config)
    par = lint_paths([target], config, jobs=4)
    assert _dicts(seq) == _dicts(par)
