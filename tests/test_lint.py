"""Tests for the determinism & simulation-safety linter (repro.lint).

Every rule is exercised in both directions — it must fire on the
violating fixture and stay silent on the compliant variant — plus the
suppression machinery (including missing-reason rejection), the JSON
reporter schema, rule selection, the CLI, the one-walk-per-tree
contract, and the meta-test that ``src/repro`` itself lints clean.
"""

import ast
import io
import json
import pathlib
import shutil
import subprocess
import sys
import tokenize

import pytest

from repro.lint import (
    ANALYSIS_RULES,
    LintConfig,
    RULES,
    all_rule_codes,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.lint.cli import main as lint_main
from repro.lint.config import DET002_ALLOW
from repro.lint.engine import parse_suppressions
from repro.lint.report import SCHEMA_VERSION, report_to_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def rules_fired(source, module_path="x.py", config=None):
    """Rule codes of the unsuppressed findings for a snippet."""
    findings = lint_source(source, "<fixture>", config or LintConfig(),
                           module_path=module_path)
    return [f.rule for f in findings if not f.suppressed]


# ----------------------------------------------------------------------
# Per-rule fixtures: each fires on the violation, not on the fix
# ----------------------------------------------------------------------
class TestDet001GlobalRng:
    def test_module_level_draw_fires(self):
        assert rules_fired("import random\nx = random.random()\n") \
            == ["DET001"]

    def test_global_seed_and_shuffle_fire(self):
        source = "import random\nrandom.seed(3)\nrandom.shuffle(xs)\n"
        assert rules_fired(source) == ["DET001", "DET001"]

    def test_import_of_draw_function_fires(self):
        assert rules_fired("from random import randint\n") == ["DET001"]

    def test_numpy_global_draw_fires(self):
        assert rules_fired(
            "import numpy as np\nx = np.random.rand(4)\n") == ["DET001"]

    def test_numpy_random_submodule_alias_fires(self):
        source = "from numpy import random as nr\nx = nr.normal()\n"
        assert rules_fired(source) == ["DET001"]

    def test_seeded_instances_are_legal(self):
        # Seed-derived construction: legal under DET001 *and* the RNG
        # provenance pass (literal seeds are RNG002's business).
        source = (
            "import random\n"
            "import numpy as np\n"
            "def make(seed):\n"
            "    r = random.Random(seed)\n"
            "    x = r.random()\n"
            "    g = np.random.default_rng(seed + 1)\n"
            "    return r, g, x\n"
            "from random import Random\n")
        assert rules_fired(source) == []


class TestDet002WallClock:
    def test_time_module_read_fires(self):
        assert rules_fired("import time\nt = time.time()\n") \
            == ["DET002"]

    def test_perf_counter_import_and_call_fire(self):
        source = "from time import perf_counter\nt = perf_counter()\n"
        assert rules_fired(source) == ["DET002", "DET002"]

    def test_datetime_now_fires(self):
        source = "from datetime import datetime\nx = datetime.now()\n"
        assert rules_fired(source) == ["DET002"]

    def test_time_sleep_is_not_a_clock_read(self):
        assert rules_fired("import time\ntime.sleep(1)\n") == []

    def test_allowlisted_file_is_exempt(self):
        assert "obs/profiler.py" in DET002_ALLOW
        source = "from time import perf_counter\nt = perf_counter()\n"
        assert rules_fired(source, "obs/profiler.py") == []
        assert rules_fired(source, "mac/base.py") == ["DET002", "DET002"]


class TestDet003SetIteration:
    def test_set_literal_iteration_fires(self):
        assert rules_fired("for x in {1, 2}:\n    pass\n",
                           "sim/kernel.py") == ["DET003"]

    def test_set_call_iteration_fires(self):
        assert rules_fired("for x in set(items):\n    pass\n",
                           "mac/base.py") == ["DET003"]

    def test_known_set_variable_fires(self):
        source = "seen = set()\nout = [x for x in seen]\n"
        assert rules_fired(source, "net/scenario.py") == ["DET003"]

    def test_annotated_set_argument_fires(self):
        source = ("from typing import Set\n"
                  "def f(pending: Set[str]) -> None:\n"
                  "    for item in pending:\n"
                  "        pass\n")
        assert rules_fired(source, "mac/slots.py") == ["DET003"]

    def test_list_of_set_fires(self):
        assert rules_fired("xs = list({1, 2})\n", "sim/events.py") \
            == ["DET003"]

    def test_sorted_set_is_legal(self):
        source = "s = {1, 2}\nfor x in sorted(s):\n    pass\n"
        assert rules_fired(source, "sim/kernel.py") == []

    def test_dict_iteration_is_legal(self):
        # Dict views are insertion-ordered: deterministic.
        source = "d = {'a': 1}\nfor k in d:\n    pass\n"
        assert rules_fired(source, "sim/kernel.py") == []

    def test_outside_ordered_packages_is_silent(self):
        assert rules_fired("for x in {1, 2}:\n    pass\n",
                           "analysis/sweep.py") == []


class TestFlt001FloatEquality:
    def test_energy_name_fires(self):
        assert rules_fired("ok = energy_mj == 0.0\n") == ["FLT001"]

    def test_attribute_name_fires(self):
        assert rules_fired("ok = a.elapsed_s != b.elapsed_s\n") \
            == ["FLT001"]

    def test_fractional_literal_fires(self):
        assert rules_fired("ok = x == 2.5\n") == ["FLT001"]

    def test_zero_sentinel_on_neutral_name_is_legal(self):
        # `per == 0.0` style disabled-feature guards are exact.
        assert rules_fired("ok = magnitude == 0.0\n") == []

    def test_ordering_comparisons_are_legal(self):
        assert rules_fired("ok = energy_mj > 0.0\n") == []


class TestExc001BroadExcept:
    def test_except_exception_fires(self):
        source = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert rules_fired(source) == ["EXC001"]

    def test_bare_except_fires(self):
        source = "try:\n    f()\nexcept:\n    pass\n"
        assert rules_fired(source) == ["EXC001"]

    def test_tuple_with_base_exception_fires(self):
        source = ("try:\n    f()\n"
                  "except (ValueError, BaseException):\n    pass\n")
        assert rules_fired(source) == ["EXC001"]

    def test_narrow_except_is_legal(self):
        source = "try:\n    f()\nexcept (OSError, ValueError):\n    pass\n"
        assert rules_fired(source) == []


class TestMut001MutableDefaults:
    def test_list_default_fires(self):
        assert rules_fired("def f(x=[]):\n    pass\n") == ["MUT001"]

    def test_dict_call_default_fires(self):
        assert rules_fired("def f(*, x=dict()):\n    pass\n") \
            == ["MUT001"]

    def test_none_and_tuple_defaults_are_legal(self):
        assert rules_fired("def f(x=None, y=()):\n    pass\n") == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    SOURCE = "try:\n    f()\nexcept Exception:{comment}\n    pass\n"

    def test_reasoned_same_line_waiver_suppresses(self):
        source = self.SOURCE.format(
            comment="  # lint: allow(EXC001): isolated and re-raised")
        findings = lint_source(source, "<fixture>", LintConfig())
        assert [f.rule for f in findings] == ["EXC001"]
        assert findings[0].suppressed
        assert findings[0].reason == "isolated and re-raised"

    def test_standalone_line_waiver_covers_next_line(self):
        source = ("try:\n    f()\n"
                  "# lint: allow(EXC001): crash containment\n"
                  "except Exception:\n    pass\n")
        findings = lint_source(source, "<fixture>", LintConfig())
        assert [f.suppressed for f in findings] == [True]

    def test_missing_reason_rejected_and_reported(self):
        source = self.SOURCE.format(comment="  # lint: allow(EXC001)")
        findings = lint_source(source, "<fixture>", LintConfig())
        rules = sorted(f.rule for f in findings if not f.suppressed)
        assert rules == ["EXC001", "SUP001"]

    def test_empty_reason_rejected(self):
        source = self.SOURCE.format(comment="  # lint: allow(EXC001):  ")
        rules = sorted(rules_fired(source))
        assert rules == ["EXC001", "SUP001"]

    def test_wrong_code_does_not_suppress(self):
        # The EXC001 finding survives, and the DET001 waiver — wrong
        # rule, so it guards nothing — is itself reported stale.
        source = self.SOURCE.format(
            comment="  # lint: allow(DET001): not the right rule")
        assert sorted(rules_fired(source)) == ["EXC001", "SUP002"]

    def test_multi_code_waiver(self):
        source = ("import time\n"
                  "t = time.time()  "
                  "# lint: allow(DET002, FLT001): bench-only path\n")
        findings = lint_source(source, "<fixture>", LintConfig())
        # DET002 is suppressed; the FLT001 half of the waiver is stale
        # (nothing float-compares on that line) and reported as such.
        assert sorted((f.rule, f.suppressed) for f in findings) \
            == [("DET002", True), ("SUP002", False)]

    def test_parse_suppressions_reports_positions(self):
        suppressions, errors = parse_suppressions([
            "x = 1  # lint: allow(DET001): seeded upstream",
            "# lint: allow(DET002)",
        ])
        assert suppressions[0].codes == ("DET001",)
        assert suppressions[0].applies_to == (1,)
        assert errors == [(2, errors[0][1])]
        assert "missing reason" in errors[0][1]


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
class TestReporters:
    def _report(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n"
                       "try:\n    f()\n"
                       "except Exception:  # lint: allow(EXC001): ok here\n"
                       "    pass\n")
        return lint_paths([tmp_path], LintConfig())

    def test_json_schema(self, tmp_path):
        report = self._report(tmp_path)
        document = json.loads(render_json(report))
        assert document["tool"] == "repro.lint"
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["ok"] is False
        assert document["files_scanned"] == 1
        assert document["summary"]["total"] == 1
        assert document["summary"]["suppressed"] == 1
        assert document["summary"]["by_rule"] == {"DET001": 1}
        finding = document["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col",
                                "message", "suppressed", "reason"}
        waived = [f for f in document["findings"] if f["suppressed"]]
        assert waived[0]["reason"] == "ok here"

    def test_json_roundtrip_is_stable(self, tmp_path):
        report = self._report(tmp_path)
        assert render_json(report) == render_json(report)
        assert report_to_dict(report) == json.loads(render_json(report))

    def test_text_reporter_summarises(self, tmp_path):
        report = self._report(tmp_path)
        text = render_text(report)
        assert "DET001" in text
        assert "1 finding(s)" in text
        assert "1 waived" in text

    def test_text_reporter_clean_summary(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths([tmp_path / "ok.py"], LintConfig())
        assert "clean: 1 file(s), 0 findings" in render_text(report)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
class TestConfiguration:
    def test_select_limits_rules(self):
        config = LintConfig(select=("EXC001",))
        source = "import random\nrandom.random()\n"
        assert rules_fired(source, config=config) == []
        assert config.rule_enabled("EXC001")
        assert not config.rule_enabled("DET001")

    def test_rule_registry_complete(self):
        assert all_rule_codes() == (
            "DET001", "DET002", "DET003", "EXC001", "FLT001",
            "FPC001", "FPC002", "LIF001", "LIF002", "LIF003", "LIF004",
            "LIF005", "MUT001", "OBS001", "OBS002", "OBS003",
            "RNG001", "RNG002", "SM001", "SM002", "SM003", "SM004",
            "SM005", "SUP002", "UNI001", "UNI002", "UNI003", "UNI004")
        for rule in RULES.values():
            assert rule.title and rule.rationale
        for rule in ANALYSIS_RULES.values():
            assert rule.title and rule.rationale


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x=[]):\n    pass\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "MUT001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_json_output_file(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\ntime.time()\n")
        out = tmp_path / "report.json"
        code = lint_main([str(tmp_path), "--format", "json",
                          "--output", str(out)])
        assert code == 1
        document = json.loads(out.read_text())
        assert document["summary"]["by_rule"] == {"DET002": 1}
        assert str(out) in capsys.readouterr().out

    def test_select_option(self, tmp_path):
        (tmp_path / "bad.py").write_text("import time\ntime.time()\n")
        assert lint_main([str(tmp_path), "--select", "MUT001"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in all_rule_codes():
            assert code in out

    def test_module_entry_point(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n"
                                         "random.random()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 1
        assert "DET001" in proc.stdout


# ----------------------------------------------------------------------
# One walk per tree: rules and analyses share traversals and comments
# ----------------------------------------------------------------------
FIXTURES = ROOT / "tests" / "fixtures" / "lint"
LINT_PACKAGE = ROOT / "src" / "repro" / "lint"


class TestOneWalkPerTree:
    KEPT_ROOTS = (ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef)

    def test_each_tree_is_walked_and_tokenized_once(self, monkeypatch):
        walks = {}  # id(root) -> [root, count]; the root pins the id
        tokenized = {}  # source -> count
        real_walk = ast.walk
        real_tokens = tokenize.generate_tokens

        def counting_walk(node):
            if isinstance(node, self.KEPT_ROOTS):
                walks.setdefault(id(node), [node, 0])[1] += 1
            return real_walk(node)

        def counting_tokens(readline):
            source = "".join(iter(readline, ""))
            tokenized[source] = tokenized.get(source, 0) + 1
            return real_tokens(io.StringIO(source).readline)

        monkeypatch.setattr(ast, "walk", counting_walk)
        monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
        report = lint_paths([FIXTURES])
        assert report.files_scanned == 9
        assert walks and tokenized
        rewalked = sorted(
            f"{type(root).__name__} at line {getattr(root, 'lineno', 1)}"
            for root, count in walks.values() if count > 1)
        assert rewalked == []
        retokenized = [source.splitlines()[0]
                       for source, count in tokenized.items() if count > 1]
        assert retokenized == []

    def test_only_dataflow_traverses_trees(self):
        # Parsed, not grepped: docstrings may name ast.walk freely.
        banned = {"walk", "iter_child_nodes"}
        offenders = []
        for path in sorted(LINT_PACKAGE.glob("*.py")):
            if path.name == "dataflow.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) \
                        and node.attr in banned \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "ast":
                    offenders.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) \
                        and node.module == "ast" \
                        and banned & {item.name for item in node.names}:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_runs_are_independent(self, request):
        def fixture_run():
            report = lint_paths([FIXTURES])
            extras = {name: value for name, value in report.extras.items()
                      if name != "timings"}
            return report.findings, extras

        first = fixture_run()
        # The session's whole-tree run, first requested here in file
        # order: nothing it walked or tokenized may leak into the next
        # run's trees.
        assert request.getfixturevalue("src_lint_report").files_scanned
        second = fixture_run()
        assert len(first[0]) == 14
        assert second == first


# ----------------------------------------------------------------------
# Meta: the tree itself, and the typing gate
# ----------------------------------------------------------------------
class TestTreeIsClean:
    def test_src_repro_lints_clean(self, src_lint_report):
        """The acceptance gate: zero unsuppressed findings over src."""
        report = src_lint_report
        assert report.ok, render_text(report)

    def test_every_suppression_has_a_reason(self, src_lint_report):
        for finding in src_lint_report.suppressed:
            assert finding.reason, finding

    def test_waivers_are_few_and_in_expected_files(self, src_lint_report):
        # Waivers should stay rare; a jump means rules are being
        # waived instead of followed.
        report = src_lint_report
        assert len(report.suppressed) <= 12, [
            (f.path, f.line) for f in report.suppressed]
        waived_files = {pathlib.Path(f.path).name
                        for f in report.suppressed}
        # ecg.py waives FLT001 for an exact-identity sample memo (a
        # pure-function-of-time source; == is intentional).
        assert waived_files <= {"kernel.py", "ecg.py"}


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed (CI runs it)")
class TestTyping:
    def test_mypy_clean_over_configured_packages(self):
        proc = subprocess.run(
            ["mypy", "--config-file", str(ROOT / "pyproject.toml")],
            capture_output=True, text=True, cwd=ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
