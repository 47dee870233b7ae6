"""Smoke tests: every example script must compile and run end-to-end as
a subprocess (each takes a few seconds)."""

import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


class TestExamples:
    def test_expected_examples_present(self):
        assert set(ALL_EXAMPLES) == {
            "quickstart.py",
            "rpeak_vs_streaming.py",
            "dynamic_join.py",
            "design_space_tuning.py",
            "ward_interference.py",
        }

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_compiles(self, name):
        py_compile.compile(str(EXAMPLES / name), doraise=True)

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_fast_example_runs(self, name):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES / name)],
            capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip()

    def test_every_example_has_a_docstring_and_run_line(self):
        for name in ALL_EXAMPLES:
            text = (EXAMPLES / name).read_text()
            assert text.lstrip().startswith(("#!", '"""')), name
            assert "Run:" in text, f"{name} lacks a Run: line"
