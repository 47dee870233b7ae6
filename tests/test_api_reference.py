"""The committed API reference must match the generated one, every
public item must carry a docstring, and the retention table must list
every simulator module."""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from gen_api_reference import generate  # noqa: E402


class TestApiReference:
    def test_reference_is_current(self):
        committed = (ROOT / "docs" / "api_reference.md").read_text()
        assert generate() == committed, (
            "docs/api_reference.md is stale; regenerate with "
            "python tools/gen_api_reference.py")

    def test_no_undocumented_public_items(self):
        text = (ROOT / "docs" / "api_reference.md").read_text()
        assert "(undocumented)" not in text
        # A constant prints its #: comment after a dash, or nothing.
        bare = re.findall(r"^- \*\*const `\w+`\*\* \(`[^`]*`\)$", text,
                          re.M)
        assert not bare, bare

    def test_reference_covers_every_package(self):
        text = (ROOT / "docs" / "api_reference.md").read_text()
        for package in ("repro.sim", "repro.core", "repro.tinyos",
                        "repro.hw", "repro.phy", "repro.mac",
                        "repro.apps", "repro.signals", "repro.net",
                        "repro.analysis", "repro.baselines",
                        "repro.data", "repro.exec"):
            assert f"`{package}" in text, package


def test_retention_table_lists_every_module():
    """docs/architecture.md has one retention row per module outside
    ``repro.lint``, and each row names what reaches the module."""
    text = (ROOT / "docs" / "architecture.md").read_text()
    table = text.split("## Retention table", 1)[1]
    rows = re.findall(r"^\| `([\w/]+\.py)` \| (.*) \|$", table, re.M)
    src = ROOT / "src" / "repro"
    modules = sorted(
        path.relative_to(src).as_posix() for path in src.rglob("*.py")
        if path.relative_to(src).parts[0] != "lint"
        and path.stem not in ("__init__", "__main__"))
    assert sorted(module for module, _ in rows) == modules
    assert all(reached.strip() for _, reached in rows)
