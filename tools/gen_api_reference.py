#!/usr/bin/env python3
"""Generate docs/api_reference.md from the package's docstrings.

Walks every module under ``repro`` and renders a markdown index of its
public items: classes and functions with their first docstring line,
each class's public properties with theirs, and the constants a
module's ``__all__`` names, with the first line of the ``#:`` comment
above them.  Run after API changes, from anywhere:

    python tools/gen_api_reference.py

It writes the file itself, and only once the whole reference has been
generated, so a failing import leaves the committed file as it was.
The test suite checks the committed file is current
(`tests/test_api_reference.py`), so the reference cannot drift.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import sys
from functools import cached_property
from pathlib import Path
from types import ModuleType
from typing import Any, Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

#: Where the reference is written.
OUTPUT = ROOT / "docs" / "api_reference.md"


def first_line(obj: Any) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(undocumented)"
    return doc.splitlines()[0].strip()


def constant_comments(module: ModuleType) -> Dict[str, str]:
    """For each name a top-level assignment in ``module`` binds, the
    first line of the ``#:`` comment block right above it ("" when
    there is none)."""
    source = inspect.getsource(module)
    lines = source.splitlines()
    comments = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        start = node.lineno - 1
        while start > 0 and lines[start - 1].lstrip().startswith("#:"):
            start -= 1
        comment = (lines[start].strip()[2:].strip()
                   if start < node.lineno - 1 else "")
        for target in targets:
            if isinstance(target, ast.Name):
                comments[target.id] = comment
    return comments


def public_properties(cls: type) -> List[Tuple[str, str]]:
    """(name, first docstring line) of each public property ``cls``
    defines itself, in definition order."""
    return [(name, first_line(attr)) for name, attr in vars(cls).items()
            if not name.startswith("_")
            and isinstance(attr, (property, cached_property))]


def public_members(module: ModuleType) -> List[str]:
    """The module's entries, one markdown line each."""
    names = getattr(module, "__all__", None)
    constants: Dict[str, str] = {}
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    else:
        constants = constant_comments(module)
    lines = []
    for name in names:
        obj = getattr(module, name, None)
        if obj is None:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # Only members defined in this module (skip re-exports).
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"- **{kind} `{name}`** — {first_line(obj)}")
            if inspect.isclass(obj):
                lines.extend(f"  - **property `{prop}`** — {doc}"
                             for prop, doc in public_properties(obj))
        elif name in constants:
            # A constant this module assigns (a re-export is imported).
            entry = f"- **const `{name}`** (`{type(obj).__name__}`)"
            comment = constants[name]
            lines.append(f"{entry} — {comment}" if comment else entry)
    return lines


def iter_modules() -> Iterator[ModuleType]:
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


def generate() -> str:
    lines = [
        "# API reference",
        "",
        "One line per public item, generated from docstrings by",
        "`tools/gen_api_reference.py` — regenerate after API changes.",
    ]
    for module in sorted(iter_modules(), key=lambda m: m.__name__):
        members = public_members(module)
        if not members and not (module.__doc__ or "").strip():
            continue
        lines.append("")
        lines.append(f"## `{module.__name__}`")
        summary = first_line(module)
        if summary != "(undocumented)":
            lines.append("")
            lines.append(summary)
        if members:
            lines.append("")
            lines.extend(members)
    return "\n".join(lines) + "\n"


def main() -> int:
    text = generate()
    OUTPUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUTPUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
