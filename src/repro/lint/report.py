"""Lint reporters: human-readable text and machine-readable JSON.

The JSON document is the CI artifact (schema below); the text form is
what developers read locally.  Suppressed findings appear in both —
with their reasons — so waivers stay auditable instead of invisible.

JSON schema (``schema_version`` 5)::

    {
      "tool": "repro.lint",
      "schema_version": 5,
      "ok": bool,                 # gate: no unsuppressed findings
      "files_scanned": int,
      "summary": {
        "total": int,             # unsuppressed
        "suppressed": int,
        "stale_waivers": int,     # SUP002 findings (incl. waived)
        "by_rule": {"EXC001": int, ...}
      },
      "findings": [
        {"rule": str, "path": str, "line": int, "col": int,
         "message": str, "suppressed": bool, "reason": str|null},
        ...
      ],
      "analyses": {               # tree-analysis artifacts
        "state_machines": {       # per TransitionSpec component
          "radio": {"module": str, "class": str, "initial": str,
                    "states": [...], "declared": [[src, dst], ...],
                    "encoded": [[src, dst], ...]},
          ...
        },
        "call_graph": {           # whole-tree may-call graph
          "functions": int, "classes": int, "call_sites": int,
          "resolved_call_sites": int,
          "edges": [[caller_qualname, callee_qualname], ...]
        },
        "effects": {              # fixed-point effect inference
          "lattice": [...], "forbidden_in_hooks": [...],
          "functions": {"module::Class.method": ["io", ...], ...},
          "pure_pins": [...],
          "hooks": {"span_guards": [...], "hook_methods": [...]}
        },
        "fingerprint": {          # cache-fingerprint closure
          "roots": [...], "closure": [...],
          "checked_dataclasses": [...]
        },
        "lifecycle": {            # typestate verification artifacts
          "specs": [{"resource": str, "module": str,
                     "classes": [...], "boundary": [[a, r], ...]},
                    ...],
          "functions_walked": int,
          "boundary_obligations": int
        },
        "timings": {"units": float, "interproc": float, ...}
      }
    }

Version 2 added ``analyses`` (the verified state-machine graphs, so CI
artifacts double as machine-readable documentation of each component's
power-state topology) and ``summary.stale_waivers``.  Version 3 added
the interprocedural artifacts — ``call_graph``, per-function
``effects``, the ``fingerprint`` closure — and per-analysis
``timings``.  Version 4 added the ``lifecycle`` artifacts (the
declared protocols and how many boundary obligations were proven).
Version 5 drops what the removed cache and process pool published:
``timings.jobs``, ``timings.pool_wall`` and ``analyses.cache``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .engine import STALE_RULE, Finding, LintReport

SCHEMA_VERSION = 5


def finding_to_dict(finding: Finding) -> Dict[str, Any]:
    """One finding as a plain JSON-serialisable dict."""
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
        "suppressed": finding.suppressed,
        "reason": finding.reason,
    }


def report_to_dict(report: LintReport) -> Dict[str, Any]:
    """The full report as the schema-versioned JSON document."""
    return {
        "tool": "repro.lint",
        "schema_version": SCHEMA_VERSION,
        "ok": report.ok,
        "files_scanned": report.files_scanned,
        "summary": {
            "total": len(report.unsuppressed),
            "suppressed": len(report.suppressed),
            "stale_waivers": sum(1 for f in report.findings
                                 if f.rule == STALE_RULE),
            "by_rule": report.counts_by_rule(),
        },
        "findings": [finding_to_dict(f) for f in report.findings],
        "analyses": report.extras,
    }


def render_json(report: LintReport) -> str:
    """Serialise the report (stable key order, trailing newline)."""
    return json.dumps(report_to_dict(report), indent=2,
                      sort_keys=True) + "\n"


def render_text(report: LintReport, verbose_suppressed: bool = False
                ) -> str:
    """``path:line:col: CODE message`` lines plus a summary footer."""
    lines: List[str] = []
    for finding in report.findings:
        if finding.suppressed and not verbose_suppressed:
            continue
        marker = " (suppressed: %s)" % finding.reason \
            if finding.suppressed else ""
        lines.append(f"{finding.path}:{finding.line}:{finding.col}: "
                     f"{finding.rule} {finding.message}{marker}")
    unsuppressed = len(report.unsuppressed)
    suppressed = len(report.suppressed)
    if unsuppressed:
        by_rule = ", ".join(f"{code}×{count}" for code, count
                            in report.counts_by_rule().items())
        lines.append(f"{unsuppressed} finding(s) [{by_rule}] in "
                     f"{report.files_scanned} file(s); "
                     f"{suppressed} waived")
    else:
        lines.append(f"clean: {report.files_scanned} file(s), "
                     f"0 findings, {suppressed} reasoned waiver(s)")
    return "\n".join(lines) + "\n"


__all__ = ["SCHEMA_VERSION", "finding_to_dict", "render_json",
           "render_text", "report_to_dict"]
