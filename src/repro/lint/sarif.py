"""SARIF 2.1.0 export of a lint report.

SARIF (Static Analysis Results Interchange Format) is the OASIS
standard GitHub code scanning ingests: uploading ``lint.sarif`` from
the CI lint job makes every finding annotate the pull request at its
``path:line`` instead of living in a build log.

The document is one ``run`` of the ``repro.lint`` driver: the full
rule catalog (including the synthetic parse/suppression rules) goes
into ``tool.driver.rules`` so viewers can show titles and rationale,
and every finding becomes a ``result`` with a physical location.
Waived findings are exported too — as suppressed results (``kind:
"inSource"`` with the waiver reason as justification) — so code
scanning shows the waiver trail rather than silently dropping it,
mirroring how the text and JSON reporters keep suppressions visible.

Like :func:`repro.lint.report.render_json`, serialisation is stable
(sorted keys, trailing newline) so repeat runs are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from .engine import (PARSE_RULE, STALE_RULE, SUPPRESSION_RULE, Finding,
                     LintReport)
from .rules import iter_rules

#: The SARIF version the exported log declares.
SARIF_VERSION = "2.1.0"
#: URL of the JSON schema for that SARIF version.
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: Rules that exist only as engine plumbing, not catalog entries.
_SYNTHETIC_RULES: Tuple[Tuple[str, str, str], ...] = (
    (PARSE_RULE, "file parses",
     "A file that does not parse cannot be verified at all; every "
     "other guarantee is vacuous until it does."),
    (SUPPRESSION_RULE, "well-formed waivers",
     "A malformed '# lint: allow(...)' comment suppresses nothing; "
     "the waiver the author thought they had does not exist."),
)


def _rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, title, rationale)`` for every exportable rule."""
    catalog: List[Tuple[str, str, str]] = [
        (rule.code, rule.title, rule.rationale)
        for rule in iter_rules()]
    known = {code for code, _, _ in catalog}
    for code, title, rationale in _SYNTHETIC_RULES:
        if code not in known:
            catalog.append((code, title, rationale))
    catalog.sort(key=lambda item: item[0])
    return catalog


def _level(finding: Finding) -> str:
    """SARIF severity: everything gates CI, so findings are errors."""
    if finding.rule == STALE_RULE:
        return "warning"  # housekeeping: a waiver outlived its finding
    return "error"


def _result(finding: Finding,
            rule_index: Dict[str, int]) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule,
        "level": _level(finding),
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path.replace("\\", "/"),
                },
                "region": {
                    "startLine": max(1, finding.line),
                    "startColumn": max(1, finding.col),
                },
            },
        }],
    }
    index = rule_index.get(finding.rule)
    if index is not None:
        result["ruleIndex"] = index
    if finding.suppressed:
        result["suppressions"] = [{
            "kind": "inSource",
            "justification": finding.reason or "",
        }]
    return result


def report_to_sarif(report: LintReport) -> Dict[str, Any]:
    """The report as a SARIF 2.1.0 document (plain dict)."""
    catalog = _rule_catalog()
    rule_index = {code: i for i, (code, _, _) in enumerate(catalog)}
    rules: List[Dict[str, Any]] = [{
        "id": code,
        "shortDescription": {"text": title},
        "fullDescription": {"text": rationale},
        "defaultConfiguration": {
            "level": "warning" if code == STALE_RULE else "error",
        },
    } for code, title, rationale in catalog]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.lint",
                    "rules": rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": [_result(finding, rule_index)
                        for finding in report.findings],
        }],
    }


def render_sarif(report: LintReport) -> str:
    """Serialise to SARIF text (stable key order, trailing newline)."""
    return json.dumps(report_to_sarif(report), indent=2,
                      sort_keys=True) + "\n"


__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif",
           "report_to_sarif"]
