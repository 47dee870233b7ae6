"""Lint engine: file walking, suppression handling, finding plumbing.

The engine is rule-agnostic: it parses each file once, builds a
:class:`FileContext`, asks every enabled rule for findings, then
resolves per-line suppressions.  Rules and analyses traverse a tree
through :func:`repro.lint.dataflow.walk` and read comments from
:attr:`FileContext.comments`, so a run walks each module, class and
function once and tokenizes each file once.  Suppressions are
*reasoned waivers*::

    risky_line()  # lint: allow(EXC001): re-raised annotated below

A waiver may sit on the flagged line or alone on the line above (for
statements too long to share a line).  ``allow(...)`` takes one or more
comma-separated rule codes.  The reason — the text after the closing
``):`` — is mandatory: a reasonless waiver suppresses nothing and is
itself reported as SUP001, so every exception to a rule is documented
at the point of use.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .config import LintConfig
from .dataflow import comment_tokens, walk

#: Matches one suppression comment.  Group 1: the rule-code list;
#: group 2: the reason (possibly empty).
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*allow\(\s*([A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)"
    r"\s*\)\s*(?::\s*(.*?))?\s*$")

#: Reserved code for engine-level findings about suppressions.
SUPPRESSION_RULE = "SUP001"
#: Reserved code for waivers whose rule no longer fires on their line.
STALE_RULE = "SUP002"
#: Reserved code for files the parser rejects.
PARSE_RULE = "PARSE"


@dataclass(frozen=True)
class Finding:
    """One rule violation (or engine diagnostic) at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: True once a reasoned waiver claimed this finding.
    suppressed: bool = False
    #: The waiver's reason string (suppressed findings only).
    reason: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# lint: allow(...)`` comment."""

    line: int
    codes: Tuple[str, ...]
    reason: str
    #: Line numbers this waiver covers (its own, plus the next line
    #: when the comment stands alone).
    applies_to: Tuple[int, ...]


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    #: Display path (as passed on the command line / relative to root).
    path: str
    #: Module path inside the package, e.g. ``sim/kernel.py`` — what
    #: allowlists and package filters match against.
    module_path: str
    #: Top-level package name (``sim``, ``mac``, ...), "" at the root.
    package: str
    tree: ast.AST
    lines: List[str]
    config: LintConfig

    @cached_property
    def comments(self) -> Dict[int, str]:
        """``{line_number: comment_text}`` for every real comment,
        tokenized on first use and kept for the rest of the run."""
        return comment_tokens(self.lines)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(rule=rule, path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)

    def finding_at(self, rule: str, line: int, col: int,
                   message: str) -> Finding:
        """Build a finding at an explicit location (tree analyses)."""
        return Finding(rule=rule, path=self.path, line=line,
                       col=col + 1, message=message)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Structured per-analysis payloads (e.g. the extracted state
    #: machine graphs), keyed by analysis name; serialised into the
    #: JSON report's ``analyses`` section.
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def unsuppressed(self) -> List[Finding]:
        """The findings no waiver suppresses."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        """The findings a waiver suppresses."""
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        """True when the run gates green (no unsuppressed findings)."""
        return not self.unsuppressed

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for item in self.unsuppressed:
            counts[item.rule] = counts.get(item.rule, 0) + 1
        return dict(sorted(counts.items()))


def parse_suppressions(lines: Sequence[str]
                       ) -> Tuple[List[Suppression], List[Tuple[int, str]]]:
    """Extract waivers from source lines.

    Returns ``(suppressions, errors)`` where each error is a
    ``(line, message)`` for a waiver missing its reason string.
    """
    suppressions: List[Suppression] = []
    errors: List[Tuple[int, str]] = []
    for number, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = tuple(code.strip()
                      for code in match.group(1).split(","))
        reason = (match.group(2) or "").strip()
        if not reason:
            errors.append((
                number,
                "suppression missing reason: write "
                "# lint: allow(%s): <why this is safe>"
                % ", ".join(codes)))
            continue
        standalone = text[:match.start()].strip() == ""
        applies = (number, number + 1) if standalone else (number,)
        suppressions.append(Suppression(line=number, codes=codes,
                                        reason=reason,
                                        applies_to=applies))
    return suppressions, errors


def _apply_suppressions(findings: List[Finding],
                        suppressions: Sequence[Suppression]
                        ) -> List[Finding]:
    """Mark findings claimed by a reasoned waiver as suppressed."""
    by_line: Dict[int, List[Suppression]] = {}
    for suppression in suppressions:
        for line in suppression.applies_to:
            by_line.setdefault(line, []).append(suppression)
    resolved: List[Finding] = []
    for item in findings:
        waiver = next(
            (s for s in by_line.get(item.line, ())
             if item.rule in s.codes),
            None)
        if waiver is not None and item.rule != SUPPRESSION_RULE:
            item = replace(item, suppressed=True, reason=waiver.reason)
        resolved.append(item)
    return resolved


def _module_path(path: Path, package_root_name: str = "repro") -> str:
    """Path inside the package: parts after the last ``repro`` dir.

    Falls back to the file name for paths outside any ``repro`` tree,
    so allowlist suffix matching still has something to bite on.
    """
    parts = path.as_posix().split("/")
    if package_root_name in parts:
        index = len(parts) - 1 - parts[::-1].index(package_root_name)
        inner = parts[index + 1:]
        if inner:
            return "/".join(inner)
    return parts[-1]


def _collect_context(source: str, path: str, config: LintConfig,
                     module_path: Optional[str] = None
                     ) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse one file into a context, or a PARSE finding."""
    if module_path is None:
        module_path = _module_path(Path(path))
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [Finding(rule=PARSE_RULE, path=path,
                              line=exc.lineno or 1,
                              col=(exc.offset or 0) + 1,
                              message=f"file does not parse: "
                                      f"{exc.msg}")]
    package = module_path.split("/")[0] if "/" in module_path else ""
    return FileContext(path=path, module_path=module_path,
                       package=package, tree=tree, lines=lines,
                       config=config), []


def _rule_findings(ctx: FileContext) -> List[Finding]:
    """Run every enabled per-file rule over one context."""
    from .rules import RULES  # late: rules import engine types
    findings: List[Finding] = []
    for code, rule in RULES.items():
        if ctx.config.rule_enabled(code):
            findings.extend(rule(ctx))
    return findings


def _run_interprocedural(contexts: Sequence[FileContext]
                         ) -> Tuple[List[Finding], Dict[str, object]]:
    """Build the call graph once, then run the graph-based passes."""
    from . import effects, fingerprint, lifecycle
    from .callgraph import build_call_graph
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    graph = build_call_graph(contexts)
    timings["callgraph"] = round(time.perf_counter() - started, 6)
    started = time.perf_counter()
    findings, extras = effects.analyze_effects(contexts, graph=graph)
    timings["effects"] = round(time.perf_counter() - started, 6)
    started = time.perf_counter()
    fpc_findings, fpc_extras = fingerprint.analyze_fingerprint(
        contexts, graph=graph)
    timings["fingerprint"] = round(time.perf_counter() - started, 6)
    findings.extend(fpc_findings)
    extras.update(fpc_extras)
    started = time.perf_counter()
    lif_findings, lif_extras = lifecycle.analyze_lifecycles(
        contexts, graph=graph)
    timings["lifecycle"] = round(time.perf_counter() - started, 6)
    findings.extend(lif_findings)
    extras.update(lif_extras)
    extras["timings"] = timings
    return findings, extras


def _run_tree_analyses(contexts: Sequence[FileContext],
                       config: LintConfig
                       ) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the flow-sensitive analyses over the whole context set.

    Unlike per-file rules, a tree analysis sees every parsed file at
    once: the units pass learns annotations tree-wide, the
    state-machine pass matches specs in ``core/states.py`` against
    classes in ``hw/``, and the interprocedural effect/fingerprint
    passes share one whole-tree call graph.  An analysis runs when any
    of its codes is enabled, and its findings are filtered per code
    afterwards.  Wall-clock timings per analysis land in the report
    extras (``analyses.timings``) so CI can watch lint cost.
    """
    from . import effects, fingerprint, lifecycle, rngprov, \
        statemachine, units
    analyses: Tuple[Tuple[str, Tuple[str, ...], object], ...] = (
        ("units", units.CODES, units.analyze_units),
        ("statemachine", statemachine.CODES,
         statemachine.analyze_statemachines),
        ("rngprov", rngprov.CODES, rngprov.analyze_rng),
        ("interproc",
         effects.CODES + fingerprint.CODES + lifecycle.CODES,
         _run_interprocedural),
    )
    findings: List[Finding] = []
    extras: Dict[str, object] = {}
    timings: Dict[str, float] = {}
    for name, codes, run in analyses:
        if not any(config.rule_enabled(code) for code in codes):
            continue
        started = time.perf_counter()
        result = run(contexts)  # type: ignore[operator]
        elapsed = round(time.perf_counter() - started, 6)
        if isinstance(result, tuple):
            produced, extra = result
        else:
            produced, extra = result, None
        findings.extend(item for item in produced
                        if config.rule_enabled(item.rule))
        if extra:
            sub = extra.pop("timings", None)
            if isinstance(sub, dict):
                timings.update(sub)
            extras.update(extra)
        timings[name] = elapsed
    extras["timings"] = timings
    return findings, extras


def _string_spans(tree: ast.AST) -> set:
    """Line numbers inside multi-line string constants (docstrings).

    A ``# lint: allow(...)`` shown as an *example* inside a docstring
    is text, not a waiver; stale-waiver detection must not flag it.
    """
    spans: set = set()
    for node in walk(tree):
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            end = node.end_lineno or node.lineno
            if end > node.lineno:
                spans.update(range(node.lineno, end + 1))
    return spans


def _known_codes() -> set:
    from .rules import all_rule_codes
    return set(all_rule_codes()) | {SUPPRESSION_RULE, STALE_RULE,
                                    PARSE_RULE}


def _finalize_file(ctx: FileContext,
                   findings: List[Finding]) -> List[Finding]:
    """Resolve suppressions for one file: SUP001, SUP002, waivers."""
    suppressions, errors = parse_suppressions(ctx.lines)
    for line, message in errors:
        findings.append(Finding(rule=SUPPRESSION_RULE, path=ctx.path,
                                line=line, col=1, message=message))
    if ctx.config.rule_enabled(STALE_RULE):
        doc_lines = _string_spans(ctx.tree)
        fired = {(item.rule, item.line) for item in findings}
        known = _known_codes()
        for suppression in suppressions:
            if suppression.line in doc_lines:
                continue
            for code in suppression.codes:
                if code in (SUPPRESSION_RULE, STALE_RULE):
                    continue
                if not ctx.config.rule_enabled(code):
                    continue  # rule deselected: the waiver is dormant
                if any((code, line) in fired
                       for line in suppression.applies_to):
                    continue
                qualifier = ("" if code in known
                             else " (unknown rule code)")
                findings.append(Finding(
                    rule=STALE_RULE, path=ctx.path,
                    line=suppression.line, col=1,
                    message=f"stale waiver: {code} does not fire on "
                            f"the line this comment covers"
                            f"{qualifier} — delete the waiver or fix "
                            f"the code drift it hides"))
    findings = _apply_suppressions(findings, suppressions)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_source(source: str, path: str, config: Optional[LintConfig] = None,
                module_path: Optional[str] = None) -> List[Finding]:
    """Lint one file's text; the core single-file entry point.

    Tree analyses run too, over the single-file context set — which is
    what lets a fixture co-locate a ``TransitionSpec`` with the class
    it describes and still be checked end to end.
    """
    config = config or LintConfig()
    ctx, parse_findings = _collect_context(source, path, config,
                                           module_path)
    if ctx is None:
        return parse_findings
    findings = _rule_findings(ctx)
    tree_findings, _ = _run_tree_analyses([ctx], config)
    findings.extend(tree_findings)
    return _finalize_file(ctx, findings)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under ``paths`` in sorted order."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    yield candidate
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[Path],
               config: Optional[LintConfig] = None) -> LintReport:
    """Lint every Python file under ``paths`` into one report.

    Parses everything first, then runs per-file rules and the
    cross-file tree analyses over the full context set, and finally
    resolves suppressions file by file (stale-waiver detection needs
    the complete finding list for a file, including findings a tree
    analysis reported into it from another module's spec).
    """
    config = config or LintConfig()
    report = LintReport()
    contexts: List[FileContext] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        path = str(file_path)
        ctx, parse_findings = _collect_context(
            file_path.read_text(encoding="utf-8"), path, config)
        report.files_scanned += 1
        if ctx is None:
            report.findings.extend(parse_findings)
        else:
            contexts.append(ctx)
    rule_results = {ctx.path: _rule_findings(ctx) for ctx in contexts}
    tree_findings, extras = _run_tree_analyses(contexts, config)
    report.extras.update(extras)
    by_path: Dict[str, List[Finding]] = {}
    for item in tree_findings:
        by_path.setdefault(item.path, []).append(item)
    for ctx in contexts:
        findings = rule_results[ctx.path] + by_path.get(ctx.path, [])
        report.findings.extend(_finalize_file(ctx, findings))
    report.findings.sort(key=Finding.sort_key)
    return report


__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "PARSE_RULE",
    "STALE_RULE",
    "SUPPRESSION_RULE",
    "Suppression",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "parse_suppressions",
]
