"""Shared infrastructure for the flow-sensitive lint analyses.

PR 4's rules are line-local: each looks at one AST node.  The units,
state-machine and RNG-provenance analyses need more — values that flow
through assignments, guards that narrow what a later statement can see,
and annotations that resolve genuine ambiguity.  This module holds the
machinery those passes share:

* **Inline annotations** — ``# unit: <expr>`` declares the physical
  unit of the assignment (or function) on its line; ``# sm:
  assume(state, ...)`` pins the power states a callback can be entered
  in.  Both are comments, so they cost nothing at runtime and stay
  next to the code they describe.
* **Constant resolution** — module-level ``NAME = "literal"`` bindings
  (the power-state name constants) and literal tuples, resolved
  without importing the module.
* **Branch-aware walking helpers** — the ``TERMINATED`` sentinel and
  environment merge used by the forward passes to model early
  ``return``/``raise`` pruning.
* **Shared walks** — :func:`walk` and :func:`walk_skipping_lambdas`
  keep the node sequence of every module, class and function they
  walk on that root, so each such tree is traversed once per run no
  matter how many rules and analyses read it.  Every traversal in
  :mod:`repro.lint` goes through them, as every comment lookup goes
  through :attr:`repro.lint.engine.FileContext.comments`.

The analyses themselves live in :mod:`repro.lint.units`,
:mod:`repro.lint.statemachine` and :mod:`repro.lint.rngprov`; they are
*tree analyses* (see :mod:`repro.lint.engine`): they run after the
per-line rules and may look across every file in the run.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, TypeVar)

#: ``# unit: <unit-expression>`` — declares the unit of the value bound
#: (or returned) on this line.  The expression grammar is parsed by
#: :func:`repro.lint.units.parse_unit`.
_UNIT_ANNOTATION_RE = re.compile(r"^#\s*unit:\s*([^#]+?)\s*(?:#.*)?$")

#: ``# sm: assume(a, b)`` — entry-state assumption for a method that is
#: only ever reached from known power states (scheduled callbacks).
_SM_ASSUME_RE = re.compile(
    r"^#\s*sm:\s*assume\(\s*([a-z_][a-z0-9_]*(?:\s*,\s*[a-z_][a-z0-9_]*)*)"
    r"\s*\)")


def comment_tokens(lines: Sequence[str]) -> Dict[int, str]:
    """``{line_number: comment_text}`` for every *real* comment.

    Tokenizes rather than scanning lines, so ``# unit:`` examples inside
    docstrings and string literals (this package documents its own
    annotation language...) are never mistaken for annotations.
    """
    found: Dict[int, str] = {}
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                found[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # a file this far into the pipeline already parsed
    return found


def unit_annotations(comments: Mapping[int, str]) -> Dict[int, str]:
    """``{line_number: unit_expression}`` for every ``# unit:`` comment.

    ``comments`` is a file's comment table (``FileContext.comments``).
    """
    found: Dict[int, str] = {}
    for number, text in comments.items():
        match = _UNIT_ANNOTATION_RE.search(text)
        if match is not None:
            found[number] = match.group(1).strip()
    return found


def sm_assumptions(comments: Mapping[int, str]
                   ) -> Dict[int, Tuple[str, ...]]:
    """``{line_number: states}`` for every ``# sm: assume(...)`` comment.

    ``comments`` is a file's comment table (``FileContext.comments``).
    """
    found: Dict[int, Tuple[str, ...]] = {}
    for number, text in comments.items():
        match = _SM_ASSUME_RE.search(text)
        if match is not None:
            found[number] = tuple(
                state.strip() for state in match.group(1).split(","))
    return found


def function_header_lines(node: ast.AST) -> range:
    """Source lines of a function's header (``def`` up to the body).

    Inline annotations attached to a function go on any header line, so
    multi-line signatures can carry them on the closing paren.
    """
    first = getattr(node, "lineno", 1)
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if body else first
    return range(first, max(first, last) + 1)


def module_string_constants(tree: ast.AST) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` bindings, unmangled.

    The hardware models name their power states through module
    constants (``TX = "tx"``); the state-machine pass resolves those
    names without importing the module.
    """
    constants: Dict[str, str] = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            constants[node.targets[0].id] = node.value.value
    return constants


def literal_or_none(node: ast.AST):
    """``ast.literal_eval`` that returns None instead of raising."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError, MemoryError):
        return None


#: Sentinel environment meaning "this path cannot fall through" —
#: every statement after an unconditional return/raise/continue/break.
TERMINATED = None

_V = TypeVar("_V")


def merge_envs(branches: List[Optional[Dict[str, _V]]]
               ) -> Optional[Dict[str, _V]]:
    """Join the environments of sibling branches.

    ``TERMINATED`` branches contribute nothing.  A name keeps its value
    only when every surviving branch agrees on it; disagreement drops
    the binding (the passes treat an unbound name as "unknown", which
    can never produce a finding).
    """
    alive = [env for env in branches if env is not TERMINATED]
    if not alive:
        return TERMINATED
    merged: Dict[str, _V] = {}
    for key in alive[0]:
        value = alive[0][key]
        if all(key in env and env[key] == value for env in alive[1:]):
            merged[key] = value
    return merged


def is_terminal_stmt(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` unconditionally leaves the current block."""
    return isinstance(stmt, (ast.Return, ast.Raise, ast.Break,
                             ast.Continue))


#: Roots whose walks are kept on the node.  Every rule and analysis
#: re-reads the same modules, classes and functions; a statement or
#: expression is walked once or twice, and keeping its walk too costs
#: more memory than it saves time (docs/performance.md, "One walk per
#: tree").
_KEPT_ROOTS = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _kept(node: ast.AST, key: str,
          walker: Callable[[ast.AST], Iterable[ast.AST]]
          ) -> Iterable[ast.AST]:
    """``walker(node)``, computed once and kept on a module, class or
    function root; any other root is walked afresh."""
    if not isinstance(node, _KEPT_ROOTS):
        return walker(node)
    nodes = node.__dict__.get(key)
    if nodes is None:
        nodes = node.__dict__[key] = tuple(walker(node))
    return nodes


def walk(node: ast.AST) -> Iterable[ast.AST]:
    """Exactly ``ast.walk(node)``'s sequence, kept on def/class/module roots.

    A module, class or function root keeps its sequence as an
    attribute, so the sequence lives and dies with its tree: nothing
    needs clearing, and a re-parsed file is a new root.  Trees must not
    be mutated once walked.
    """
    return _kept(node, "_lint_walk", ast.walk)


def _skipping_lambdas(node: ast.AST) -> Iterable[ast.AST]:
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.Lambda, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                continue
            stack.append(child)


def walk_skipping_lambdas(node: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` that does not descend into nested lambdas/defs.

    A ``sim.after(delay, lambda: self._later())`` call runs *later*:
    anything inside the lambda must not be attributed to the current
    control point.  Nested function definitions get their own walk.
    Like :func:`walk`, a module, class or function root keeps its
    sequence.
    """
    return _kept(node, "_lint_walk_skipping_lambdas", _skipping_lambdas)


__all__ = [
    "TERMINATED",
    "comment_tokens",
    "function_header_lines",
    "is_terminal_stmt",
    "literal_or_none",
    "merge_envs",
    "module_string_constants",
    "sm_assumptions",
    "unit_annotations",
    "walk",
    "walk_skipping_lambdas",
]
