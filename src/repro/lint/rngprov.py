"""RNG provenance analysis (rules RNG001–RNG002).

PR 4's DET001 bans the *global* stream (``random.random()``); this
pass hardens that to a positive property: every ``random.Random`` /
``numpy.random.default_rng`` constructed anywhere in the tree must be
seeded with a value that *provably derives from a seed* — a parameter
or attribute whose name involves ``seed``, or a Simulator-owned stream
(``rng.stream(purpose)`` hashes the master seed).  That is the
invariant the determinism checker relies on: re-running a scenario
with the same config must replay every draw, which a generator seeded
from a counter, an id, or OS entropy silently breaks (the PR 4 frame-id
bug was exactly this shape).

The pass is a small forward taint analysis per function body:

* **Taint sources** — any identifier or attribute whose name contains
  ``seed`` (``seed``, ``master_seed``, ``self._seed``, ``reseed``…),
  and any call whose dotted name contains ``seed``, ``stream``, or
  ``derive`` (a function *named* for seed derivation is trusted to do
  it; its own body is checked where it is defined).
* **Propagation** — through arithmetic, f-strings, ``str``/``int``/
  ``hash``-style wrapping, tuple packing, and local assignment chains:
  an expression is seed-derived iff any of its leaves is.
* **Sinks** — ``random.Random(x)`` / ``default_rng(x)`` constructor
  arguments.

Rules:

* **RNG001** — an RNG constructed with *no* argument: OS entropy,
  never reproducible.
* **RNG002** — an RNG whose seed expression does not derive from a
  seed (a hard-coded literal, a counter, an id, wall-clock…).

A literal-seeded ``Random(1234)`` is deliberately a finding: fixed
magic seeds hide in tests and helper scripts, collide across
components, and bypass the per-purpose stream split
(:meth:`repro.sim.rng.RngRegistry.stream`).  Where a literal is truly
intended, waive it with a reason.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

from .dataflow import merge_envs, walk, walk_skipping_lambdas
from .engine import FileContext, Finding

#: Substrings marking a name as seed-bearing.
_SEED_TOKENS = ("seed",)

#: Substrings marking a *callable* as producing seed-derived values.
_DERIVING_CALL_TOKENS = ("seed", "stream", "derive", "rng")

#: Constructor names that are RNG sinks (last dotted component).
_RNG_CTORS = ("Random", "SystemRandom", "default_rng",
              "RandomState", "Generator")


def _dotted(node: ast.AST) -> str:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _name_is_seedy(name: str) -> bool:
    lowered = name.lower()
    return any(token in lowered for token in _SEED_TOKENS)


class _TaintScope:
    """Seed-taint evaluation over one function (or module) body."""

    def __init__(self, ctx: FileContext,
                 findings: List[Finding]) -> None:
        self.ctx = ctx
        self.findings = findings

    # -- expression taint -------------------------------------------

    def tainted(self, node: ast.AST, env: Set[str]) -> bool:
        """Whether any leaf of ``node`` is seed-derived."""
        for sub in walk_skipping_lambdas(node):
            if isinstance(sub, ast.Name):
                if sub.id in env or _name_is_seedy(sub.id):
                    return True
            elif isinstance(sub, ast.Attribute):
                if _name_is_seedy(sub.attr):
                    return True
            elif isinstance(sub, ast.Call):
                dotted = _dotted(sub.func).lower()
                callee = dotted.rsplit(".", 1)[-1]
                if any(token in callee
                       for token in _DERIVING_CALL_TOKENS):
                    return True
        return False

    # -- sinks -------------------------------------------------------

    def _check_ctor(self, node: ast.Call, env: Set[str]) -> None:
        callee = _dotted(node.func).rsplit(".", 1)[-1]
        if callee not in _RNG_CTORS:
            return
        if callee == "SystemRandom":
            self.findings.append(self.ctx.finding_at(
                "RNG001", node.lineno, node.col_offset,
                "SystemRandom draws OS entropy: runs are not "
                "reproducible"))
            return
        seed_args = list(node.args) + [
            keyword.value for keyword in node.keywords
            if keyword.arg in (None, "seed", "x")]
        if not seed_args:
            self.findings.append(self.ctx.finding_at(
                "RNG001", node.lineno, node.col_offset,
                f"{callee}() constructed without a seed draws OS "
                f"entropy: runs are not reproducible"))
            return
        if not any(self.tainted(arg, env) for arg in seed_args):
            self.findings.append(self.ctx.finding_at(
                "RNG002", node.lineno, node.col_offset,
                f"{callee}(...) seed does not derive from a seed "
                f"parameter or Simulator-owned stream (hard-coded "
                f"or counter-derived seeds break replay)"))

    # -- statement walk ---------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt],
                   env: Optional[Set[str]]) -> Optional[Set[str]]:
        for stmt in stmts:
            if env is None:
                return None
            env = self._exec_stmt(stmt, env)
        return env

    def _scan_calls(self, node: ast.AST, env: Set[str]) -> None:
        for sub in walk_skipping_lambdas(node):
            if isinstance(sub, ast.Call):
                self._check_ctor(sub, env)

    def _exec_stmt(self, stmt: ast.stmt,
                   env: Set[str]) -> Optional[Set[str]]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env
        if isinstance(stmt, ast.Assign):
            self._scan_calls(stmt.value, env)
            is_tainted = self.tainted(stmt.value, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if is_tainted:
                        env.add(target.id)
                    else:
                        env.discard(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name) \
                                and is_tainted:
                            env.add(element.id)
            return env
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if stmt.value is not None:
                self._scan_calls(stmt.value, env)
                target = stmt.target
                if isinstance(target, ast.Name):
                    if self.tainted(stmt.value, env) or (
                            isinstance(stmt, ast.AugAssign)
                            and target.id in env):
                        env.add(target.id)
                    elif isinstance(stmt, ast.AnnAssign):
                        env.discard(target.id)
            return env
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if getattr(stmt, "value", None) is not None:
                self._scan_calls(stmt.value, env)  # type: ignore
            exc = getattr(stmt, "exc", None)
            if exc is not None:
                self._scan_calls(exc, env)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.If):
            self._scan_calls(stmt.test, env)
            branches = [
                self.exec_block(stmt.body, set(env)),
                self.exec_block(stmt.orelse, set(env)),
            ]
            alive = [b for b in branches if b is not None]
            if not alive:
                return None
            merged = set(alive[0])
            for branch in alive[1:]:
                merged &= branch
            return merged
        if isinstance(stmt, (ast.While, ast.For)):
            head = stmt.test if isinstance(stmt, ast.While) \
                else stmt.iter
            self._scan_calls(head, env)
            entry = set(env)
            if isinstance(stmt, ast.For):
                if isinstance(stmt.target, ast.Name) \
                        and self.tainted(stmt.iter, env):
                    entry.add(stmt.target.id)
            body_env = self.exec_block(stmt.body, set(entry))
            result = entry & body_env if body_env is not None \
                else entry
            return self.exec_block(stmt.orelse, set(result)) \
                if stmt.orelse else set(result)
        if isinstance(stmt, ast.Try):
            body_env = self.exec_block(stmt.body, set(env))
            branches = [body_env]
            for handler in stmt.handlers:
                branches.append(self.exec_block(handler.body,
                                                set(env)))
            alive = [b for b in branches if b is not None]
            survivors = alive[0] if alive else None
            if survivors is not None:
                for branch in alive[1:]:
                    survivors = survivors & branch
            final_base = survivors if survivors is not None \
                else set(env)
            return self.exec_block(stmt.finalbody, set(final_base))
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_calls(item.context_expr, env)
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            value = stmt.value if isinstance(stmt, ast.Expr) \
                else stmt.test
            self._scan_calls(value, env)
            return env
        return env


def _function_env(node: ast.AST) -> Set[str]:
    env: Set[str] = set()
    arguments = node.args  # type: ignore[attr-defined]
    for arg in (arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs):
        if _name_is_seedy(arg.arg):
            env.add(arg.arg)
    return env


def analyze_rng(contexts: Sequence[FileContext]) -> List[Finding]:
    """Run the RNG provenance analysis over every parsed file."""
    findings: List[Finding] = []
    for ctx in contexts:
        scope = _TaintScope(ctx, findings)
        module_body = [stmt for stmt in ctx.tree.body
                       if not isinstance(stmt, (ast.FunctionDef,
                                                ast.AsyncFunctionDef,
                                                ast.ClassDef))]
        scope.exec_block(module_body, set())
        for node in walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                scope.exec_block(node.body, _function_env(node))
            elif isinstance(node, ast.Lambda):
                scope._scan_calls(node.body, set())
    return findings


CODES = ("RNG001", "RNG002")

__all__ = ["CODES", "analyze_rng"]
