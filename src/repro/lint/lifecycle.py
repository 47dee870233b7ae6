"""Typestate lifecycle verification (rules LIF001–LIF005).

The energy model integrates per-state current over time, so a leaked
resource never crashes — it silently corrupts the estimate.  A radio
left in stand-by after its MAC stops books 0.9 mA forever; an
uncancelled periodic event keeps firing into a stopped component; a
trace sink that is never flushed on an exceptional unwind loses
exactly the post-mortem that would explain the failure.  PR 8 fixed
one instance of this bug class dynamically; this pass proves the whole
acquire/release discipline statically, the way the effect pass turned
determinism check 4 into a compile-time guarantee.

Protocols are declared as pure-literal
:class:`repro.core.lifecycles.LifecycleSpec` tables and — like
``TransitionSpec`` — read out of the AST, never imported, so a test
fixture can co-locate a spec with the buggy class it describes.

Abstract interpretation
-----------------------
Per function, the pass walks statements forward tracking an abstract
state per *resource key* (the dotted receiver text: ``self._radio``,
``sink``, ``obs._sink``) as a set over

    A = acquired · R = released · N = null/never acquired · U = unknown

Branches walk on copies and merge by union; ``return`` records an exit
snapshot with its guard context; ``K is None`` / ``K is not None``
guards narrow the state (and prune statically infeasible branches,
which is what makes ``if self._sink is not None: self._sink.close()``
a *complete* release).  ``try/finally`` and ``with`` mark releases as
unwind-protected.  Calls to helper methods apply memoized
interprocedural acquire/release summaries mapped across the receiver,
so a release inside a helper or subclass override still discharges
the obligation.

Rules
-----
* **LIF001** — a resource acquired on every path through a declared
  boundary's acquire hook (``on_start``) is still acquired on some
  path out of its release hook (``on_stop``); the message carries the
  witness exit.  Also: an ``acquire_on_construct`` resource built
  locally and never released, a release required on exceptional
  unwind that only happens on the happy path, and a class that opens
  a ``class_paired`` span phase it never closes.
* **LIF002** — release without a matching acquire: a second
  ``power_down`` on a definitely-released radio (releases declared
  ``idempotent_release`` are exempt).
* **LIF003** — use-after-release: ``send``/``start_rx`` on a
  definitely powered-down radio.  This statically re-derives the
  runtime ``RadioError`` guards.
* **LIF004** — an escaping resource with no owner: a periodic
  ``every()`` handle discarded (uncancellable forever), an
  unconditionally self-rescheduling one-shot whose handle is
  discarded (a periodic in disguise), or a constructed resource
  stored on ``self`` that no method of the class ever releases.
* **LIF005** — a conditional acquire whose release is guarded by a
  *different* condition, so the pairing silently decorrelates.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from .callgraph import CallGraph, CallSite, FunctionNode, build_call_graph
from .dataflow import literal_or_none, walk, walk_skipping_lambdas
from .engine import FileContext, Finding

#: The finding codes this analysis reports.
CODES = ("LIF001", "LIF002", "LIF003", "LIF004", "LIF005")

State = FrozenSet[str]
Env = Dict[str, State]

ACQUIRED: State = frozenset({"A"})
RELEASED: State = frozenset({"R"})
NULL: State = frozenset({"N"})
UNKNOWN: State = frozenset({"U"})

#: Receiver-name tails treated as "the simulator" when type inference
#: comes up empty (``self._sim.after(...)`` in untyped code).
_SIMISH_TAILS = ("sim", "_sim")


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pathologically deep guards
        return "<expr>"


@dataclass(frozen=True)
class LifecycleSpecInfo:
    """A ``LifecycleSpec`` literal read out of a module's AST."""

    resource: str
    module: str
    class_names: Tuple[str, ...]
    acquire: Tuple[str, ...]
    release: Tuple[str, ...]
    uses: Tuple[str, ...]
    acquire_on_construct: bool
    idempotent_release: bool
    boundary: Tuple[Tuple[str, str], ...]
    release_on_unwind: bool
    class_paired: Tuple[Tuple[str, str], ...]
    handle_factories: Tuple[str, ...]
    reschedule_factories: Tuple[str, ...]
    ctx: FileContext
    lineno: int


def _extract_specs(contexts: Sequence[FileContext]
                   ) -> List[LifecycleSpecInfo]:
    """Harvest every module-level ``X = LifecycleSpec(...)`` literal."""
    specs: List[LifecycleSpecInfo] = []
    for ctx in contexts:
        for stmt in ctx.tree.body:  # type: ignore[attr-defined]
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)):
                continue
            func = stmt.value.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name != "LifecycleSpec":
                continue
            fields: Dict[str, object] = {}
            for keyword in stmt.value.keywords:
                if keyword.arg is not None:
                    fields[keyword.arg] = literal_or_none(keyword.value)
            try:
                specs.append(LifecycleSpecInfo(
                    resource=str(fields["resource"]),
                    module=str(fields["module"]),
                    class_names=tuple(
                        str(c) for c in fields["class_names"]),  # type: ignore[union-attr]
                    acquire=tuple(
                        str(m) for m in fields.get("acquire", ()) or ()),  # type: ignore[union-attr]
                    release=tuple(
                        str(m) for m in fields.get("release", ()) or ()),  # type: ignore[union-attr]
                    uses=tuple(
                        str(m) for m in fields.get("uses", ()) or ()),  # type: ignore[union-attr]
                    acquire_on_construct=bool(
                        fields.get("acquire_on_construct", False)),
                    idempotent_release=bool(
                        fields.get("idempotent_release", True)),
                    boundary=tuple(
                        (str(a), str(r))
                        for a, r in fields.get("boundary", ()) or ()),  # type: ignore[union-attr]
                    release_on_unwind=bool(
                        fields.get("release_on_unwind", False)),
                    class_paired=tuple(
                        (str(a), str(b))
                        for a, b in fields.get("class_paired", ())
                        or ()),  # type: ignore[union-attr]
                    handle_factories=tuple(
                        str(m) for m in fields.get("handle_factories", ())
                        or ()),  # type: ignore[union-attr]
                    reschedule_factories=tuple(
                        str(m)
                        for m in fields.get("reschedule_factories", ())
                        or ()),  # type: ignore[union-attr]
                    ctx=ctx, lineno=stmt.lineno))
            except (KeyError, TypeError, ValueError):
                continue  # malformed literal: the spec's own tests catch it
    return specs


@dataclass
class _Event:
    """One lifecycle-relevant action observed during a walk."""

    kind: str  #: acquire | may-acquire | release | may-release | use
    key: str
    spec: LifecycleSpecInfo
    line: int
    col: int
    guards: Tuple[str, ...]
    protected: bool
    #: True for stored one-shot handles (``at``/``after``): tracked for
    #: double-cancel/use checks but carrying no boundary obligation.
    weak: bool = False


@dataclass
class _WalkResult:
    """Everything one path-sensitive pass over a function produced."""

    exits: List[Tuple[Env, int, Tuple[str, ...]]]
    events: List[_Event]
    findings: List[Finding]
    call_lines: Set[int]
    key_specs: Dict[str, LifecycleSpecInfo]


@dataclass
class _Summary:
    """Interprocedural acquire/release summary of one function.

    Keys are ``self.``-rooted attribute paths; callers map them across
    the call-site receiver (``obs.finish()`` turns ``self._sink`` into
    ``obs._sink``).
    """

    must_acquire: FrozenSet[str] = frozenset()
    may_acquire: Dict[str, int] = field(default_factory=dict)
    may_release: FrozenSet[str] = frozenset()
    key_specs: Dict[str, LifecycleSpecInfo] = field(default_factory=dict)


def _merge(branches: List[Optional[Env]]) -> Optional[Env]:
    """Union-join sibling branch environments.

    Terminated branches contribute nothing; a key missing from a
    surviving branch contributes ``U`` (that branch knows nothing
    about it), so ``if c: acquire(k)`` merges to ``{A, U}`` — maybe
    acquired, which is exactly what a later exit-leak check needs.
    """
    alive = [env for env in branches if env is not None]
    if not alive:
        return None
    keys: Set[str] = set()
    for env in alive:
        keys.update(env)
    merged: Env = {}
    for key in keys:
        state: Set[str] = set()
        for env in alive:
            state |= env.get(key, UNKNOWN)
        merged[key] = frozenset(state)
    return merged


class _Walker:
    """One path-sensitive pass over a single function body."""

    def __init__(self, analysis: "LifecycleAnalysis",
                 function: FunctionNode,
                 seed: Optional[Env] = None,
                 seed_specs: Optional[Dict[str, LifecycleSpecInfo]] = None,
                 concrete_class: Optional[str] = None) -> None:
        self.analysis = analysis
        self.graph = analysis.graph
        self.function = function
        self.concrete = concrete_class or function.class_name
        self.type_env = self.graph._local_env(function)
        self.sites: Dict[int, CallSite] = {
            id(site.call): site
            for site in self.graph.calls.get(function.qualname, ())}
        self.specs = [spec for spec in analysis.specs
                      if not analysis.exempt(function, spec)]
        self.key_specs: Dict[str, LifecycleSpecInfo] = \
            dict(seed_specs or {})
        self.seed: Env = dict(seed or {})
        self.exits: List[Tuple[Env, int, Tuple[str, ...]]] = []
        self.events: List[_Event] = []
        self.findings: List[Finding] = []
        self.call_lines: Set[int] = set()
        self.guards: List[str] = []
        self.protect_depth = 0

    # -- event/finding plumbing -----------------------------------------

    def _event(self, kind: str, key: str, spec: LifecycleSpecInfo,
               node: ast.AST, weak: bool = False,
               protected: Optional[bool] = None) -> None:
        self.events.append(_Event(
            kind=kind, key=key, spec=spec,
            line=getattr(node, "lineno", self.function.lineno),
            col=getattr(node, "col_offset", 0),
            guards=tuple(self.guards),
            protected=(self.protect_depth > 0
                       if protected is None else protected),
            weak=weak))
        self.key_specs[key] = spec

    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(self.function.ctx.finding_at(
            rule, getattr(node, "lineno", self.function.lineno),
            getattr(node, "col_offset", 0), message))

    # -- driving ---------------------------------------------------------

    def run(self) -> _WalkResult:
        body = list(getattr(self.function.node, "body", []))
        env = self._walk_stmts(body, dict(self.seed))
        if env is not None:
            last = getattr(body[-1], "end_lineno", None) if body else None
            self.exits.append((env, last or self.function.lineno,
                               tuple(self.guards)))
        return _WalkResult(exits=self.exits, events=self.events,
                           findings=self.findings,
                           call_lines=self.call_lines,
                           key_specs=self.key_specs)

    def _walk_stmts(self, stmts: Sequence[ast.stmt],
                    env: Optional[Env]) -> Optional[Env]:
        for stmt in stmts:
            if env is None:
                break
            env = self._walk_stmt(stmt, env)
        return env

    def _walk_stmt(self, stmt: ast.stmt, env: Env) -> Optional[Env]:
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt, env)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_expr(stmt.value, env)
                self._mark_escapes(stmt.value, env)
            self.exits.append((dict(env), stmt.lineno,
                               tuple(self.guards)))
            return None
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expr(stmt.exc, env)
            return None  # exceptional exit: not a boundary fall-through
        if isinstance(stmt, ast.Try):
            return self._walk_try(stmt, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_with(stmt, env)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            self._scan_expr(head, env)
            body_env = self._walk_stmts(stmt.body, dict(env))
            merged = _merge([env, body_env])
            return self._walk_stmts(stmt.orelse, merged)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return env
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            return self._walk_assign(stmt, env)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        self._scan_stmt(stmt, env)
        return env

    # -- branching -------------------------------------------------------

    def _walk_if(self, stmt: ast.If, env: Env) -> Optional[Env]:
        self._scan_expr(stmt.test, env)
        guard = _expr_text(stmt.test)
        narrowings = self._narrowings(stmt.test)
        then_env: Optional[Env] = dict(env)
        for key, is_none in narrowings:
            then_env = self._narrow(then_env, key, is_none)
        if then_env is not None:
            self.guards.append(guard)
            then_env = self._walk_stmts(stmt.body, then_env)
            self.guards.pop()
        else_env: Optional[Env] = dict(env)
        if len(narrowings) == 1:  # single clause: the negation narrows too
            key, is_none = narrowings[0]
            else_env = self._narrow(else_env, key, not is_none)
        if else_env is not None:
            self.guards.append(f"not ({guard})")
            else_env = self._walk_stmts(stmt.orelse, else_env)
            self.guards.pop()
        return _merge([then_env, else_env])

    def _narrowings(self, test: ast.AST) -> List[Tuple[str, bool]]:
        """``(key, is_none)`` facts this test implies when *true*."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            found: List[Tuple[str, bool]] = []
            for value in test.values:
                found.extend(self._narrowings(value))
            return found
        if isinstance(test, ast.UnaryOp) \
                and isinstance(test.op, ast.Not):
            inner = self._narrowings(test.operand)
            if len(inner) == 1:
                key, is_none = inner[0]
                return [(key, not is_none)]
            return []
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.ops[0], (ast.Is, ast.IsNot)) \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None:
            key = _dotted(test.left)
            if key is not None:
                return [(key, isinstance(test.ops[0], ast.Is))]
        return []

    def _narrow(self, env: Optional[Env], key: str,
                is_none: bool) -> Optional[Env]:
        """Refine ``key`` under a None test; None when infeasible."""
        if env is None or key not in env:
            return env
        removed = ACQUIRED if is_none else NULL
        narrowed = env[key] - removed
        if not narrowed:
            return None  # e.g. definitely-acquired tested `is None`
        env[key] = narrowed
        return env

    def _walk_try(self, stmt: ast.Try, env: Env) -> Optional[Env]:
        pre = dict(env)
        body_env = self._walk_stmts(stmt.body, dict(env))
        handler_seed = _merge([dict(pre), body_env]) or dict(pre)
        handler_envs: List[Optional[Env]] = []
        for handler in stmt.handlers:
            handler_envs.append(
                self._walk_stmts(handler.body, dict(handler_seed)))
        if stmt.orelse and body_env is not None:
            body_env = self._walk_stmts(stmt.orelse, body_env)
        merged = _merge([body_env, *handler_envs])
        if stmt.finalbody:
            base = merged if merged is not None else dict(handler_seed)
            self.protect_depth += 1
            final_env = self._walk_stmts(stmt.finalbody, dict(base))
            self.protect_depth -= 1
            if merged is None:
                return None
            return final_env
        return merged

    def _walk_with(self, stmt: ast.stmt, env: Env) -> Optional[Env]:
        items = stmt.items  # type: ignore[union-attr]
        managed: List[str] = []
        for item in items:
            self._scan_expr(item.context_expr, env)
            spec = self._ctor_spec(item.context_expr)
            if spec is not None \
                    and isinstance(item.optional_vars, ast.Name):
                key = item.optional_vars.id
                env[key] = ACQUIRED
                self._event("acquire", key, spec, item.context_expr)
                managed.append(key)
        body_env = self._walk_stmts(
            stmt.body, env)  # type: ignore[union-attr]
        for key in managed:
            # __exit__ releases on every path, including unwind.
            self._event("release", key, self.key_specs[key], stmt,
                        protected=True)
            if body_env is not None:
                body_env[key] = RELEASED
        return body_env

    # -- assignments -----------------------------------------------------

    def _walk_assign(self, stmt: ast.stmt, env: Env) -> Env:
        value = getattr(stmt, "value", None)
        if value is not None:
            self._scan_expr(value, env)
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        else:
            targets = [stmt.target]  # type: ignore[attr-defined]
        if value is None or len(targets) != 1:
            return env
        target = targets[0]
        key = _dotted(target)
        if key is None:
            return env
        ctor = self._ctor_spec(value)
        if ctor is not None:
            env[key] = ACQUIRED
            self._event("acquire", key, ctor, stmt)
            return env
        factory = self._factory_spec(value, env)
        if factory is not None:
            spec, weak = factory
            env[key] = ACQUIRED
            self._event("acquire", key, spec, stmt, weak=weak)
            return env
        if isinstance(value, ast.Constant) and value.value is None:
            if key in env and "A" not in env[key]:
                env[key] = NULL
        return env

    def _ctor_spec(self, value: ast.AST) -> Optional[LifecycleSpecInfo]:
        """The spec whose class ``value`` evidently constructs."""
        if not isinstance(value, ast.Call):
            return None
        name = _dotted(value.func)
        if name is None:
            return None
        tail = name.split(".")[-1]
        for spec in self.specs:
            if spec.acquire_on_construct and tail in spec.class_names:
                return spec
        return None

    def _factory_spec(self, value: ast.AST, env: Env
                      ) -> Optional[Tuple[LifecycleSpecInfo, bool]]:
        """``(spec, weak)`` when ``value`` is a handle-factory call."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            return None
        method = value.func.attr
        for spec in self.specs:
            strong = method in spec.handle_factories
            weak = method in spec.reschedule_factories
            if not (strong or weak):
                continue
            if self._receiver_is(value.func.value, spec):
                return spec, not strong
        return None

    def _receiver_is(self, receiver: ast.AST,
                     spec: LifecycleSpecInfo) -> bool:
        """Whether ``receiver`` is (or may be) a spec-class instance."""
        types = self.graph._expr_types(receiver, self.type_env)
        if any(t in spec.class_names for t in types):
            return True
        if spec.handle_factories or spec.reschedule_factories:
            text = _dotted(receiver) or ""
            tail = text.split(".")[-1].lower()
            if tail in _SIMISH_TAILS:
                return True
        return False

    def _mark_escapes(self, value: ast.AST, env: Env) -> None:
        """Returning a tracked local transfers ownership out."""
        for node in walk(value):
            if isinstance(node, ast.Name) and node.id in env:
                env[node.id] = NULL

    # -- calls -----------------------------------------------------------

    def _scan_stmt(self, stmt: ast.stmt, env: Env) -> None:
        for node in walk_skipping_lambdas(stmt):
            if isinstance(node, ast.Call):
                self._handle_call(node, env)

    def _scan_expr(self, expr: ast.AST, env: Env) -> None:
        for node in walk_skipping_lambdas(expr):
            if isinstance(node, ast.Call):
                self._handle_call(node, env)

    def _handle_call(self, call: ast.Call, env: Env) -> None:
        self.call_lines.add(call.lineno)
        func = call.func
        if isinstance(func, ast.Name):
            # ``cancel_event(handle)``-style module-function releases.
            for spec in self.specs:
                if (spec.handle_factories or spec.reschedule_factories) \
                        and func.id in spec.release and call.args:
                    key = _dotted(call.args[0])
                    if key is not None:
                        self._release(key, spec, call, env)
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver = func.value
        key = _dotted(receiver)
        for spec in self.specs:
            relevant = (method in spec.acquire or method in spec.release
                        or method in spec.uses)
            if not relevant or key is None:
                continue
            tracked = key in env and self.key_specs.get(key) is spec
            if not tracked and not self._receiver_is(receiver, spec):
                continue
            if method in spec.acquire:
                env[key] = ACQUIRED
                self._event("acquire", key, spec, call)
            elif method in spec.release:
                self._release(key, spec, call, env)
            elif method in spec.uses:
                if env.get(key) == RELEASED:
                    self._finding(
                        "LIF003", call,
                        f"use-after-release: {method}() on "
                        f"{spec.resource} {key!r} which is released "
                        f"(every path to this call passed its "
                        f"release) — the static form of the runtime "
                        f"guard that raises here")
            return
        self._apply_summaries(call, method, receiver, key, env)

    def _release(self, key: str, spec: LifecycleSpecInfo,
                 call: ast.Call, env: Env) -> None:
        prior = env.get(key)
        if prior == RELEASED and not spec.idempotent_release:
            self._finding(
                "LIF002", call,
                f"release without matching acquire: {spec.resource} "
                f"{key!r} is already released on every path to this "
                f"call — a second release is an error for this "
                f"resource")
        env[key] = RELEASED
        self._event("release", key, spec, call)

    def _apply_summaries(self, call: ast.Call, method: str,
                         receiver: ast.AST, receiver_text: Optional[str],
                         env: Env) -> None:
        """Map a helper call's acquire/release summary into this env."""
        site = self.sites.get(id(call))
        if site is None or not site.targets or receiver_text is None:
            return
        if receiver_text == "self" and self.concrete is not None:
            targets = self._concrete_targets(method) or list(site.targets)
        else:
            if not self.graph._expr_types(receiver, self.type_env):
                return
            targets = list(site.targets)
        targets = [t for t in targets
                   if t in self.graph.functions
                   and self.graph.functions[t].class_name is not None]
        if not targets:
            return
        summaries = [self.analysis.summary(t) for t in targets]
        keys: Set[str] = set()
        for summary in summaries:
            keys.update(summary.may_acquire)
            keys.update(summary.must_acquire)
            keys.update(summary.may_release)
        for key in sorted(keys):
            spec = next((s.key_specs[key] for s in summaries
                         if key in s.key_specs), None)
            if spec is None or self.analysis.exempt(self.function, spec):
                continue
            mapped = key if receiver_text == "self" \
                else receiver_text + key[len("self"):]
            released = [s for s in summaries if key in s.may_release]
            if released:
                must = (len(released) == len(summaries)
                        and all(self.analysis.discharges(t, key, spec)
                                for t in targets))
                if must:
                    env[mapped] = RELEASED
                    self._event("release", mapped, spec, call)
                else:
                    env[mapped] = frozenset(
                        env.get(mapped, UNKNOWN) | RELEASED)
                    self._event("may-release", mapped, spec, call)
            acquired = [s for s in summaries
                        if key in s.may_acquire or key in s.must_acquire]
            if acquired:
                if all(key in s.must_acquire for s in summaries):
                    env[mapped] = ACQUIRED
                    self._event("acquire", mapped, spec, call)
                else:
                    env[mapped] = frozenset(
                        env.get(mapped, UNKNOWN) | ACQUIRED)
                    self._event("may-acquire", mapped, spec, call)

    def _concrete_targets(self, method: str) -> List[str]:
        """Resolve ``self.method()`` through the concrete class MRO."""
        found: List[str] = []
        for info in self.graph.classes.get(self.concrete or "", ()):
            resolved = self.graph._lookup_method(info, method)
            if resolved is not None:
                found.append(resolved.qualname)
        return found


class LifecycleAnalysis:
    """Whole-tree lifecycle verification over a built call graph."""

    def __init__(self, graph: CallGraph,
                 specs: Sequence[LifecycleSpecInfo]) -> None:
        self.graph = graph
        self.specs = list(specs)
        self.findings: List[Finding] = []
        self._summaries: Dict[str, _Summary] = {}
        self._discharge_cache: Dict[Tuple[str, str], bool] = {}
        self._active: Set[str] = set()
        self.boundary_checks = 0

    def exempt(self, function: FunctionNode,
               spec: LifecycleSpecInfo) -> bool:
        """The resource's own module/classes manage state freely."""
        if function.module_path.endswith(spec.module):
            return True
        return function.class_name is not None \
            and function.class_name in spec.class_names

    # -- interprocedural summaries ---------------------------------------

    def summary(self, qualname: str) -> _Summary:
        cached = self._summaries.get(qualname)
        if cached is not None:
            return cached
        token = f"sum:{qualname}"
        if token in self._active \
                or qualname not in self.graph.functions:
            return _Summary()
        self._active.add(token)
        try:
            function = self.graph.functions[qualname]
            result = _Walker(self, function).run()
        finally:
            self._active.discard(token)
        may_acquire: Dict[str, int] = {}
        may_release: Set[str] = set()
        key_specs: Dict[str, LifecycleSpecInfo] = {}
        for event in result.events:
            if not event.key.startswith("self."):
                continue
            key_specs[event.key] = event.spec
            if event.kind in ("acquire", "may-acquire") \
                    and not event.weak:
                may_acquire.setdefault(event.key, event.line)
            elif event.kind in ("release", "may-release"):
                may_release.add(event.key)
        must_acquire = frozenset(
            key for key in may_acquire
            if result.exits
            and all(env.get(key) == ACQUIRED
                    for env, _, _ in result.exits))
        summary = _Summary(must_acquire=must_acquire,
                           may_acquire=may_acquire,
                           may_release=frozenset(may_release),
                           key_specs=key_specs)
        self._summaries[qualname] = summary
        return summary

    def discharges(self, qualname: str, key: str,
                   spec: LifecycleSpecInfo) -> bool:
        """Whether a call to ``qualname`` releases ``key`` on every
        non-raising path, given it enters acquired."""
        cache_key = (qualname, key)
        cached = self._discharge_cache.get(cache_key)
        if cached is not None:
            return cached
        token = f"dis:{qualname}:{key}"
        if token in self._active \
                or qualname not in self.graph.functions:
            return True  # optimistic on cycles: a must-property GFP
        self._active.add(token)
        try:
            ok, _ = self._seeded_walk(
                self.graph.functions[qualname], key, spec, None)
        finally:
            self._active.discard(token)
        self._discharge_cache[cache_key] = ok
        return ok

    def _seeded_walk(self, function: FunctionNode, key: str,
                     spec: LifecycleSpecInfo,
                     concrete: Optional[str]
                     ) -> Tuple[bool, Optional[Tuple[int, Tuple[str, ...]]]]:
        """Walk ``function`` with ``key`` acquired; report the first
        exit still holding it, if any."""
        walker = _Walker(self, function, seed={key: ACQUIRED},
                         seed_specs={key: spec},
                         concrete_class=concrete)
        result = walker.run()
        for env, line, guards in result.exits:
            if "A" in env.get(key, frozenset()):
                return False, (line, guards)
        return True, None

    # -- the per-function sweep ------------------------------------------

    def run(self) -> Tuple[List[Finding], Dict[str, object]]:
        for qualname in sorted(self.graph.functions):
            self._sweep_function(self.graph.functions[qualname])
        self._check_boundaries()
        self._check_construct_owners()
        self._check_span_pairing()
        extras: Dict[str, object] = {"lifecycle": {
            "specs": [{
                "resource": spec.resource,
                "module": spec.module,
                "classes": list(spec.class_names),
                "boundary": [list(pair) for pair in spec.boundary],
            } for spec in self.specs],
            "functions_walked": len(self.graph.functions),
            "boundary_obligations": self.boundary_checks,
        }}
        return self.findings, extras

    def _sweep_function(self, function: FunctionNode) -> None:
        if all(self.exempt(function, spec) for spec in self.specs):
            self._check_discarded_handles(function)
            return
        result = _Walker(self, function).run()
        self.findings.extend(result.findings)
        self._check_guard_mismatch(function, result)
        self._check_unwind(function, result)
        self._check_discarded_handles(function)

    def _check_guard_mismatch(self, function: FunctionNode,
                              result: _WalkResult) -> None:
        """LIF005: acquire and release guarded by different conditions."""
        by_key: Dict[str, List[_Event]] = {}
        for event in result.events:
            by_key.setdefault(event.key, []).append(event)
        for key, events in sorted(by_key.items()):
            releases = [e for e in events
                        if e.kind in ("release", "may-release")]
            if not releases:
                continue
            leaky = any("A" in env.get(key, frozenset())
                        for env, _, _ in result.exits)
            if not leaky:
                continue
            for event in events:
                if event.kind != "acquire" or not event.guards:
                    continue
                if all(r.guards != event.guards for r in releases):
                    other = " / ".join(sorted(
                        {" and ".join(r.guards) or "<unconditional>"
                         for r in releases}))
                    self.findings.append(function.ctx.finding_at(
                        "LIF005", event.line, event.col,
                        f"conditional acquire of {event.spec.resource} "
                        f"{key!r} (when {' and '.join(event.guards)}) "
                        f"is released under a different condition "
                        f"({other}): the pairing decorrelates and the "
                        f"resource leaks when the guards disagree"))
                    break

    def _check_unwind(self, function: FunctionNode,
                      result: _WalkResult) -> None:
        """LIF001 (unwind form): happy-path-only release of a resource
        whose spec demands exception safety."""
        by_key: Dict[str, List[_Event]] = {}
        for event in result.events:
            by_key.setdefault(event.key, []).append(event)
        for key, events in sorted(by_key.items()):
            spec = result.key_specs.get(key)
            if spec is None or not spec.release_on_unwind:
                continue
            root = key.split(".")[0]
            if root == "self":
                continue  # attribute-held: the class-ownership audit
            acquires = [e for e in events
                        if e.kind in ("acquire", "may-acquire")]
            if not acquires or self._root_escapes(function, root, key):
                continue
            releases = [e for e in events
                        if e.kind in ("release", "may-release")]
            first_acquire = min(e.line for e in acquires)
            if not releases:
                if any("A" in env.get(key, frozenset())
                       for env, _, _ in result.exits):
                    self.findings.append(function.ctx.finding_at(
                        "LIF001", first_acquire, acquires[0].col,
                        f"{spec.resource} {key!r} is acquired here "
                        f"and never released on any path out of "
                        f"{function.qualname}"))
                continue
            if any(e.protected for e in releases):
                continue
            first_release = min(e.line for e in releases)
            event_lines = {e.line for e in events}
            risky = any(first_acquire < line < first_release
                        and line not in event_lines
                        for line in result.call_lines)
            if risky:
                self.findings.append(function.ctx.finding_at(
                    "LIF001", first_acquire, acquires[0].col,
                    f"{spec.resource} {key!r} is only released on the "
                    f"happy path: an exception between line "
                    f"{first_acquire} and line {first_release} leaks "
                    f"it un-flushed — move the release into a "
                    f"try/finally or a with block"))

    def _root_escapes(self, function: FunctionNode, root: str,
                      key: str) -> bool:
        """Whether the local ``root`` is handed to another owner."""
        if "." in key:
            return False  # obs._sink: the *resource* stays inside obs
        for node in walk(function.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if any(isinstance(sub, ast.Name) and sub.id == root
                       for sub in walk(node.value)):
                    return True
            elif isinstance(node, ast.Call):
                for arg in list(node.args) + [k.value
                                              for k in node.keywords]:
                    if any(isinstance(sub, ast.Name) and sub.id == root
                           for sub in walk(arg)):
                        return True
            elif isinstance(node, ast.Assign):
                if not any(isinstance(sub, ast.Name) and sub.id == root
                           for sub in walk(node.value)):
                    continue
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript,
                                           ast.Tuple, ast.List)):
                        return True
            elif isinstance(node, (ast.List, ast.Tuple, ast.Dict,
                                   ast.Set)):
                continue
        return False

    # -- LIF004: unowned handles -----------------------------------------

    def _check_discarded_handles(self, function: FunctionNode) -> None:
        specs = [spec for spec in self.specs
                 if (spec.handle_factories or spec.reschedule_factories)
                 and not self.exempt(function, spec)]
        if not specs:
            return
        walker = _Walker(self, function)  # for type env + receiver check
        body = list(getattr(function.node, "body", []))
        guarded = self._has_early_exit_guard(body)
        for node in walk_skipping_lambdas(function.node):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)):
                continue
            call = node.value
            method = call.func.attr  # type: ignore[union-attr]
            for spec in specs:
                receiver = call.func.value  # type: ignore[union-attr]
                if method in spec.handle_factories \
                        and walker._receiver_is(receiver, spec):
                    self.findings.append(function.ctx.finding_at(
                        "LIF004", call.lineno, call.col_offset,
                        f"periodic {spec.resource} from {method}() is "
                        f"discarded: the event can never be cancelled "
                        f"for the rest of the run — store the returned "
                        f"handle and cancel it on the stop path"))
                elif method in spec.reschedule_factories \
                        and node in body and not guarded \
                        and self._calls_enclosing(call, function) \
                        and walker._receiver_is(receiver, spec):
                    self.findings.append(function.ctx.finding_at(
                        "LIF004", call.lineno, call.col_offset,
                        f"unconditional self-reschedule via {method}() "
                        f"with the handle discarded: "
                        f"{function.name}() re-arms itself on every "
                        f"call with no early-exit guard and no stored "
                        f"handle, so nothing can ever stop it — guard "
                        f"on the stopped state or store and cancel "
                        f"the handle"))

    @staticmethod
    def _has_early_exit_guard(body: Sequence[ast.stmt]) -> bool:
        """A top-level ``if ...: return/raise`` before the re-arm."""
        for stmt in body:
            if isinstance(stmt, ast.If):
                for sub in walk(stmt):
                    if isinstance(sub, (ast.Return, ast.Raise)):
                        return True
        return False

    @staticmethod
    def _calls_enclosing(call: ast.Call,
                         function: FunctionNode) -> bool:
        """Whether a scheduling call's arguments re-enter ``function``."""
        name = function.name
        for arg in list(call.args) + [k.value for k in call.keywords]:
            for sub in walk(arg):
                if isinstance(sub, ast.Attribute) and sub.attr == name:
                    return True
                if isinstance(sub, ast.Name) and sub.id == name:
                    return True
        return False

    # -- LIF001: boundary obligations ------------------------------------

    def _check_boundaries(self) -> None:
        seen: Set[Tuple[str, str, str]] = set()
        for class_name in sorted(self.graph.classes):
            for info in self.graph.classes[class_name]:
                for spec in self.specs:
                    if not spec.boundary:
                        continue
                    if info.name in spec.class_names \
                            or info.module_path.endswith(spec.module):
                        continue
                    for a_hook, r_hook in spec.boundary:
                        self._check_boundary(info.name, spec, a_hook,
                                             r_hook, seen)

    def _check_boundary(self, class_name: str,
                        spec: LifecycleSpecInfo, a_hook: str,
                        r_hook: str,
                        seen: Set[Tuple[str, str, str]]) -> None:
        infos = self.graph.classes.get(class_name, [])
        a_fn = r_fn = None
        for info in infos:
            a_fn = self.graph._lookup_method(info, a_hook)
            r_fn = self.graph._lookup_method(info, r_hook)
            if a_fn is not None and r_fn is not None:
                break
        if a_fn is None or r_fn is None:
            return
        if self.exempt(a_fn, spec) or self.exempt(r_fn, spec):
            return
        acquire_summary = self.summary(a_fn.qualname)
        keys = sorted(
            key for key in acquire_summary.must_acquire
            if acquire_summary.key_specs.get(key) is spec)
        for key in keys:
            dedup = (a_fn.qualname, r_fn.qualname, key)
            if dedup in seen:
                continue
            seen.add(dedup)
            self.boundary_checks += 1
            ok, witness = self._seeded_walk(r_fn, key, spec,
                                            concrete=class_name)
            if ok:
                continue
            line, guards = witness or (r_fn.lineno, ())
            when = f" (when {' and '.join(guards)})" if guards else ""
            self.findings.append(r_fn.ctx.finding_at(
                "LIF001", r_fn.lineno,
                getattr(r_fn.node, "col_offset", 0),
                f"{spec.resource} {key!r} acquired on every path "
                f"through {class_name}.{a_hook} is still acquired on "
                f"the path out of {r_hook} exiting at line "
                f"{line}{when}: release it with "
                f"{' / '.join(spec.release)}()"))

    # -- LIF004: constructed-but-never-released attributes ---------------

    def _check_construct_owners(self) -> None:
        specs = [spec for spec in self.specs
                 if spec.acquire_on_construct and spec.release]
        if not specs:
            return
        for class_name in sorted(self.graph.classes):
            for info in self.graph.classes[class_name]:
                for spec in specs:
                    if info.name in spec.class_names \
                            or info.module_path.endswith(spec.module):
                        continue
                    self._audit_class_ownership(info, spec)

    def _audit_class_ownership(self, info: object,
                               spec: LifecycleSpecInfo) -> None:
        stored: List[Tuple[str, ast.AST, FileContext]] = []
        for method in info.methods.values():  # type: ignore[attr-defined]
            if self.exempt(method, spec):
                return
            for node in walk(method.node):
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Attribute) \
                        and isinstance(
                            node.targets[0].value, ast.Name) \
                        and node.targets[0].value.id == "self" \
                        and isinstance(node.value, ast.Call):
                    name = _dotted(node.value.func)
                    if name is not None \
                            and name.split(".")[-1] in spec.class_names:
                        stored.append((node.targets[0].attr, node,
                                       method.ctx))
        if not stored:
            return
        released: Set[str] = set()
        for mro_info in self.graph.mro(
                info.name):  # type: ignore[attr-defined]
            for method in mro_info.methods.values():
                for node in walk(method.node):
                    if isinstance(node, ast.Call) \
                            and isinstance(node.func, ast.Attribute) \
                            and node.func.attr in spec.release:
                        text = _dotted(node.func.value) or ""
                        if text.startswith("self."):
                            released.add(text[len("self."):])
        for attr, node, ctx in stored:
            if attr in released:
                continue
            self.findings.append(ctx.finding_at(
                "LIF004", node.lineno,
                getattr(node, "col_offset", 0),
                f"{spec.resource} stored in self.{attr} is never "
                f"released by any method of "
                f"{info.name}"  # type: ignore[attr-defined]
                f" (or its bases): the resource has no owner — add a "
                f"close/teardown path calling "
                f"{' / '.join(spec.release)}()"))

    # -- LIF001: span phase pairing --------------------------------------

    def _check_span_pairing(self) -> None:
        specs = [spec for spec in self.specs if spec.class_paired]
        if not specs:
            return
        for class_name in sorted(self.graph.classes):
            for info in self.graph.classes[class_name]:
                for spec in specs:
                    if info.name in spec.class_names \
                            or info.module_path.endswith(spec.module):
                        continue
                    self._audit_span_class(info, spec)

    def _audit_span_class(self, info: object,
                          spec: LifecycleSpecInfo) -> None:
        own_calls = self._paired_calls(
            [info], spec)  # type: ignore[list-item]
        if not own_calls:
            return
        mro_calls = self._paired_calls(
            self.graph.mro(info.name), spec)  # type: ignore[attr-defined]
        for opener, closer in spec.class_paired:
            if opener not in own_calls:
                continue
            if any(self.exempt(method, spec)
                   for method, _ in own_calls[opener]):
                continue
            if closer in mro_calls:
                continue
            method, node = own_calls[opener][0]
            self.findings.append(method.ctx.finding_at(
                "LIF001", node.lineno,
                getattr(node, "col_offset", 0),
                f"{spec.resource} phase opened with {opener}() is "
                f"never closed: no method of "
                f"{info.name}"  # type: ignore[attr-defined]
                f" (or its bases) calls {closer}(), so every "
                f"{opener} leaves a dangling open phase"))

    def _paired_calls(self, infos: Sequence[object],
                      spec: LifecycleSpecInfo
                      ) -> Dict[str, List[Tuple[FunctionNode, ast.AST]]]:
        names = {name for pair in spec.class_paired for name in pair}
        found: Dict[str, List[Tuple[FunctionNode, ast.AST]]] = {}
        for info in infos:
            for method in info.methods.values():  # type: ignore[attr-defined]
                env = self.graph._local_env(method)
                for node in walk(method.node):
                    if not (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in names):
                        continue
                    receiver = node.func.value
                    text = _dotted(receiver) or ""
                    tail = text.split(".")[-1].lower()
                    types = self.graph._expr_types(receiver, env)
                    if "spans" in tail \
                            or any(t in spec.class_names for t in types):
                        found.setdefault(node.func.attr, []).append(
                            (method, node))
        return found


def analyze_lifecycles(contexts: Sequence[FileContext],
                       graph: Optional[CallGraph] = None,
                       ) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the lifecycle pass; returns findings plus report extras."""
    specs = _extract_specs(contexts)
    if not specs:
        return [], {"lifecycle": {"specs": [], "functions_walked": 0,
                                  "boundary_obligations": 0}}
    if graph is None:
        graph = build_call_graph(contexts)
    analysis = LifecycleAnalysis(graph, specs)
    return analysis.run()


__all__ = [
    "CODES",
    "LifecycleAnalysis",
    "LifecycleSpecInfo",
    "analyze_lifecycles",
]
