"""Interprocedural effect inference and the OBS observability rules.

The platform's headline observability guarantee — spans/metrics/trace
hooks on ≡ off, byte-identical — is enforced dynamically by
``tools/determinism_check.py`` check 4.  This pass is its static form:
it computes, for every function in the tree, a fixed-point *effect
set* over the lattice

    {advances-time, draws-rng, io, mutates-ledger,
     mutates-sim-state, schedules-event}

and then proves that no code path reachable from an observability hook
carries a simulation-state effect.  ``io`` is tracked but *allowed* in
hooks (writing a JSONL trace perturbs nothing the kernel can see); the
other five are forbidden.

Effect seeding
--------------
* **Kernel/ledger intrinsics** — ``Simulator.at/after/every/call_soon``
  seed ``schedules-event``; ``Simulator.run_until`` seeds
  ``advances-time``; ``PowerStateLedger.transition/retag/...`` and the
  accountants' ``book*`` methods seed ``mutates-ledger``.
* **Mutations** — attribute stores, subscript stores, ``del``, and
  mutating container-method calls (``append``, ``add``, ``update``...)
  seed ``mutates-sim-state`` *unless* the mutated object is
  observability state: an instance of a class defined in an
  observability module (``obs/``, ``sim/trace.py`` — configurable), or
  a fresh object the function itself just constructed.  Mutating a
  module global (the PR 4 counter-bug shape) always counts.
* **RNG draws** — draw-method calls (``random``, ``uniform``,
  ``gauss``, ...) on rng-ish receivers seed ``draws-rng``.
* **io** — ``open``/``print``, ``os.*``/``sys.*`` calls and
  file-object ``write``/``flush`` seed ``io``.

Effects propagate caller-ward over the
:class:`~repro.lint.callgraph.CallGraph` to a fixed point.  Where
inference is too conservative, a function may be pinned with a
``# effect: pure`` comment on (or directly above) its ``def`` line:
the pin replaces inference for that function — and like every waiver
it is a reviewable, greppable declaration at the point of use.

Rules
-----
* **OBS001** — a statement *directly inside* a spans/metrics/trace
  hook guard (``if self.spans is not None:``) has a forbidden effect
  of its own.  Anything that only happens when observability is
  attached must not touch simulation state.
* **OBS002** — a call inside a hook guard *reaches* (transitively,
  through the call graph) a function with a forbidden effect.  The
  finding names the witness path.
* **OBS003** — a pull-based metrics hook (an ``observe_metrics``
  implementation) has a forbidden effect, directly or transitively.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, CallSite, FunctionNode, build_call_graph
from .config import (EFFECTS_HOOK_ATTRS, EFFECTS_HOOK_METHODS,
                     EFFECTS_OBS_MODULES)
from .dataflow import walk
from .engine import FileContext, Finding

#: The finding codes this analysis reports.
CODES = ("OBS001", "OBS002", "OBS003")

#: The full effect lattice (alphabetical; serialised in this order).
EFFECTS = ("advances-time", "draws-rng", "io", "mutates-ledger",
           "mutates-sim-state", "schedules-event")

#: Effects a hook-reachable function must not have.  ``io`` is allowed:
#: exporting a span to a sink perturbs nothing the simulation can see.
FORBIDDEN_IN_HOOKS = frozenset(EFFECTS) - {"io"}

#: Container/collection methods that mutate their receiver.
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: ``random.Random`` / numpy Generator draw methods.
DRAW_METHODS = frozenset({
    "betavariate", "binomial", "choice", "choices", "expovariate",
    "gammavariate", "gauss", "getrandbits", "integers",
    "lognormvariate", "normal", "normalvariate", "paretovariate",
    "poisson", "randint", "random", "randrange", "sample", "shuffle",
    "standard_normal", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Receiver-name fragments marking an object as an RNG.
_RNGISH_TOKENS = ("rng", "random", "stream")

#: Unresolved method names that evidently write to a file-like object.
_IO_METHODS = frozenset({"write", "writelines", "flush"})

#: Builtin / stdlib callables that perform io.
_IO_CALLS = frozenset({"open", "print", "input"})
_IO_MODULE_PREFIXES = ("os.", "sys.", "shutil.", "subprocess.",
                       "json.dump", "pickle.dump")

#: Intrinsic effect seeds for kernel/ledger primitives, keyed by
#: ``(class name, method name)``.  Inference would find most of these
#: from the bodies; seeding makes the contract explicit and robust to
#: refactors of the primitives themselves.
_INTRINSIC_EFFECTS: Dict[Tuple[str, str], FrozenSet[str]] = {
    ("Simulator", "at"): frozenset({"schedules-event"}),
    ("Simulator", "after"): frozenset({"schedules-event"}),
    ("Simulator", "every"): frozenset({"schedules-event"}),
    ("Simulator", "call_soon"): frozenset({"schedules-event"}),
    ("Simulator", "add_end_hook"): frozenset({"schedules-event"}),
    ("Simulator", "run_until"): frozenset({"advances-time"}),
    ("Simulator", "next_serial"): frozenset({"mutates-sim-state"}),
    ("TaskScheduler", "post"): frozenset({"schedules-event"}),
    ("PowerStateLedger", "transition"): frozenset({"mutates-ledger"}),
    ("PowerStateLedger", "retag"): frozenset({"mutates-ledger"}),
    ("PowerStateLedger", "close"): frozenset({"mutates-ledger"}),
    ("PowerStateLedger", "reset"): frozenset({"mutates-ledger"}),
}

#: Method-name seeds applied when the receiver could not be resolved
#: (belt and braces under inference failure).
_UNRESOLVED_SCHEDULING = frozenset({"at", "after", "every", "call_soon"})
_UNRESOLVED_LEDGER = frozenset({"transition", "retag"})


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_obs_module(module_path: str) -> bool:
    return any(module_path.startswith(entry) or module_path == entry
               or module_path.endswith(entry)
               for entry in EFFECTS_OBS_MODULES)


def _mutated_object(target: ast.AST) -> Optional[ast.AST]:
    """The object a store target mutates.

    ``a.b = v`` mutates ``a``; ``a.b[k] = v`` mutates the container
    ``a.b``; a plain-name target rebinds a local (no mutation).
    """
    if isinstance(target, ast.Attribute):
        return target.value
    if isinstance(target, ast.Subscript):
        inner = target.value
        while isinstance(inner, ast.Subscript):
            inner = inner.value
        return inner
    return None


class EffectAnalysis:
    """Whole-tree effect inference over a built call graph."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: Names of classes defined in observability modules.
        self.obs_classes: Set[str] = {
            name for name, infos in graph.classes.items()
            if any(_is_obs_module(info.module_path) for info in infos)}
        #: Names of simulation-side classes (defined outside obs).
        self.sim_classes: Set[str] = {
            name for name, infos in graph.classes.items()
            if any(not _is_obs_module(info.module_path)
                   for info in infos)}
        #: Functions pinned pure with ``# effect: pure``.
        self.pure_pins: Set[str] = set()
        #: Direct (intrinsic + body-local) effects per function.
        self.direct: Dict[str, FrozenSet[str]] = {}
        #: Fixed-point (transitive) effects per function.
        self.effects: Dict[str, FrozenSet[str]] = {}
        self._compute()

    # -- pure pins ------------------------------------------------------

    def _is_pinned_pure(self, function: FunctionNode) -> bool:
        comments = function.ctx.comments
        lineno = function.lineno
        decorators = getattr(function.node, "decorator_list", ())
        first = min([lineno] + [d.lineno for d in decorators])
        return any(
            comments.get(line, "").lstrip("# ").replace(" ", "")
            .startswith("effect:pure")
            for line in (lineno, first - 1, lineno - 1))

    # -- direct effects -------------------------------------------------

    def _compute(self) -> None:
        for qualname, function in self.graph.functions.items():
            if self._is_pinned_pure(function):
                self.pure_pins.add(qualname)
                self.direct[qualname] = frozenset()
                continue
            self.direct[qualname] = self._direct_effects(function)
        # Fixed point: effects(f) = direct(f) | U effects(callee).
        self.effects = {name: set(effects)  # type: ignore[misc]
                        for name, effects in self.direct.items()}
        changed = True
        while changed:
            changed = False
            for qualname in self.graph.functions:
                if qualname in self.pure_pins:
                    continue
                current = self.effects[qualname]
                before = len(current)
                for site in self.graph.calls.get(qualname, ()):
                    for target in site.targets:
                        current |= self.effects.get(target, set())
                if len(current) != before:
                    changed = True
        self.effects = {name: frozenset(effects)
                        for name, effects in self.effects.items()}

    def direct_statement_effects(self, function: FunctionNode,
                                 stmts: Sequence[ast.stmt]
                                 ) -> List[Tuple[ast.AST, str, str]]:
        """Direct effects of a statement list, with locations.

        Returns ``(node, effect, description)`` triples — the machinery
        behind both whole-function seeding and the OBS001 in-guard
        check.
        """
        found: List[Tuple[ast.AST, str, str]] = []
        fresh = self._fresh_locals(function)
        rngish = self._rngish_locals(function)
        env = self.graph._local_env(function)
        in_obs = _is_obs_module(function.module_path)
        targets_by_call = {
            id(site.call): site.targets
            for site in self.graph.calls.get(function.qualname, ())}

        def classify_mutation(target: ast.AST) -> Optional[str]:
            """None when benign, else a description of the mutation."""
            # Unwrap subscripts: ``a.b[k]`` mutates ``a.b``.
            while isinstance(target, ast.Subscript):
                target = target.value
            types = self.graph._expr_types(target, env)
            if types:
                if all(t in self.obs_classes
                       and t not in self.sim_classes for t in types):
                    return None  # observability state
                if any(t in self.sim_classes for t in types):
                    return _dotted(target) or "object"
            if isinstance(target, ast.Call):
                root = target.func
                if isinstance(root, ast.Attribute):
                    return classify_mutation(root.value)
                return None  # fresh call result
            if isinstance(target, ast.Attribute):
                return classify_mutation(target.value)
            if isinstance(target, ast.Name):
                if target.id == "self":
                    return None if in_obs else "self"
                if target.id in fresh:
                    return None
                if target.id in env and all(
                        t in self.obs_classes for t in env[target.id]):
                    return None
                if in_obs:
                    return None  # obs-local plumbing
                return target.id
            return None if in_obs else (_dotted(target) or "object")

        module_globals = self._module_global_targets(function)

        for stmt in stmts:
            for node in walk(stmt):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.Lambda)) and node is not stmt:
                    continue
                if isinstance(node, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    targets = node.targets \
                        if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            if target.id in module_globals:
                                found.append((
                                    node, "mutates-sim-state",
                                    f"assignment to module global "
                                    f"{target.id!r}"))
                            continue
                        obj = _mutated_object(target)
                        if obj is not None:
                            what = classify_mutation(obj)
                            if what is not None:
                                found.append((
                                    node, "mutates-sim-state",
                                    f"mutation of {what!r}"))
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        obj = _mutated_object(target)
                        if obj is not None:
                            what = classify_mutation(obj)
                            if what is not None:
                                found.append((
                                    node, "mutates-sim-state",
                                    f"del on {what!r}"))
                elif isinstance(node, ast.Call):
                    found.extend(self._call_effects(
                        node, targets_by_call, rngish, classify_mutation))
        return found

    def _call_effects(self, call: ast.Call,
                      targets_by_call: Dict[int, Tuple[str, ...]],
                      rngish: Set[str],
                      classify_mutation) -> List[Tuple[ast.AST, str, str]]:
        found: List[Tuple[ast.AST, str, str]] = []
        name = _dotted(call.func) or ""
        tail = name.split(".")[-1]
        receiver_text = ""
        receiver_node: Optional[ast.AST] = None
        if isinstance(call.func, ast.Attribute):
            receiver_node = call.func.value
            receiver_text = (_dotted(receiver_node) or "").lower()
        resolved = bool(targets_by_call.get(id(call)))
        # io ------------------------------------------------------------
        if tail in _IO_CALLS and "." not in name:
            found.append((call, "io", f"{tail}() performs io"))
        elif any(name.startswith(prefix)
                 for prefix in _IO_MODULE_PREFIXES):
            found.append((call, "io", f"{name}() performs io"))
        elif tail in _IO_METHODS and not resolved:
            found.append((call, "io", f".{tail}() on a file-like "
                          "object performs io"))
        # object.__setattr__(x, ...) — frozen-dataclass mutation.
        if name == "object.__setattr__" and call.args:
            what = classify_mutation(call.args[0])
            if what is not None:
                found.append((call, "mutates-sim-state",
                              f"object.__setattr__ on {what!r}"))
        # RNG draws ------------------------------------------------------
        if tail in DRAW_METHODS and receiver_node is not None:
            leaves = receiver_text.replace(".", " ").split()
            rng_receiver = any(
                any(token in leaf for token in _RNGISH_TOKENS)
                for leaf in leaves)
            if not rng_receiver and isinstance(receiver_node, ast.Name):
                rng_receiver = receiver_node.id in rngish
            if rng_receiver:
                found.append((call, "draws-rng",
                              f"{name}() draws from an RNG stream"))
        # Unresolved kernel/ledger shapes --------------------------------
        if not resolved and receiver_node is not None:
            if tail in _UNRESOLVED_SCHEDULING and (
                    "sim" in receiver_text or "kernel" in receiver_text):
                found.append((call, "schedules-event",
                              f"{name}() schedules a kernel event"))
            elif tail == "post" and "scheduler" in receiver_text:
                found.append((call, "schedules-event",
                              f"{name}() posts a scheduler task"))
            elif tail in _UNRESOLVED_LEDGER:
                found.append((call, "mutates-ledger",
                              f"{name}() drives a power-state ledger"))
            elif tail in ("book", "book_collision_tx") and (
                    "accountant" in receiver_text
                    or "ledger" in receiver_text):
                found.append((call, "mutates-ledger",
                              f"{name}() books energy"))
        # Mutating container method on a non-fresh receiver --------------
        if tail in MUTATOR_METHODS and receiver_node is not None \
                and not resolved:
            what = classify_mutation(receiver_node)
            if what is not None:
                found.append((call, "mutates-sim-state",
                              f".{tail}() mutates {what!r}"))
        return found

    def _direct_effects(self, function: FunctionNode) -> FrozenSet[str]:
        effects: Set[str] = set()
        intrinsic = _INTRINSIC_EFFECTS.get(
            (function.class_name or "", function.name))
        if intrinsic:
            effects |= intrinsic
        body = function.node.body  # type: ignore[attr-defined]
        for _, effect, _ in self.direct_statement_effects(function, body):
            effects.add(effect)
        return frozenset(effects)

    # -- local classification helpers -----------------------------------

    def _fresh_locals(self, function: FunctionNode) -> Set[str]:
        """Locals only ever bound to objects this function creates."""
        fresh: Set[str] = set()
        stale: Set[str] = set()
        for node in walk(function.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                if isinstance(node, ast.Assign):
                    targets = [t for t in node.targets
                               if isinstance(t, ast.Name)]
                else:
                    targets = [node.target] \
                        if isinstance(node.target, ast.Name) else []
                if not targets or node.value is None:
                    continue
                if self._is_fresh_expr(node.value):
                    for target in targets:
                        fresh.add(target.id)
                else:
                    for target in targets:
                        stale.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    stale.add(node.target.id)
        return fresh - stale

    def _is_fresh_expr(self, value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp, ast.Constant,
                              ast.Tuple, ast.JoinedStr)):
            return True
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is None:
                return False
            tail = name.split(".")[-1]
            return (tail in ("list", "dict", "set", "tuple", "deque",
                             "defaultdict", "OrderedDict", "Counter",
                             "sorted", "bytearray")
                    or tail in self.graph.classes)
        return False

    def _rngish_locals(self, function: FunctionNode) -> Set[str]:
        """Locals aliasing an RNG (``r = self._backoff_stream``)."""
        rngish: Set[str] = set()
        for node in walk(function.node):
            if not isinstance(node, ast.Assign):
                continue
            source = _dotted(node.value)
            if source is None and isinstance(node.value, ast.Call):
                source = _dotted(node.value.func)
            if source is None:
                continue
            lowered = source.lower()
            if any(token in lowered for token in _RNGISH_TOKENS):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rngish.add(target.id)
        return rngish

    def _module_global_targets(self, function: FunctionNode) -> Set[str]:
        names: Set[str] = set()
        for node in walk(function.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                names.update(node.names)
        return names

    # -- queries ---------------------------------------------------------

    def effects_of(self, qualname: str) -> FrozenSet[str]:
        return self.effects.get(qualname, frozenset())

    def forbidden_effects_of(self, qualname: str) -> FrozenSet[str]:
        return self.effects_of(qualname) & FORBIDDEN_IN_HOOKS

    def witness_path(self, start: str) -> List[str]:
        """Shortest call path from ``start`` to a direct forbidden
        effect (BFS; ``start`` included)."""
        if self.direct.get(start, frozenset()) & FORBIDDEN_IN_HOOKS:
            return [start]
        seen = {start}
        frontier: List[List[str]] = [[start]]
        while frontier:
            path = frontier.pop(0)
            for site in self.graph.calls.get(path[-1], ()):
                for target in site.targets:
                    if target in seen:
                        continue
                    seen.add(target)
                    extended = path + [target]
                    if self.direct.get(target, frozenset()) \
                            & FORBIDDEN_IN_HOOKS:
                        return extended
                    if self.effects.get(target, frozenset()) \
                            & FORBIDDEN_IN_HOOKS:
                        frontier.append(extended)
        return [start]


# ----------------------------------------------------------------------
# Hook-guard detection
# ----------------------------------------------------------------------
def _guard_exprs(test: ast.AST) -> List[ast.AST]:
    """The ``X`` of every ``X is not None`` clause in an if-test."""
    found: List[ast.AST] = []
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for value in test.values:
            found.extend(_guard_exprs(value))
        return found
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.ops[0], ast.IsNot) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        found.append(test.left)
    return found


def _hook_attr_name(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


class HookAudit:
    """Detected hook guard sites and hook methods across the tree."""

    def __init__(self) -> None:
        #: ``(module_path, class name or "", lineno, attr name)``.
        self.span_guards: List[Tuple[str, str, int, str]] = []
        #: Qualnames of ``observe_metrics``-style hook methods.
        self.hook_methods: List[str] = []

    def guard_classes(self) -> Set[str]:
        """Class names carrying at least one hook guard site."""
        return {cls for _, cls, _, _ in self.span_guards if cls}

    def to_summary(self) -> Dict[str, object]:
        return {
            "span_guards": [
                {"module": module, "class": cls, "line": line,
                 "attr": attr}
                for module, cls, line, attr in sorted(self.span_guards)],
            "hook_methods": sorted(self.hook_methods),
        }


def analyze_effects(contexts: Sequence[FileContext],
                    graph: Optional[CallGraph] = None,
                    ) -> Tuple[List[Finding], Dict[str, object]]:
    """Run effect inference + the OBS rules; return findings + extras."""
    if graph is None:
        graph = build_call_graph(contexts)
    analysis = EffectAnalysis(graph)
    audit = HookAudit()
    findings: List[Finding] = []

    for qualname, function in graph.functions.items():
        ctx = function.ctx
        in_obs = _is_obs_module(function.module_path)
        # OBS003: pull-based metrics hooks must be sim-pure.
        if function.name in EFFECTS_HOOK_METHODS:
            audit.hook_methods.append(qualname)
            forbidden = analysis.forbidden_effects_of(qualname)
            if forbidden:
                path = analysis.witness_path(qualname)
                findings.append(ctx.finding_at(
                    "OBS003", function.lineno,
                    getattr(function.node, "col_offset", 0),
                    f"metrics hook {qualname} has effect(s) "
                    f"{{{', '.join(sorted(forbidden))}}} on simulation "
                    f"state (via {' -> '.join(path)}); pull-based "
                    f"hooks must only read"))
        # Span/trace guards.
        for node in walk(function.node):
            if not isinstance(node, ast.If):
                continue
            hooked = None
            for expr in _guard_exprs(node.test):
                attr = _hook_attr_name(expr)
                if attr in EFFECTS_HOOK_ATTRS:
                    hooked = attr
                    break
            if hooked is None:
                continue
            audit.span_guards.append((
                function.module_path, function.class_name or "",
                node.lineno, hooked))
            if in_obs:
                continue  # guards inside obs code guard obs state
            # OBS001: direct effects of the guarded statements.
            for offender, effect, description in \
                    analysis.direct_statement_effects(function, node.body):
                if effect not in FORBIDDEN_IN_HOOKS:
                    continue
                findings.append(ctx.finding_at(
                    "OBS001", offender.lineno,
                    getattr(offender, "col_offset", 0),
                    f"{description} inside the {hooked!r} hook guard: "
                    f"code conditional on observability being attached "
                    f"must not touch simulation state ({effect})"))
            # OBS002: transitive effects of guarded calls.
            guarded_calls = {
                id(sub) for stmt in node.body
                for sub in walk(stmt) if isinstance(sub, ast.Call)}
            for site in graph.calls.get(qualname, ()):
                if id(site.call) not in guarded_calls:
                    continue
                for target in site.targets:
                    forbidden = analysis.forbidden_effects_of(target)
                    if not forbidden:
                        continue
                    path = analysis.witness_path(target)
                    findings.append(ctx.finding_at(
                        "OBS002", site.call.lineno,
                        site.call.col_offset,
                        f"call inside the {hooked!r} hook guard "
                        f"reaches {path[-1]} which has effect(s) "
                        f"{{{', '.join(sorted(forbidden))}}} "
                        f"(path: {' -> '.join(path)}); spans/metrics "
                        f"on must stay byte-identical to off"))
                    break  # one finding per call site

    effect_table = {
        qualname: sorted(effects)
        for qualname, effects in sorted(analysis.effects.items())
        if effects}
    extras: Dict[str, object] = {
        "call_graph": graph.to_summary(),
        "effects": {
            "lattice": list(EFFECTS),
            "forbidden_in_hooks": sorted(FORBIDDEN_IN_HOOKS),
            "functions": effect_table,
            "pure_pins": sorted(analysis.pure_pins),
            "hooks": audit.to_summary(),
        },
    }
    return findings, extras


def audit_hooks(contexts: Sequence[FileContext]
                ) -> Tuple[HookAudit, List[Finding]]:
    """The hook audit alone (for ``tools/determinism_check.py``).

    Returns the audit plus any OBS findings, so the cross-check can
    both compare hook sets and assert the static pass is clean.
    """
    findings, extras = analyze_effects(contexts)
    audit = HookAudit()
    hooks = extras["effects"]["hooks"]  # type: ignore[index]
    for entry in hooks["span_guards"]:  # type: ignore[index]
        audit.span_guards.append((entry["module"], entry["class"],
                                  entry["line"], entry["attr"]))
    audit.hook_methods = list(hooks["hook_methods"])  # type: ignore[index]
    return audit, findings


__all__ = [
    "CODES",
    "DRAW_METHODS",
    "EFFECTS",
    "EffectAnalysis",
    "FORBIDDEN_IN_HOOKS",
    "HookAudit",
    "MUTATOR_METHODS",
    "analyze_effects",
    "audit_hooks",
]
