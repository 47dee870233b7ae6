"""Power-state machine verification (rules SM001–SM005).

Time-in-state energy accounting is only as good as the state machine
feeding it: if the radio model can reach TX from POWER_DOWN, the
ledger happily books 17.54 mA against a state the nRF2401 cannot
physically enter from there.  This pass proves, statically, that the
transitions *encoded* in the component models are exactly the
transitions *declared* next to the calibration data.

Declared specs
--------------
Each component carries a :class:`repro.core.states.TransitionSpec`
(``MCU_TRANSITIONS``, ``RADIO_TRANSITIONS``, ``ASIC_TRANSITIONS`` in
``repro/core/states.py``): the state set, the initial state, the legal
``(src, dst)`` edges, and the *busy flags* — boolean attributes that
are documented to be equivalent to a state subset (``_tx_busy`` ⇔
``state == "tx"``), which is what lets guard clauses like ``if
self._tx_busy: raise`` narrow the analysis.  Specs are read from the
AST, never imported, so fixtures can co-locate a spec with the code it
describes.

Encoded graph
-------------
For every method of the spec'd class the pass walks statements
forward, tracking the *set of power states the component can be in*:

* entry is every declared state, unless the method carries a ``# sm:
  assume(state, ...)`` header annotation (for callbacks only ever
  scheduled from known states);
* ``if``-guards on ``self.<ledger>.state == CONST`` / ``in (A, B)``,
  boolean state properties (``is_sleeping``), and busy flags narrow
  the set along each branch, and branches that ``return``/``raise``
  prune their states from the fall-through;
* every ``<ledger>.transition(target)`` reached with possible states
  ``S`` contributes the edges ``{(s, target) for s in S, s != target}``
  (self-loops are re-tags, not transitions);
* lambdas are opaque: work scheduled via ``sim.after(...)`` is
  analysed in the method it calls, under that method's own entry
  assumption.

Rules
-----
* **SM001** — an encoded transition absent from the declared table, or
  a direct ``.transition(...)`` call outside any spec'd component
  (e.g. a MAC recovery path reaching into a radio's ledger).
* **SM002** — a declared transition no code path encodes (dead table
  rows rot just like stale waivers).
* **SM003** — a state with energy accounting (present in the
  component's :class:`PowerStateTable`) that is unreachable from the
  initial state in the declared graph.
* **SM004** — spec/code structural mismatch: unknown class, state-set
  or initial-state disagreement, or a transition target the analysis
  cannot resolve to a state name.
* **SM005** — a class that books energy through a
  :class:`~repro.core.ledger.PowerStateLedger` but declares no
  transition spec at all.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from .config import SM_PACKAGES
from .dataflow import (literal_or_none, merge_envs,
                       module_string_constants, sm_assumptions, walk,
                       walk_skipping_lambdas)
from .engine import FileContext, Finding

Edge = Tuple[str, str]
StateSet = FrozenSet[str]


@dataclass(frozen=True)
class SpecInfo:
    """A ``TransitionSpec`` literal read out of a module's AST."""

    component: str
    module: str
    class_name: str
    initial: str
    states: Tuple[str, ...]
    transitions: Tuple[Edge, ...]
    busy_flags: Tuple[Tuple[str, Tuple[str, ...]], ...]
    ctx: FileContext
    lineno: int


def _extract_specs(contexts: Sequence[FileContext]) -> List[SpecInfo]:
    specs: List[SpecInfo] = []
    for ctx in contexts:
        for stmt in ctx.tree.body:
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)):
                continue
            func = stmt.value.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name != "TransitionSpec":
                continue
            fields: Dict[str, object] = {}
            for keyword in stmt.value.keywords:
                if keyword.arg is not None:
                    fields[keyword.arg] = literal_or_none(
                        keyword.value)
            try:
                specs.append(SpecInfo(
                    component=str(fields["component"]),
                    module=str(fields["module"]),
                    class_name=str(fields["class_name"]),
                    initial=str(fields["initial"]),
                    states=tuple(fields["states"]),  # type: ignore
                    transitions=tuple(
                        (str(a), str(b))
                        for a, b in fields["transitions"]),  # type: ignore
                    busy_flags=tuple(
                        (str(flag), tuple(states)) for flag, states
                        in fields.get("busy_flags", ())),  # type: ignore
                    ctx=ctx, lineno=stmt.lineno))
            except (KeyError, TypeError, ValueError):
                specs.append(SpecInfo(
                    component="?", module="?", class_name="?",
                    initial="?", states=(), transitions=(),
                    busy_flags=(), ctx=ctx, lineno=stmt.lineno))
    return specs


def _find_class(ctx: FileContext,
                name: str) -> Optional[ast.ClassDef]:
    for node in walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _ledger_info(cls: ast.ClassDef, constants: Dict[str, str]
                 ) -> Tuple[Optional[str], Optional[str], Set[str]]:
    """(ledger attribute name, initial state, table states) of a class."""
    attr: Optional[str] = None
    initial: Optional[str] = None
    table_states: Set[str] = set()
    for node in walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Attribute) \
                and isinstance(node.value, ast.Call):
            func = node.value.func
            callee = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if callee == "PowerStateLedger":
                attr = node.targets[0].attr
                for keyword in node.value.keywords:
                    if keyword.arg == "initial_state":
                        initial = _resolve_state(keyword.value,
                                                 constants, {})
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if callee == "PowerState" and node.args:
                state = _resolve_state(node.args[0], constants, {})
                if state is not None:
                    table_states.add(state)
    return attr, initial, table_states


def _resolve_state(node: ast.AST, constants: Dict[str, str],
                   env: Dict[str, StateSet]) -> Optional[str]:
    """A single state name, or None when not statically a state."""
    states = _resolve_states(node, constants, env)
    if states is not None and len(states) == 1:
        return next(iter(states))
    return None


def _resolve_states(node: ast.AST, constants: Dict[str, str],
                    env: Dict[str, StateSet]) -> Optional[StateSet]:
    """Every state name ``node`` may evaluate to, or None if unknown."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return frozenset((node.value,))
    if isinstance(node, ast.Name):
        if node.id in env:
            return env[node.id]
        if node.id in constants:
            return frozenset((constants[node.id],))
        return None
    if isinstance(node, ast.IfExp):
        first = _resolve_states(node.body, constants, env)
        second = _resolve_states(node.orelse, constants, env)
        if first is not None and second is not None:
            return first | second
        return None
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        combined: Set[str] = set()
        for element in node.elts:
            resolved = _resolve_states(element, constants, env)
            if resolved is None:
                return None
            combined |= resolved
        return frozenset(combined)
    return None


class _MethodWalker:
    """Forward possible-state walk over one method body."""

    def __init__(self, spec: SpecInfo, ctx: FileContext,
                 ledger_attr: str, constants: Dict[str, str],
                 properties: Dict[str, StateSet],
                 findings: List[Finding]) -> None:
        self.spec = spec
        self.ctx = ctx
        self.ledger_attr = ledger_attr
        self.constants = constants
        self.properties = properties
        self.findings = findings
        self.top: StateSet = frozenset(spec.states)
        self.edges: Dict[Edge, int] = {}

    # -- recognisers -------------------------------------------------

    def _is_ledger_state(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr == "state"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == self.ledger_attr
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "self")

    def _self_attr(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        return None

    def _attr_states(self, attr: str) -> Optional[StateSet]:
        if attr in self.properties:
            return self.properties[attr]
        for flag, states in self.spec.busy_flags:
            if flag == attr:
                return frozenset(states)
        return None

    def _transition_call(self, node: ast.Call) -> bool:
        func = node.func
        return (isinstance(func, ast.Attribute)
                and func.attr == "transition"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == self.ledger_attr
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self")

    # -- narrowing ---------------------------------------------------

    def narrow(self, test: ast.AST, cur: StateSet,
               env: Dict[str, StateSet]
               ) -> Tuple[StateSet, StateSet]:
        """(states where ``test`` may hold, states where it may not)."""
        if isinstance(test, ast.UnaryOp) \
                and isinstance(test.op, ast.Not):
            true_set, false_set = self.narrow(test.operand, cur, env)
            return false_set, true_set
        if isinstance(test, ast.BoolOp):
            if isinstance(test.op, ast.And):
                true_set = cur
                for value in test.values:
                    true_set, _ = self.narrow(value, true_set, env)
                return true_set, cur
            union: StateSet = frozenset()
            false_set = cur
            for value in test.values:
                value_true, value_false = self.narrow(value, cur, env)
                union |= value_true
                false_set &= value_false
            return union, false_set
        attr = self._self_attr(test)
        if attr is not None:
            implied = self._attr_states(attr)
            if implied is not None:
                return cur & implied, cur - implied
        if isinstance(test, ast.Compare) and len(test.ops) == 1:
            left, right = test.left, test.comparators[0]
            op = test.ops[0]
            if self._is_ledger_state(left):
                states = _resolve_states(right, self.constants, env)
                if states is not None:
                    return self._narrow_membership(op, cur, states)
            if self._is_ledger_state(right) \
                    and isinstance(op, (ast.Eq, ast.NotEq)):
                states = _resolve_states(left, self.constants, env)
                if states is not None:
                    return self._narrow_membership(op, cur, states)
        return cur, cur

    @staticmethod
    def _narrow_membership(op: ast.cmpop, cur: StateSet,
                           states: StateSet
                           ) -> Tuple[StateSet, StateSet]:
        """Narrowing for ``state <op> <states>``.

        ``==`` against a variable that may hold several values is only
        an *upper bound* on the true branch: its false branch cannot
        exclude anything (``state == target`` being false with
        ``target ∈ {sleep, deep_sleep}`` still allows ``state ==
        sleep``).  Membership tests (``in``) are exact both ways.
        """
        exact = len(states) == 1
        if isinstance(op, ast.Eq):
            return cur & states, (cur - states if exact else cur)
        if isinstance(op, ast.NotEq):
            return (cur - states if exact else cur), cur & states
        if isinstance(op, ast.In):
            return cur & states, cur - states
        if isinstance(op, ast.NotIn):
            return cur - states, cur & states
        return cur, cur


    # -- the walk ----------------------------------------------------

    def _emit(self, node: ast.Call, cur: StateSet,
              env: Dict[str, StateSet]) -> Optional[StateSet]:
        """Record edges for a transition call; returns the new state set."""
        target_node = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "state":
                target_node = keyword.value
        if target_node is None:
            return None
        targets = _resolve_states(target_node, self.constants, env)
        if targets is None:
            self.findings.append(self.ctx.finding_at(
                "SM004", node.lineno, node.col_offset,
                f"{self.spec.component}: cannot statically resolve "
                f"the target of this transition"))
            return None
        for target in targets:
            for src in cur:
                if src != target:
                    self.edges.setdefault((src, target), node.lineno)
        return targets

    def _scan_stmt_calls(self, stmt: ast.stmt, cur: StateSet,
                         env: Dict[str, StateSet]
                         ) -> Tuple[StateSet, bool]:
        """Emit edges for transition calls inside ``stmt``.

        Returns the possibly-updated state set and whether a
        transition was seen (an ``Expr`` statement whose call resolves
        to one target pins the state to that target).
        """
        new_cur = cur
        seen = False
        for node in walk_skipping_lambdas(stmt):
            if isinstance(node, ast.Call) \
                    and self._transition_call(node):
                seen = True
                targets = self._emit(node, new_cur, env)
                if targets is not None:
                    new_cur = targets
                else:
                    new_cur = self.top
        return new_cur, seen

    def exec_block(self, stmts: Sequence[ast.stmt],
                   state: Optional[Tuple[StateSet,
                                         Dict[str, StateSet]]]
                   ) -> Optional[Tuple[StateSet, Dict[str, StateSet]]]:
        for stmt in stmts:
            if state is None:
                return None
            state = self._exec_stmt(stmt, state)
        return state

    def _exec_stmt(self, stmt: ast.stmt,
                   state: Tuple[StateSet, Dict[str, StateSet]]
                   ) -> Optional[Tuple[StateSet, Dict[str, StateSet]]]:
        cur, env = state
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return state
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._scan_stmt_calls(stmt, cur, env)
            return None
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return None
        if isinstance(stmt, ast.Assign):
            cur, _ = self._scan_stmt_calls(stmt, cur, env)
            value = _resolve_states(stmt.value, self.constants, env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if value is not None:
                        env = dict(env)
                        env[target.id] = value
                    elif target.id in env:
                        env = dict(env)
                        del env[target.id]
            return cur, env
        if isinstance(stmt, ast.If):
            true_set, false_set = self.narrow(stmt.test, cur, env)
            true_state = self.exec_block(stmt.body,
                                         (true_set, dict(env)))
            false_state = self.exec_block(stmt.orelse,
                                          (false_set, dict(env)))
            alive = [s for s in (true_state, false_state)
                     if s is not None]
            if not alive:
                return None
            merged_cur: StateSet = frozenset()
            for branch_cur, _ in alive:
                merged_cur |= branch_cur
            merged_env = merge_envs([dict(e) for _, e in alive])
            return merged_cur, merged_env or {}
        if isinstance(stmt, (ast.While, ast.For)):
            entry_cur, entry_env = cur, dict(env)
            if isinstance(stmt, ast.For) \
                    and isinstance(stmt.target, ast.Name):
                entry_env.pop(stmt.target.id, None)
            seen = entry_cur
            for _ in range(4):
                result = self.exec_block(stmt.body,
                                         (seen, dict(entry_env)))
                if result is None:
                    break
                widened = seen | result[0]
                if widened == seen:
                    break
                seen = widened
            return seen, entry_env
        if isinstance(stmt, ast.Try):
            body_state = self.exec_block(stmt.body, (cur, dict(env)))
            reach = cur | (body_state[0] if body_state else
                           frozenset(target for _, target
                                     in self.edges))
            branches = [body_state]
            for handler in stmt.handlers:
                branches.append(self.exec_block(
                    handler.body, (reach, dict(env))))
            alive = [s for s in branches if s is not None]
            if not alive:
                return None
            merged: StateSet = frozenset()
            for branch_cur, _ in alive:
                merged |= branch_cur
            state2 = self.exec_block(stmt.finalbody, (merged, env))
            return state2
        if isinstance(stmt, ast.With):
            return self.exec_block(stmt.body, (cur, env))
        cur, _ = self._scan_stmt_calls(stmt, cur, env)
        return cur, env


def _class_properties(cls: ast.ClassDef, ledger_attr: str,
                      constants: Dict[str, str],
                      busy_flags: Dict[str, Tuple[str, ...]]
                      ) -> Dict[str, StateSet]:
    """Boolean properties equivalent to a state subset."""
    properties: Dict[str, StateSet] = {}
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        returns = [stmt for stmt in node.body
                   if isinstance(stmt, ast.Return)]
        if len(returns) != 1 or returns[0].value is None:
            continue
        value = returns[0].value
        if isinstance(value, ast.Compare) and len(value.ops) == 1 \
                and isinstance(value.ops[0], (ast.Eq, ast.In)) \
                and isinstance(value.left, ast.Attribute) \
                and value.left.attr == "state":
            states = _resolve_states(value.comparators[0], constants,
                                     {})
            if states is not None:
                properties[node.name] = states
        elif isinstance(value, ast.Attribute) \
                and isinstance(value.value, ast.Name) \
                and value.value.id == "self" \
                and value.attr in busy_flags:
            properties[node.name] = frozenset(busy_flags[value.attr])
    return properties


def _reachable(initial: str, edges: Sequence[Edge]) -> Set[str]:
    seen = {initial}
    frontier = [initial]
    while frontier:
        src = frontier.pop()
        for a, b in edges:
            if a == src and b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def _check_spec(spec: SpecInfo, contexts: Sequence[FileContext],
                findings: List[Finding],
                graphs: Dict[str, Dict[str, object]]) -> None:
    if spec.component == "?":
        findings.append(spec.ctx.finding_at(
            "SM004", spec.lineno, 0,
            "TransitionSpec is not a literal declaration (all fields "
            "must be static literals)"))
        return
    ctx = next((c for c in contexts
                if c.module_path == spec.module
                or c.module_path.endswith("/" + spec.module)
                or str(c.path).endswith(spec.module)), None)
    if ctx is None:
        return  # module not part of this run: nothing to verify
    cls = _find_class(ctx, spec.class_name)
    if cls is None:
        findings.append(spec.ctx.finding_at(
            "SM004", spec.lineno, 0,
            f"{spec.component}: class {spec.class_name!r} not found "
            f"in {spec.module}"))
        return
    constants = module_string_constants(ctx.tree)
    ledger_attr, initial, table_states = _ledger_info(cls, constants)
    if ledger_attr is None:
        findings.append(spec.ctx.finding_at(
            "SM004", spec.lineno, 0,
            f"{spec.component}: {spec.class_name} constructs no "
            f"PowerStateLedger"))
        return
    if table_states and table_states != set(spec.states):
        findings.append(spec.ctx.finding_at(
            "SM004", spec.lineno, 0,
            f"{spec.component}: declared states "
            f"{sorted(spec.states)} != encoded power-state table "
            f"{sorted(table_states)}"))
    if initial is not None and initial != spec.initial:
        findings.append(spec.ctx.finding_at(
            "SM004", spec.lineno, 0,
            f"{spec.component}: declared initial {spec.initial!r} != "
            f"encoded initial_state {initial!r}"))
    busy = {flag: states for flag, states in spec.busy_flags}
    properties = _class_properties(cls, ledger_attr, constants, busy)
    walker = _MethodWalker(spec, ctx, ledger_attr, constants,
                           properties, findings)
    assumptions = sm_assumptions(ctx.comments)
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        entry: StateSet = walker.top
        first_body = node.body[0].lineno if node.body else node.lineno
        for line in range(node.lineno, first_body + 1):
            assumed = assumptions.get(line)
            if assumed is not None:
                entry = frozenset(assumed) & walker.top
        walker.exec_block(node.body, (entry, {}))
    declared = set(spec.transitions)
    encoded = walker.edges
    for edge in sorted(set(encoded) - declared):
        findings.append(ctx.finding_at(
            "SM001", encoded[edge], 0,
            f"{spec.component}: encoded transition "
            f"{edge[0]!r} -> {edge[1]!r} is not declared in "
            f"{spec.class_name}'s TransitionSpec"))
    for edge in sorted(declared - set(encoded)):
        findings.append(spec.ctx.finding_at(
            "SM002", spec.lineno, 0,
            f"{spec.component}: declared transition "
            f"{edge[0]!r} -> {edge[1]!r} is never encoded in "
            f"{spec.module}"))
    reachable = _reachable(spec.initial, spec.transitions)
    for state in sorted(table_states - reachable):
        findings.append(spec.ctx.finding_at(
            "SM003", spec.lineno, 0,
            f"{spec.component}: state {state!r} has energy "
            f"accounting but no entry path from "
            f"{spec.initial!r} in the declared graph"))
    graphs[spec.component] = {
        "module": spec.module,
        "class": spec.class_name,
        "initial": spec.initial,
        "states": sorted(spec.states),
        "declared": sorted(list(edge) for edge in declared),
        "encoded": sorted(list(edge) for edge in encoded),
    }


def _scan_unspecced(contexts: Sequence[FileContext],
                    specs: Sequence[SpecInfo],
                    findings: List[Finding]) -> None:
    spec_classes = {(spec.module, spec.class_name) for spec in specs}
    spec_modules = {spec.module for spec in specs}
    for ctx in contexts:
        if ctx.module_path.split("/", 1)[0] not in SM_PACKAGES:
            continue
        covered = any(ctx.module_path == module
                      or ctx.module_path.endswith("/" + module)
                      or str(ctx.path).endswith(module)
                      for module in spec_modules)
        for node in walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                constants = module_string_constants(ctx.tree)
                attr, _, _ = _ledger_info(node, constants)
                if attr is not None and not any(
                        name == node.name
                        for module, name in spec_classes
                        if ctx.module_path == module
                        or ctx.module_path.endswith("/" + module)
                        or str(ctx.path).endswith(module)):
                    findings.append(ctx.finding_at(
                        "SM005", node.lineno, node.col_offset,
                        f"class {node.name} books energy through a "
                        f"PowerStateLedger but declares no "
                        f"TransitionSpec in repro/core/states.py"))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "transition" \
                    and not covered:
                findings.append(ctx.finding_at(
                    "SM001", node.lineno, node.col_offset,
                    "power-state transition driven from outside the "
                    "owning component (call the component's API — "
                    "power_up()/sleep()/… — not its ledger)"))


def analyze_statemachines(contexts: Sequence[FileContext]
                          ) -> Tuple[List[Finding],
                                     Dict[str, object]]:
    """Run the state-machine verification over every parsed file."""
    findings: List[Finding] = []
    graphs: Dict[str, Dict[str, object]] = {}
    specs = _extract_specs(contexts)
    for spec in specs:
        _check_spec(spec, contexts, findings, graphs)
    _scan_unspecced(contexts, specs, findings)
    return findings, {"state_machines": graphs}


CODES = ("SM001", "SM002", "SM003", "SM004", "SM005")

__all__ = ["CODES", "SpecInfo", "analyze_statemachines"]
