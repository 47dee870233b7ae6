"""The lint rules: named, individually testable AST checks.

Each rule is a pure function ``FileContext -> list[Finding]`` wrapped
in a :class:`Rule` record carrying its code, title and rationale (the
rationale is what ``docs/static_analysis.md`` and ``--list-rules``
print).  Rules never consult global state: everything they need —
source lines, AST, configuration — arrives in the context, which is
what makes them unit-testable on five-line fixture snippets.

The catalog:

* DET001 — global-RNG draws perturb every other stream's sequence and
  break seed-reproducibility; only named, seeded generators are legal.
* DET002 — wall-clock reads make results depend on host speed; only
  allowlisted profiling files may time anything.
* DET003 — set iteration order is salted per process; in packages
  whose iteration order can reach the event queue it must be sorted.
* FLT001 — accumulated energies/times are never exactly equal; an
  ``==`` on them silently becomes machine-dependent.
* EXC001 — an overbroad ``except`` can swallow a SimulationError and
  turn a crash into a silently-wrong energy figure.
* MUT001 — mutable defaults leak state between calls (and between
  scenarios sharing a config function).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .config import DET002_ALLOW, DET003_PACKAGES, FLT001_PATTERN
from .dataflow import walk
from .engine import FileContext, Finding


@dataclass(frozen=True)
class Rule:
    """One named lint rule (callable on a :class:`FileContext`)."""

    code: str
    title: str
    rationale: str
    check: Callable[[FileContext], List[Finding]]

    def __call__(self, context: FileContext) -> List[Finding]:
        return self.check(context)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Name/Attribute chains, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _module_aliases(tree: ast.AST, module: str) -> Set[str]:
    """Names the plain-module import of ``module`` is bound to."""
    aliases: Set[str] = set()
    for node in walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module:
                    aliases.add(item.asname
                                or item.name.split(".")[0])
    return aliases


def _import_from_bindings(tree: ast.AST, module: str) -> Dict[str, str]:
    """``{local_name: original_name}`` for ``from module import ...``."""
    bindings: Dict[str, str] = {}
    for node in walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for item in node.names:
                bindings[item.asname or item.name] = item.name
    return bindings


# ----------------------------------------------------------------------
# DET001 — no global/module-level RNG
# ----------------------------------------------------------------------
#: numpy.random attributes that *construct* (seedable) generators.
_NP_GENERATOR_CTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "MT19937",
    "Philox", "SFC64", "RandomState", "BitGenerator",
})


def _check_det001(context: FileContext) -> List[Finding]:
    tree = context.tree
    findings: List[Finding] = []
    random_aliases = _module_aliases(tree, "random")
    numpy_aliases = _module_aliases(tree, "numpy")
    # ``import numpy.random`` binds the *numpy* name too.
    numpy_aliases |= _module_aliases(tree, "numpy.random")
    np_random_aliases = {
        local for local, original
        in _import_from_bindings(tree, "numpy").items()
        if original == "random"}

    for node in walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for item in node.names:
                    if item.name != "Random":
                        findings.append(context.finding(
                            "DET001", node,
                            f"'from random import {item.name}' binds the "
                            "process-global RNG; use a seeded "
                            "random.Random instance (e.g. "
                            "Simulator.rng.stream(purpose))"))
            elif node.module == "numpy.random":
                for item in node.names:
                    if item.name not in _NP_GENERATOR_CTORS:
                        findings.append(context.finding(
                            "DET001", node,
                            f"'from numpy.random import {item.name}' "
                            "draws from the global NumPy RNG; use "
                            "numpy.random.default_rng(seed)"))
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if (len(parts) == 2 and parts[0] in random_aliases
                    and parts[1] != "Random"):
                findings.append(context.finding(
                    "DET001", node,
                    f"{name}() draws from / mutates the process-global "
                    "RNG; use a seeded random.Random stream"))
            elif ((len(parts) == 3 and parts[0] in numpy_aliases
                   and parts[1] == "random"
                   and parts[2] not in _NP_GENERATOR_CTORS)
                  or (len(parts) == 2
                      and parts[0] in np_random_aliases
                      and parts[1] not in _NP_GENERATOR_CTORS)):
                findings.append(context.finding(
                    "DET001", node,
                    f"{name}() draws from the global NumPy RNG; use "
                    "numpy.random.default_rng(seed)"))
    return findings


# ----------------------------------------------------------------------
# DET002 — no wall-clock reads outside the allowlist
# ----------------------------------------------------------------------
_TIME_READS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
    "clock_gettime_ns",
})
_DATETIME_READS = frozenset({"now", "utcnow", "today"})


def _check_det002(context: FileContext) -> List[Finding]:
    if any(context.module_path.endswith(entry)
           for entry in DET002_ALLOW):
        return []
    tree = context.tree
    findings: List[Finding] = []
    time_aliases = _module_aliases(tree, "time")
    datetime_mod_aliases = _module_aliases(tree, "datetime")
    time_bindings = {
        local: original for local, original
        in _import_from_bindings(tree, "time").items()
        if original in _TIME_READS}
    datetime_classes = {
        local for local, original
        in _import_from_bindings(tree, "datetime").items()
        if original in ("datetime", "date")}

    def flag(node: ast.AST, what: str) -> None:
        findings.append(context.finding(
            "DET002", node,
            f"{what} reads the wall clock; simulation quantities must "
            "derive from sim ticks (profiling files belong in "
            "DET002_ALLOW)"))

    for node in walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for item in node.names:
                if item.name in _TIME_READS:
                    flag(node, f"'from time import {item.name}'")
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 1 and parts[0] in time_bindings:
                flag(node, f"{name}()")
            elif (len(parts) == 2 and parts[0] in time_aliases
                    and parts[1] in _TIME_READS):
                flag(node, f"{name}()")
            elif (len(parts) == 2 and parts[0] in datetime_classes
                    and parts[1] in _DATETIME_READS):
                flag(node, f"{name}()")
            elif (len(parts) == 3
                    and parts[0] in datetime_mod_aliases
                    and parts[1] in ("datetime", "date")
                    and parts[2] in _DATETIME_READS):
                flag(node, f"{name}()")
    return findings


# ----------------------------------------------------------------------
# DET003 — no set iteration in order-sensitive packages
# ----------------------------------------------------------------------
_SET_TYPE_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
})
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference",
})
#: Builtins whose result order follows the (nondeterministic) argument
#: order — materialising a set through them is still a violation.
_ORDER_KEEPING_BUILTINS = frozenset({"list", "tuple", "enumerate"})


def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    target: ast.AST = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = dotted_name(target)
    return name is not None and name.split(".")[-1] in _SET_TYPE_NAMES


def _collect_set_names(tree: ast.AST) -> Set[str]:
    """Identifiers bound (anywhere in the file) to an evident set."""
    names: Set[str] = set()
    for node in walk(tree):
        if isinstance(node, ast.AnnAssign):
            if _annotation_is_set(node.annotation):
                name = dotted_name(node.target)
                if name is not None:
                    names.add(name.split(".")[-1])
        elif isinstance(node, ast.Assign):
            if _is_set_expr(node.value, set()):
                for target in node.targets:
                    name = dotted_name(target)
                    if name is not None:
                        names.add(name.split(".")[-1])
        elif isinstance(node, ast.arg):
            if _annotation_is_set(node.annotation):
                names.add(node.arg)
    return names


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Conservatively: does this expression evidently produce a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and _is_set_expr(node.func.value, set_names)):
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(node.left, set_names)
                or _is_set_expr(node.right, set_names))
    name = dotted_name(node)
    return (name is not None
            and name.split(".")[-1] in set_names)


def _check_det003(context: FileContext) -> List[Finding]:
    if context.package not in DET003_PACKAGES:
        return []
    tree = context.tree
    set_names = _collect_set_names(tree)
    findings: List[Finding] = []

    def flag(node: ast.AST) -> None:
        findings.append(context.finding(
            "DET003", node,
            "iterating a set here is order-nondeterministic and can "
            "reach the event queue; iterate sorted(...) or keep an "
            "ordered container"))

    iterables: List[ast.AST] = []
    for node in walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterables.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if (name in _ORDER_KEEPING_BUILTINS and len(node.args) == 1
                    and _is_set_expr(node.args[0], set_names)):
                flag(node)
    for iterable in iterables:
        if _is_set_expr(iterable, set_names):
            flag(iterable)
    return findings


# ----------------------------------------------------------------------
# FLT001 — no float equality on energy/time values
# ----------------------------------------------------------------------
def _operand_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_fractional_float(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float)
            and node.value != int(node.value))


def _check_flt001(context: FileContext) -> List[Finding]:
    pattern = re.compile(FLT001_PATTERN, re.I)
    findings: List[Finding] = []
    for node in walk(context.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (operands[index], operands[index + 1])
            fractional = any(_is_fractional_float(item) for item in pair)
            named = any(
                identifier is not None and pattern.search(identifier)
                for identifier in map(_operand_identifier, pair))
            if fractional or named:
                findings.append(context.finding(
                    "FLT001", node,
                    "float ==/!= on an energy/time-like value is "
                    "machine-dependent after accumulation; compare "
                    "with math.isclose/tolerance or restructure"))
    return findings


# ----------------------------------------------------------------------
# EXC001 — no bare/overbroad except without a reasoned waiver
# ----------------------------------------------------------------------
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _broad_exception_name(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return "bare except"
    name = dotted_name(node)
    if name in _BROAD_EXCEPTIONS:
        return f"except {name}"
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            element_name = dotted_name(element)
            if element_name in _BROAD_EXCEPTIONS:
                return f"except (... {element_name} ...)"
    return None


def _check_exc001(context: FileContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in walk(context.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _broad_exception_name(node.type)
        if broad is not None:
            findings.append(context.finding(
                "EXC001", node,
                f"{broad} can swallow SimulationError and turn a crash "
                "into a wrong energy figure; narrow it, or waive with "
                "# lint: allow(EXC001): <reason>"))
    return findings


# ----------------------------------------------------------------------
# MUT001 — no mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque",
    "OrderedDict", "Counter",
})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return (name is not None
                and name.split(".")[-1] in _MUTABLE_CTORS)
    return False


def _check_mut001(context: FileContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults
                        if d is not None)
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                findings.append(context.finding(
                    "MUT001", default,
                    f"mutable default argument in {label}() is shared "
                    "across calls; default to None (or a tuple) and "
                    "build inside"))
    return findings


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
RULES: Dict[str, Rule] = {
    rule.code: rule for rule in (
        Rule("DET001", "no global/module-level RNG",
             "Draws from the process-global random module (or bare "
             "numpy.random) depend on call order across the whole "
             "process, so adding one node perturbs every other "
             "stream.  Only named, seeded generators — "
             "random.Random(seed), numpy.random.default_rng(seed), "
             "Simulator.rng.stream(purpose) — are legal.",
             _check_det001),
        Rule("DET002", "no wall-clock reads outside the allowlist",
             "time.time/perf_counter/datetime.now make behaviour "
             "depend on host speed.  Profiling instrumentation that "
             "never feeds a simulated quantity is allowlisted per "
             "file in repro.lint.config.DET002_ALLOW.",
             _check_det002),
        Rule("DET003", "no set iteration in order-sensitive packages",
             "Set iteration order varies across processes (hash "
             "randomisation); in sim/, mac/, net/ and faults/ that "
             "order can reach the event queue and break bit-exact "
             "replay.  Iterate sorted(...) instead.",
             _check_det003),
        Rule("FLT001", "no float equality on energy/time values",
             "Accumulated float energies and durations are never "
             "exactly equal across code paths or machines; ==/!= on "
             "them is a latent nondeterminism.  Compare with a "
             "tolerance.",
             _check_flt001),
        Rule("EXC001", "no bare/overbroad except without a waiver",
             "except Exception can swallow a SimulationError raised "
             "mid-dispatch and turn a crash into a silently wrong "
             "energy figure.  Narrow the clause, or document why the "
             "broad catch is safe with a reasoned waiver.",
             _check_exc001),
        Rule("MUT001", "no mutable default arguments",
             "A mutable default is created once and shared by every "
             "call — state leaks between scenarios and breaks "
             "run-to-run equality.",
             _check_mut001),
    )
}


def _no_check(context: FileContext) -> List[Finding]:
    """Placeholder for analysis rules (they run as tree analyses)."""
    return []


#: Codes produced by the flow-sensitive tree analyses and the
#: suppression machinery rather than per-file checks.  They live in
#: the catalog so ``--list-rules``, ``--select`` and the docs cover
#: them, but the engine never calls their (empty) check.
ANALYSIS_RULES: Dict[str, Rule] = {
    rule.code: rule for rule in (
        Rule("UNI001", "no unit-mixing arithmetic",
             "The energy model is E = I*Vdd*t: adding seconds to "
             "joules, or J to mJ, books a number with the wrong "
             "physical meaning.  Units are inferred from name "
             "suffixes (_s, _a, _v, _mj, ...), conversion helpers "
             "and '# unit:' annotations, then propagated through "
             "assignments and arithmetic.",
             _no_check),
        Rule("UNI002", "return unit must match the declared unit",
             "A function named energy_j (or annotated '# unit: j') "
             "returning mJ poisons every caller that trusts the "
             "name.  The declared unit is part of the signature.",
             _no_check),
        Rule("UNI003", "no current*current / voltage*voltage products",
             "Power is I*Vdd.  Multiplying two currents (or two "
             "voltages) is always a misspelling of that formula in "
             "this codebase.",
             _no_check),
        Rule("UNI004", "calibration constants carry their unit",
             "Public float constants in calibration modules seed the "
             "whole energy model; one without a unit suffix or a "
             "'# unit:' annotation is unauditable against the "
             "paper's tables.",
             _no_check),
        Rule("SM001", "no undeclared power-state transitions",
             "Every ledger.transition(...) the code can execute must "
             "be a declared edge in the component's TransitionSpec "
             "(repro/core/states.py) — and only the owning component "
             "may drive its ledger.  The nRF2401 cannot go "
             "POWER_DOWN -> TX; a model that can books TX current "
             "from a state the hardware can't be in.",
             _no_check),
        Rule("SM002", "no declared-but-never-encoded transitions",
             "A table row no code path implements is documentation "
             "rot: the spec stops being the single source of truth "
             "for what the model does.",
             _no_check),
        Rule("SM003", "every accounted state is reachable",
             "A power state with a current draw in the "
             "PowerStateTable but no entry path in the declared "
             "graph can never be booked — its calibration data is "
             "dead and probably misplaced.",
             _no_check),
        Rule("SM004", "spec and code structurally agree",
             "The spec's state set and initial state must match the "
             "encoded PowerStateTable and ledger initial_state, and "
             "every transition target must be statically resolvable "
             "— otherwise the verification is vacuous.",
             _no_check),
        Rule("SM005", "every ledger has a transition spec",
             "A component that books energy through a "
             "PowerStateLedger without declaring its TransitionSpec "
             "is exempt from state-machine verification — exactly "
             "where transition bugs then hide.",
             _no_check),
        Rule("RNG001", "no unseeded RNG construction",
             "random.Random() / default_rng() with no argument (and "
             "SystemRandom anywhere) seed from OS entropy: the run "
             "can never be replayed.",
             _no_check),
        Rule("RNG002", "every RNG seed derives from a seed",
             "A generator seeded from a literal, a counter or an id "
             "replays within a run but collides across components "
             "and bypasses the per-purpose stream split.  Seeds must "
             "flow from a seed parameter/attribute or a "
             "Simulator-owned stream (rng.stream(purpose)).",
             _no_check),
        Rule("OBS001", "hook-guarded statements are sim-pure",
             "Code that only runs when spans/metrics/trace "
             "observability is attached (inside an 'if self.spans is "
             "not None:' guard) must not schedule events, draw RNG, "
             "book energy, advance time or mutate simulation state — "
             "otherwise runs with observability on diverge from runs "
             "with it off, and every recorded energy figure is an "
             "artifact of being watched.",
             _no_check),
        Rule("OBS002", "hook-guarded calls reach only sim-pure code",
             "The interprocedural form of OBS001: a call inside a "
             "hook guard must not *transitively* reach a function "
             "with a forbidden effect.  The effect sets come from a "
             "fixed-point analysis over the whole-tree call graph; "
             "the finding names the offending call chain.",
             _no_check),
        Rule("OBS003", "pull-based metrics hooks only read",
             "observe_metrics(registry, ...) implementations are "
             "polled by the metrics layer; one that mutates "
             "simulation state turns every scrape into a "
             "perturbation.  They may only read state and write the "
             "registry.",
             _no_check),
        Rule("FPC001", "no reads of unfingerprinted config attributes",
             "config_fingerprint encodes exactly the dataclass "
             "fields of the scenario config closure.  Simulation "
             "code reading an attribute that is not a field (nor a "
             "property/method derived from fields) depends on data "
             "the fingerprint cannot see: two different configs "
             "fingerprint identically.",
             _no_check),
        Rule("FPC002", "no unfingerprinted config classes in sim code",
             "A config-shaped dataclass read by simulation code must "
             "either be reachable from the fingerprint closure or be "
             "constructed inside salted simulation code (derived "
             "from fingerprinted fields).  Anything else smuggles "
             "configuration past config_fingerprint.",
             _no_check),
        Rule("LIF001", "acquired resources are released on exit",
             "A resource acquired on every path through a declared "
             "boundary's acquire hook (radio power_up in on_start, a "
             "periodic handle stored in on_start, a span phase "
             "opened) must be released on every path out of its "
             "release hook.  A leak never crashes — it silently "
             "corrupts the energy integral: a radio left in standby "
             "books 0.9 mA forever.  The finding carries the witness "
             "exit path.",
             _no_check),
        Rule("LIF002", "no release without a matching acquire",
             "Releasing a resource that is already released on every "
             "path to the call (a second power_down) is an error for "
             "non-idempotent releases: the nRF2401 model raises "
             "RadioError at runtime; this proves it can't happen "
             "statically.",
             _no_check),
        Rule("LIF003", "no use-after-release",
             "send/start_rx/cca on a radio that every path has "
             "already powered down is the use-after-release the "
             "runtime RadioError guards catch dynamically.  Proving "
             "it statically means the guard can never fire in "
             "committed code.",
             _no_check),
        Rule("LIF004", "every resource has an owner",
             "A discarded periodic handle can never be cancelled; an "
             "unconditionally self-rescheduling one-shot with a "
             "discarded handle is a periodic in disguise; a "
             "constructed sink stored on self that no method ever "
             "closes is never flushed.  Ownerless resources outlive "
             "every stop path.",
             _no_check),
        Rule("LIF005", "acquire and release guards stay correlated",
             "A conditional acquire whose release is guarded by a "
             "*different* condition leaks exactly when the two "
             "conditions disagree — the hardest leak to hit in "
             "testing because both guards usually co-vary.",
             _no_check),
        Rule("SUP002", "no stale waivers",
             "A '# lint: allow(CODE)' comment on a line where CODE "
             "no longer fires documents a constraint that no longer "
             "exists; left in place it will silently swallow the "
             "next, unrelated finding on that line.",
             _no_check),
    )
}


def all_rule_codes() -> Tuple[str, ...]:
    """Every registered rule code (per-file and analysis), sorted."""
    return tuple(sorted(set(RULES) | set(ANALYSIS_RULES)))


def iter_rules() -> Iterable[Rule]:
    """All rules in code order (for docs and --list-rules)."""
    catalog = {**RULES, **ANALYSIS_RULES}
    return tuple(catalog[code] for code in all_rule_codes())


__all__ = ["ANALYSIS_RULES", "RULES", "Rule", "all_rule_codes",
           "dotted_name", "iter_rules"]
