"""Dimensional analysis of the energy model (rules UNI001–UNI004).

The paper's estimator is ``E = I · Vdd · t``: every number the
simulator books is an ampere, a volt, a second, a tick, a joule or a
product of those.  The codebase already encodes units in names
(``supply_v``, ``radio_tx_a``, ``airtime_s``, ``energy_mj``) and in a
handful of conversion helpers (``seconds(...)``, ``to_seconds(...)``).
This pass takes those conventions seriously: it seeds units from
suffixes, calibration fields and known conversion calls, propagates
them forward through assignments, arithmetic and intra-module calls,
and reports only when *both* sides of an operation have confidently
known, incompatible units.

Representation
--------------
A :class:`Unit` is a mapping over six base dimensions — ``s`` (time),
``a`` (current), ``v`` (potential), ``tick`` (kernel integer time),
``cyc`` (MCU cycles), ``bit`` — plus a *decade scale* exponent ``e``
such that ``value = SI_value × 10**e`` (so mJ carries ``e=+3``, µs
``e=+6``).  Joules are the derived dimension ``s·a·v``, which is
exactly why ``tx_event_s(n) * radio_tx_a * supply_v`` type-checks as
energy with no annotation at all.  Multiplying by a power-of-ten
literal shifts the scale; multiplying by any other bare number makes
the scale unknown (dims survive, so J + s still gets caught).  A scale
of ``None`` means "dimension known, prefix unknown" and never fires a
scale-mix finding.

Rules
-----
* **UNI001** — adding/subtracting/comparing values with different
  dimensions (seconds + joules) or different known decade scales
  (J + mJ).  Also reports an unparseable ``# unit:`` annotation.
* **UNI002** — a ``return`` whose inferred unit contradicts the unit
  the function declares through its name suffix or ``# unit:`` header
  annotation (returning mJ from ``energy_j``).
* **UNI003** — multiplying two currents or two voltages: on this
  codebase that is always a misspelling of ``I · V``.
* **UNI004** — a public module-level ``float`` constant in a
  calibration module (``UNITS_CONST_MODULES``) whose
  name carries no unit suffix and no ``# unit:`` annotation.

Ambiguity is resolved inline: ``MCU_CLOCK_HZ = 8_000_000  # unit:
cyc/s`` distinguishes "cycles per second" from plain 1/s, which is
what makes ``us * MCU_CLOCK_HZ / 1e6`` come out in cycles.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import UNITS_CONST_MODULES
from .dataflow import (TERMINATED, function_header_lines, merge_envs,
                       unit_annotations, walk)
from .engine import FileContext, Finding

# ---------------------------------------------------------------------------
# The unit algebra


@dataclass(frozen=True)
class Unit:
    """A physical dimension with an optional decade-scale exponent.

    ``dims`` is a sorted tuple of ``(base_dimension, exponent)`` pairs
    with zero exponents dropped; ``scale`` is the power of ten relating
    the value to its coherent-SI counterpart (``None`` = unknown).
    """

    dims: Tuple[Tuple[str, int], ...]
    scale: Optional[int]

    def with_scale(self, scale: Optional[int]) -> "Unit":
        return Unit(self.dims, scale)


def make_unit(dims: Dict[str, int],
              scale: Optional[int] = 0) -> Unit:
    """Normalise a dimension mapping into a :class:`Unit`."""
    return Unit(tuple(sorted((base, exp) for base, exp in dims.items()
                             if exp != 0)), scale)


DIMENSIONLESS = make_unit({})
_SECOND = {"s": 1}
_AMPERE = {"a": 1}
_VOLT = {"v": 1}
_WATT = {"a": 1, "v": 1}
_JOULE = {"s": 1, "a": 1, "v": 1}
_COULOMB = {"s": 1, "a": 1}
_HERTZ = {"s": -1}
_TICK = {"tick": 1}
_CYCLE = {"cyc": 1}
_BIT = {"bit": 1}

#: Name → unit, used both for identifier-suffix seeding ("the token
#: after the last underscore") and as the vocabulary of ``# unit:``
#: annotations.  Scale ``None`` marks non-decade units (bytes, mAh)
#: whose prefix arithmetic we refuse to guess.
UNIT_NAMES: Dict[str, Unit] = {
    "s": make_unit(_SECOND, 0),
    "seconds": make_unit(_SECOND, 0),
    "sec": make_unit(_SECOND, 0),
    "ms": make_unit(_SECOND, 3),
    "us": make_unit(_SECOND, 6),
    "ns": make_unit(_SECOND, 9),
    "j": make_unit(_JOULE, 0),
    "joules": make_unit(_JOULE, 0),
    "mj": make_unit(_JOULE, 3),
    "uj": make_unit(_JOULE, 6),
    "nj": make_unit(_JOULE, 9),
    "a": make_unit(_AMPERE, 0),
    "amps": make_unit(_AMPERE, 0),
    "ma": make_unit(_AMPERE, 3),
    "ua": make_unit(_AMPERE, 6),
    "v": make_unit(_VOLT, 0),
    "volts": make_unit(_VOLT, 0),
    "mv": make_unit(_VOLT, 3),
    "w": make_unit(_WATT, 0),
    "watts": make_unit(_WATT, 0),
    "mw": make_unit(_WATT, 3),
    "uw": make_unit(_WATT, 6),
    "c": make_unit(_COULOMB, 0),
    "coulombs": make_unit(_COULOMB, 0),
    "mah": make_unit(_COULOMB, None),
    "hz": make_unit(_HERTZ, 0),
    "khz": make_unit(_HERTZ, -3),
    "mhz": make_unit(_HERTZ, -6),
    "bps": make_unit({"bit": 1, "s": -1}, 0),
    "tick": make_unit(_TICK, 0),
    "ticks": make_unit(_TICK, 0),
    # "cyc" is annotation-only: "_cycles" names in this tree count TDMA
    # cycles (dimensionless), not core clock cycles, so seeding them
    # would mis-type the MAC layer.
    "cyc": make_unit(_CYCLE, 0),
    "bit": make_unit(_BIT, 0),
    "bits": make_unit(_BIT, 0),
    "byte": make_unit(_BIT, None),
    "bytes": make_unit(_BIT, None),
    "ppm": make_unit({}, 6),
    "pct": make_unit({}, 2),
    "ratio": make_unit({}, 0),
}

#: Bare identifiers (no underscore) that still carry a unit.  Suffix
#: seeding otherwise requires at least two name tokens, so a loop
#: variable called ``energy`` stays unknown but ``ticks`` does not.
EXACT_NAMES: Dict[str, Unit] = {
    name: UNIT_NAMES[name]
    for name in ("ticks", "tick", "bits", "bytes", "us",
                 "ms", "ns", "joules", "mah")
}

#: Conversion helpers whose return unit is part of their contract
#: (``repro.sim.simtime``); keyed by the call's last dotted component.
KNOWN_CALLS: Dict[str, Unit] = {
    "seconds": make_unit(_TICK, 0),
    "milliseconds": make_unit(_TICK, 0),
    "microseconds": make_unit(_TICK, 0),
    "nanoseconds": make_unit(_TICK, 0),
    "bits_duration": make_unit(_TICK, 0),
    "bytes_duration": make_unit(_TICK, 0),
    "to_seconds": make_unit(_SECOND, 0),
    "to_milliseconds": make_unit(_SECOND, 3),
    "to_microseconds": make_unit(_SECOND, 6),
}

#: Builtins that return (one of) their argument(s) unchanged — the
#: unit flows through, and for min/max/sum the arguments must agree.
_UNIT_PRESERVING = ("abs", "round", "float", "int", "min", "max",
                    "sum")

_NAMED_FORMS = [
    (make_unit(_JOULE, 0), "J"), (make_unit(_JOULE, 3), "mJ"),
    (make_unit(_JOULE, 6), "uJ"), (make_unit(_SECOND, 0), "s"),
    (make_unit(_SECOND, 3), "ms"), (make_unit(_SECOND, 6), "us"),
    (make_unit(_SECOND, 9), "ns"), (make_unit(_AMPERE, 0), "A"),
    (make_unit(_AMPERE, 3), "mA"), (make_unit(_VOLT, 0), "V"),
    (make_unit(_WATT, 0), "W"), (make_unit(_WATT, 3), "mW"),
    (make_unit(_COULOMB, 0), "C"), (make_unit(_HERTZ, 0), "Hz"),
    (make_unit(_TICK, 0), "tick"), (make_unit(_CYCLE, 0), "cyc"),
    (make_unit(_BIT, 0), "bit"), (DIMENSIONLESS, "1"),
]


def format_unit(unit: Unit) -> str:
    """Human form of a unit: a named unit when one matches."""
    for named, label in _NAMED_FORMS:
        if named == unit:
            return label
    if not unit.dims:
        body = "1"
    else:
        body = "*".join(base if exp == 1 else f"{base}^{exp}"
                        for base, exp in unit.dims)
    if unit.scale not in (0, None):
        body += f" x10^{unit.scale}"
    return body


class UnitParseError(ValueError):
    """An unparseable ``# unit:`` annotation."""


_UNIT_TOKEN_RE = re.compile(r"\s*([a-zA-Z0-9_]+|\^|-?\d+|[*/])")


def parse_unit(text: str) -> Unit:
    """Parse an annotation expression: ``name(^int)? (('*'|'/') ...)*``.

    ``cyc/s``, ``j``, ``tick/s``, ``1`` and ``bit*s^-1`` are all valid.
    """
    dims: Dict[str, int] = {}
    scale: Optional[int] = 0
    sign = 1
    pos = 0
    expect_name = True
    while pos < len(text):
        match = _UNIT_TOKEN_RE.match(text, pos)
        if match is None:
            raise UnitParseError(f"bad unit expression {text!r}")
        token = match.group(1)
        pos = match.end()
        if token in ("*", "/"):
            if expect_name:
                raise UnitParseError(f"bad unit expression {text!r}")
            sign = -1 if token == "/" else 1
            expect_name = True
            continue
        if not expect_name:
            raise UnitParseError(f"bad unit expression {text!r}")
        exponent = 1
        ahead = _UNIT_TOKEN_RE.match(text, pos)
        if ahead is not None and ahead.group(1) == "^":
            pos = ahead.end()
            power = _UNIT_TOKEN_RE.match(text, pos)
            if power is None or not re.fullmatch(r"-?\d+",
                                                 power.group(1)):
                raise UnitParseError(f"bad exponent in {text!r}")
            exponent = int(power.group(1))
            pos = power.end()
        if token == "1":
            expect_name = False
            continue
        named = UNIT_NAMES.get(token.lower())
        if named is None:
            raise UnitParseError(f"unknown unit {token!r} in {text!r}")
        for base, exp in named.dims:
            dims[base] = dims.get(base, 0) + sign * exponent * exp
        if named.scale is None or scale is None:
            scale = None
        else:
            scale += sign * exponent * named.scale
        expect_name = False
    if expect_name:
        raise UnitParseError(f"bad unit expression {text!r}")
    return make_unit(dims, scale)


def _combine_scales(a: Optional[int], b: Optional[int],
                    sign: int) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + sign * b


def mul_units(a: Unit, b: Unit) -> Unit:
    """The unit of ``a * b``: dims add, decade scales add."""
    dims = dict(a.dims)
    for base, exp in b.dims:
        dims[base] = dims.get(base, 0) + exp
    return make_unit(dims, _combine_scales(a.scale, b.scale, 1))


def div_units(a: Unit, b: Unit) -> Unit:
    """The unit of ``a / b``: dims subtract, decade scales subtract."""
    dims = dict(a.dims)
    for base, exp in b.dims:
        dims[base] = dims.get(base, 0) - exp
    return make_unit(dims, _combine_scales(a.scale, b.scale, -1))


def pow_unit(unit: Unit, n: int) -> Unit:
    """The unit of ``value ** n`` for an integer exponent."""
    dims = {base: exp * n for base, exp in unit.dims}
    scale = None if unit.scale is None else unit.scale * n
    return make_unit(dims, scale)


def unit_from_identifier(name: str) -> Optional[Unit]:
    """Seed a unit from a name's trailing ``_<suffix>`` token."""
    lowered = name.lower().lstrip("_")
    exact = EXACT_NAMES.get(lowered)
    if exact is not None:
        return exact
    tokens = lowered.split("_")
    if len(tokens) < 2:
        return None
    return UNIT_NAMES.get(tokens[-1])


def _decade(value: object) -> Optional[int]:
    """The decade exponent of a power-of-ten number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if value == 0:
        return None
    magnitude = math.log10(abs(value))
    rounded = round(magnitude)
    if math.isclose(magnitude, rounded, abs_tol=1e-9):
        return int(rounded)
    return None


def _is_number(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and not isinstance(node.value, bool)
            and isinstance(node.value, (int, float)))


def _numeric_value(node: ast.AST) -> Optional[float]:
    if _is_number(node):
        return node.value  # type: ignore[union-attr,return-value]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and _is_number(node.operand):
        return -node.operand.value  # type: ignore[union-attr]
    return None


# ---------------------------------------------------------------------------
# The analysis


def _last_component(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _TreeIndex:
    """Cross-file unit knowledge: annotations and function returns.

    Names are matched case-insensitively by their last component; a
    name annotated (or suffixed) inconsistently in two places is
    dropped back to unknown rather than guessed.
    """

    def __init__(self) -> None:
        self.names: Dict[str, Optional[Unit]] = {}
        self.functions: Dict[str, Optional[Unit]] = {}
        self.annotated_lines: Dict[Tuple[str, int], Unit] = {}

    def _learn(self, table: Dict[str, Optional[Unit]], name: str,
               unit: Unit) -> None:
        key = name.lower()
        if key not in table:
            table[key] = unit
        elif table[key] != unit:
            table[key] = None

    def name_unit(self, name: str) -> Optional[Unit]:
        learned = self.names.get(name.lower())
        if learned is not None:
            return learned
        return unit_from_identifier(name)

    def function_unit(self, name: str) -> Optional[Unit]:
        key = name.lower()
        if key in self.functions:
            return self.functions[key]
        return unit_from_identifier(name)


def _index_file(ctx: FileContext, index: _TreeIndex,
                findings: List[Finding]) -> None:
    annotations = unit_annotations(ctx.comments)
    if not annotations:
        annotations = {}
    parsed: Dict[int, Unit] = {}
    for line, text in annotations.items():
        try:
            parsed[line] = parse_unit(text)
        except UnitParseError as exc:
            findings.append(ctx.finding_at(
                "UNI001", line, 0,
                f"invalid '# unit:' annotation: {exc}"))
    if not parsed:
        return
    consumed: set = set()
    for node in walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for line in function_header_lines(node):
                unit = parsed.get(line)
                if unit is not None:
                    index._learn(index.functions, node.name, unit)
                    consumed.add(line)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            lines = range(node.lineno, node.end_lineno + 1
                          if node.end_lineno else node.lineno + 1)
            unit = next((parsed[ln] for ln in lines if ln in parsed),
                        None)
            if unit is None:
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                name = _last_component(target)
                if name is not None:
                    index._learn(index.names, name, unit)
            for ln in lines:
                if ln in parsed:
                    index.annotated_lines[(str(ctx.path), ln)] = \
                        parsed[ln]
                    consumed.add(ln)


class _UnitChecker:
    """Forward unit propagation through one function (or module) body."""

    def __init__(self, ctx: FileContext, index: _TreeIndex,
                 findings: List[Finding]) -> None:
        self.ctx = ctx
        self.index = index
        self.findings = findings

    # -- reporting ---------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(self.ctx.finding_at(
            code, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), message))

    # -- expression evaluation --------------------------------------

    def eval(self, node: ast.AST,
             env: Dict[str, Optional[Unit]]) -> Optional[Unit]:
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self.index.name_unit(node.id)
        if isinstance(node, ast.Attribute):
            self.eval(node.value, env)
            return self.index.name_unit(node.attr)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand, env)
            if isinstance(node.op, (ast.UAdd, ast.USub)):
                return inner
            return None
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, env)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value, env)
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            first = self.eval(node.body, env)
            second = self.eval(node.orelse, env)
            return first if first == second else None
        if isinstance(node, ast.Subscript):
            self.eval(node.value, env)
            if isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                return unit_from_identifier(node.slice.value)
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self.eval(element, env)
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self.eval(value, env)
            return None
        if isinstance(node, (ast.GeneratorExp, ast.ListComp,
                             ast.SetComp, ast.DictComp)):
            return None
        return None

    def _check_add(self, node: ast.AST, left: Optional[Unit],
                   right: Optional[Unit], verb: str
                   ) -> Optional[Unit]:
        if left is None or right is None:
            return left if right is None else right
        if left.dims != right.dims:
            self._report(node, "UNI001",
                         f"unit mismatch: cannot {verb} "
                         f"{format_unit(left)} and "
                         f"{format_unit(right)}")
            return None
        if left.scale is not None and right.scale is not None \
                and left.scale != right.scale:
            self._report(node, "UNI001",
                         f"scale mismatch: cannot {verb} "
                         f"{format_unit(left)} and "
                         f"{format_unit(right)} (same dimension, "
                         f"different prefix)")
            return None
        scale = left.scale if left.scale is not None else right.scale
        return left.with_scale(scale)

    def _eval_binop(self, node: ast.BinOp,
                    env: Dict[str, Optional[Unit]]) -> Optional[Unit]:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if _is_number(node.left) or _is_number(node.right):
                return left if right is None else right
            verb = "add" if isinstance(node.op, ast.Add) \
                else "subtract"
            return self._check_add(node, left, right, verb)
        if isinstance(node.op, ast.Mult):
            return self._eval_mult(node, left, right, env)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return self._eval_div(node, left, right)
        if isinstance(node.op, ast.Mod):
            return left
        if isinstance(node.op, ast.Pow):
            exponent = _numeric_value(node.right)
            if left is not None and exponent is not None \
                    and float(exponent).is_integer():
                return pow_unit(left, int(exponent))
            return None
        return None

    def _eval_mult(self, node: ast.BinOp, left: Optional[Unit],
                   right: Optional[Unit],
                   env: Dict[str, Optional[Unit]]) -> Optional[Unit]:
        for constant, other in ((node.left, right),
                                (node.right, left)):
            value = _numeric_value(constant)
            if value is not None:
                if other is None:
                    return None
                decade = _decade(value)
                if decade is None or other.scale is None:
                    return other.with_scale(None)
                return other.with_scale(other.scale + decade)
        if left is None or right is None:
            return None
        if left.dims == right.dims and left.dims:
            if left.dims == make_unit(_AMPERE).dims:
                self._report(node, "UNI003",
                             "multiplying two currents — power is "
                             "I * Vdd, not I * I")
            elif left.dims == make_unit(_VOLT).dims:
                self._report(node, "UNI003",
                             "multiplying two voltages — power is "
                             "I * Vdd, not V * V")
        return mul_units(left, right)

    def _eval_div(self, node: ast.BinOp, left: Optional[Unit],
                  right: Optional[Unit]) -> Optional[Unit]:
        value = _numeric_value(node.right)
        if value is not None:
            if left is None:
                return None
            decade = _decade(value)
            if decade is None or left.scale is None:
                return left.with_scale(None)
            return left.with_scale(left.scale - decade)
        value = _numeric_value(node.left)
        if value is not None:
            if right is None:
                return None
            decade = _decade(value)
            inverted = div_units(DIMENSIONLESS, right)
            if decade is None or inverted.scale is None:
                return inverted.with_scale(None)
            return inverted.with_scale(inverted.scale + decade)
        if left is None or right is None:
            return None
        return div_units(left, right)

    def _eval_compare(self, node: ast.Compare,
                      env: Dict[str, Optional[Unit]]
                      ) -> Optional[Unit]:
        operands = [node.left] + list(node.comparators)
        units = [self.eval(operand, env) for operand in operands]
        for position, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.Lt,
                                   ast.LtE, ast.Gt, ast.GtE)):
                continue
            left_node = operands[position]
            right_node = operands[position + 1]
            if _is_number(left_node) or _is_number(right_node):
                continue
            self._check_add(node, units[position],
                            units[position + 1], "compare")
        return DIMENSIONLESS

    def _eval_call(self, node: ast.Call,
                   env: Dict[str, Optional[Unit]]) -> Optional[Unit]:
        arg_units = [self.eval(arg, env) for arg in node.args]
        for keyword in node.keywords:
            self.eval(keyword.value, env)
        name = _last_component(node.func)
        if name is None:
            return None
        if name in KNOWN_CALLS:
            return KNOWN_CALLS[name]
        if name in _UNIT_PRESERVING:
            known = [unit for unit in arg_units if unit is not None]
            if name in ("min", "max", "sum") and len(known) > 1:
                folded: Optional[Unit] = known[0]
                for unit in known[1:]:
                    folded = self._check_add(node, folded, unit,
                                             f"{name}() over")
            return known[0] if len(known) == 1 else (
                known[0] if known and all(u.dims == known[0].dims
                                          for u in known) else None)
        return self.index.function_unit(name)

    # -- statement walking ------------------------------------------

    def _line_annotation(self, stmt: ast.stmt) -> Optional[Unit]:
        last = stmt.end_lineno or stmt.lineno
        for line in range(stmt.lineno, last + 1):
            unit = self.index.annotated_lines.get(
                (str(self.ctx.path), line))
            if unit is not None:
                return unit
        return None

    def exec_block(self, stmts: Sequence[ast.stmt],
                   env: Optional[Dict[str, Optional[Unit]]],
                   declared: Optional[Unit]
                   ) -> Optional[Dict[str, Optional[Unit]]]:
        for stmt in stmts:
            if env is TERMINATED:
                return TERMINATED
            env = self._exec_stmt(stmt, env, declared)
        return env

    def _bind(self, env: Dict[str, Optional[Unit]], target: ast.AST,
              unit: Optional[Unit]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = unit
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(env, element, None)

    def _exec_stmt(self, stmt: ast.stmt,
                   env: Dict[str, Optional[Unit]],
                   declared: Optional[Unit]
                   ) -> Optional[Dict[str, Optional[Unit]]]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import,
                             ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Pass)):
            return env
        if isinstance(stmt, ast.Assign):
            unit = self._line_annotation(stmt)
            value = self.eval(stmt.value, env)
            if unit is None:
                unit = value
            for target in stmt.targets:
                self._bind(env, target, unit)
            return env
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return env
            unit = self._line_annotation(stmt)
            value = self.eval(stmt.value, env)
            self._bind(env, stmt.target,
                       unit if unit is not None else value)
            return env
        if isinstance(stmt, ast.AugAssign):
            current = self.eval(stmt.target, env)
            value = self.eval(stmt.value, env)
            if isinstance(stmt.op, (ast.Add, ast.Sub)) \
                    and not _is_number(stmt.value):
                verb = ("add" if isinstance(stmt.op, ast.Add)
                        else "subtract")
                self._check_add(stmt, current, value, verb)
            elif isinstance(stmt.op, ast.Mult) \
                    and isinstance(stmt.target, ast.Name):
                fake = ast.BinOp(left=stmt.target, op=ast.Mult(),
                                 right=stmt.value)
                ast.copy_location(fake, stmt)
                env[stmt.target.id] = self._eval_mult(
                    fake, current, value, env)
            return env
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                actual = self.eval(stmt.value, env)
                if declared is not None and actual is not None:
                    if declared.dims != actual.dims or (
                            declared.scale is not None
                            and actual.scale is not None
                            and declared.scale != actual.scale):
                        self._report(
                            stmt, "UNI002",
                            f"returns {format_unit(actual)} from a "
                            f"function declared to return "
                            f"{format_unit(declared)}")
            return TERMINATED
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            return TERMINATED
        if isinstance(stmt, (ast.Expr, ast.Assert)):
            value = stmt.value if isinstance(stmt, ast.Expr) \
                else stmt.test
            self.eval(value, env)
            return env
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            branches = [
                self.exec_block(stmt.body, dict(env), declared),
                self.exec_block(stmt.orelse, dict(env), declared),
            ]
            return merge_envs(branches)
        if isinstance(stmt, (ast.While, ast.For)):
            if isinstance(stmt, ast.While):
                self.eval(stmt.test, env)
                entry = dict(env)
            else:
                self.eval(stmt.iter, env)
                entry = dict(env)
                self._bind(entry, stmt.target, None)
            after_body = self.exec_block(stmt.body, entry, declared)
            merged = merge_envs([dict(env), after_body])
            return self.exec_block(stmt.orelse, merged or dict(env),
                                   declared)
        if isinstance(stmt, ast.Try):
            body_env = self.exec_block(stmt.body, dict(env), declared)
            branches = [body_env]
            for handler in stmt.handlers:
                branches.append(self.exec_block(handler.body,
                                                dict(env), declared))
            branches.append(self.exec_block(stmt.orelse,
                                            body_env if body_env
                                            is not TERMINATED
                                            else dict(env), declared))
            merged = merge_envs(branches)
            return self.exec_block(stmt.finalbody,
                                   merged if merged is not TERMINATED
                                   else dict(env), declared)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind(env, item.optional_vars, None)
            return self.exec_block(stmt.body, env, declared)
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        return env


def _declared_return(node: ast.AST, index: _TreeIndex,
                     ctx: FileContext) -> Optional[Unit]:
    path = str(ctx.path)
    for line in function_header_lines(node):
        unit = index.annotated_lines.get((path, line))
        if unit is not None:
            return unit
    header = index.functions.get(node.name.lower())  # type: ignore
    if header is not None:
        return header
    return unit_from_identifier(node.name)  # type: ignore[attr-defined]


def _check_constants(ctx: FileContext, index: _TreeIndex,
                     findings: List[Finding]) -> None:
    path = str(ctx.path)
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            value: Optional[ast.AST] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            value = stmt.value
        else:
            continue
        if value is None or name.startswith("_"):
            continue
        number = _numeric_value(value)
        if number is None or not isinstance(number, float):
            continue
        if unit_from_identifier(name) is not None:
            continue
        lines = range(stmt.lineno, (stmt.end_lineno or stmt.lineno)
                      + 1)
        if any((path, line) in index.annotated_lines
               for line in lines):
            continue
        findings.append(ctx.finding_at(
            "UNI004", stmt.lineno, stmt.col_offset,
            f"public calibration constant '{name}' carries no unit "
            f"suffix and no '# unit:' annotation"))


def _module_matches(module_path: str,
                    patterns: Iterable[str]) -> bool:
    for pattern in patterns:
        if module_path == pattern or module_path.endswith(
                "/" + pattern) or module_path.startswith(pattern):
            return True
    return False


def _function_params(node: ast.AST) -> Dict[str, Optional[Unit]]:
    env: Dict[str, Optional[Unit]] = {}
    arguments = node.args  # type: ignore[attr-defined]
    for arg in (arguments.posonlyargs + arguments.args
                + arguments.kwonlyargs):
        env[arg.arg] = unit_from_identifier(arg.arg)
    if arguments.vararg is not None:
        env[arguments.vararg.arg] = None
    if arguments.kwarg is not None:
        env[arguments.kwarg.arg] = None
    return env


def analyze_units(contexts: Sequence[FileContext]) -> List[Finding]:
    """Run the dimensional analysis over every parsed file."""
    findings: List[Finding] = []
    index = _TreeIndex()
    for ctx in contexts:
        _index_file(ctx, index, findings)
    for ctx in contexts:
        checker = _UnitChecker(ctx, index, findings)
        module_body = [stmt for stmt in ctx.tree.body
                       if not isinstance(stmt, (ast.FunctionDef,
                                                ast.AsyncFunctionDef,
                                                ast.ClassDef))]
        checker.exec_block(module_body, {}, None)
        for node in walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            declared = _declared_return(node, index, ctx)
            checker.exec_block(node.body, _function_params(node),
                               declared)
        if _module_matches(ctx.module_path, UNITS_CONST_MODULES):
            _check_constants(ctx, index, findings)
    return findings


CODES = ("UNI001", "UNI002", "UNI003", "UNI004")

__all__ = [
    "CODES",
    "DIMENSIONLESS",
    "Unit",
    "UnitParseError",
    "analyze_units",
    "format_unit",
    "make_unit",
    "mul_units",
    "div_units",
    "parse_unit",
    "pow_unit",
    "unit_from_identifier",
]
