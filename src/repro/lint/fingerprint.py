"""Config-fingerprint coverage analysis (FPC001/FPC002).

``config_fingerprint`` is a canonical serialisation that covers
*exactly* the ``dataclasses.fields`` of :class:`BanScenarioConfig`,
recursively through nested dataclasses, sequences and mappings.
Anything the simulation reads that is **not** reachable from that
encoding can vary between two configs that fingerprint identically.
No stored result is keyed by that fingerprint, so the property guards
nothing; the analysis stays only while the end-to-end benchmark pins
its ``fingerprint`` timing name.

This pass proves coverage statically, on top of the
:mod:`repro.lint.callgraph` receiver typing:

* **The fingerprint closure** — class names reachable from the
  configured roots (``BanScenarioConfig``, ``MultiBanScenario``) via
  dataclass field annotations, unwrapped through
  ``Optional``/``Union``/containers exactly as ``_encode`` recurses
  (``Callable`` fields stop the walk: a config embedding a callable is
  :class:`~repro.exec.cache.Uncacheable` and has no fingerprint).
  Subclasses of closure members join the closure — a field typed as a
  base holds instances of its subclasses.  Non-dataclass roots
  contribute their annotated ``__init__`` parameters.
* **FPC001** — simulation code reads ``cfg.attr`` where ``cfg`` is a
  closure *dataclass* but ``attr`` is not a dataclass field (nor a
  method, property or ``ClassVar``).  Such an attribute influences
  behaviour without influencing the key: two configs with different
  values of it fingerprint identically.
* **FPC002** — a config-shaped dataclass (name matching
  ``(Config|Spec|Plan)$``) defined in a cache-salted package is read
  by simulation code, yet is neither in the fingerprint closure nor
  constructed anywhere inside salted simulation code.  Instances must
  then originate outside the fingerprint — unkeyed configuration
  reaching simulated behaviour.  (Derived configs the scenario builder
  assembles *from* fingerprinted fields, like the per-MAC config
  objects, are exempt: their values are functions of the key.)
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import (CallGraph, annotation_class_names,
                        build_call_graph, _dotted)
from .config import FPC_PACKAGES, FPC_PATTERN, FPC_ROOTS
from .dataflow import walk
from .engine import FileContext, Finding

CODES = ("FPC001", "FPC002")

#: Annotation heads that stop the closure walk: values of these types
#: have no canonical serialisation, so ``_encode`` raises
#: ``Uncacheable`` before their contents could matter.
_UNCACHEABLE_HEADS = frozenset({"Callable", "Type", "type"})

#: Container heads ``_encode`` recurses through element-wise.
_CONTAINER_HEADS = frozenset({
    "Dict", "FrozenSet", "Iterable", "List", "Mapping", "MutableMapping",
    "Optional", "Sequence", "Set", "Tuple", "Union", "dict", "frozenset",
    "list", "set", "tuple",
})


def field_type_names(annotation: Optional[ast.AST]) -> Tuple[str, ...]:
    """Every class-name leaf of a *field* annotation.

    Unlike :func:`~repro.lint.callgraph.annotation_class_names` (which
    types a receiver, so container element types must not leak), the
    fingerprint encoder recurses into sequences and mappings — so
    ``Optional[Sequence[NodeSpec]]`` contributes ``NodeSpec`` here.
    """
    if annotation is None:
        return ()
    if isinstance(annotation, ast.Constant):
        if not isinstance(annotation.value, str):
            return ()
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ()
    if isinstance(annotation, ast.Subscript):
        head = (_dotted(annotation.value) or "").split(".")[-1]
        if head in _UNCACHEABLE_HEADS:
            return ()
        inner = annotation.slice
        elements = (inner.elts if isinstance(inner, ast.Tuple)
                    else [inner])
        names: List[str] = []
        for element in elements:
            names.extend(field_type_names(element))
        return tuple(names)
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):
        return (field_type_names(annotation.left)
                + field_type_names(annotation.right))
    return annotation_class_names(annotation)


def fingerprint_closure(graph: CallGraph,
                        roots: Sequence[str]) -> Set[str]:
    """Class names whose fields feed ``config_fingerprint``."""
    closure: Set[str] = set()
    worklist: List[str] = [name for name in roots
                           if name in graph.classes]
    while worklist:
        name = worklist.pop()
        if name in closure:
            continue
        closure.add(name)
        for info in graph.mro(name):
            if info.is_dataclass or name not in roots:
                for ann in info.ann_fields.values():
                    for leaf in field_type_names(ann.annotation):
                        if leaf in graph.classes:
                            worklist.append(leaf)
            else:
                # Non-dataclass root (MultiBanScenario): follow the
                # annotated constructor parameters instead.
                init = info.methods.get("__init__")
                if init is None:
                    continue
                arguments = init.node.args  # type: ignore[attr-defined]
                for arg in (arguments.posonlyargs + arguments.args
                            + arguments.kwonlyargs):
                    for leaf in field_type_names(arg.annotation):
                        if leaf in graph.classes:
                            worklist.append(leaf)
    # Subclass expansion: a base-typed field holds subclass instances.
    changed = True
    while changed:
        changed = False
        for name in graph.classes:
            if name in closure:
                continue
            if any(info.name in closure
                   for info in graph.mro(name)[1:]):
                closure.add(name)
                changed = True
    return closure


def _is_salted(ctx: FileContext) -> bool:
    return ctx.package in FPC_PACKAGES


def analyze_fingerprint(contexts: Sequence[FileContext],
                        graph: Optional[CallGraph] = None,
                        ) -> Tuple[List[Finding], Dict[str, object]]:
    """Run the FPC closure + rules; return findings and report extras."""
    if graph is None:
        graph = build_call_graph(contexts)
    closure = fingerprint_closure(graph, FPC_ROOTS)
    pattern = re.compile(FPC_PATTERN)
    findings: List[Finding] = []

    #: Closure dataclasses, with their fingerprinted/known attr names.
    known_attrs: Dict[str, Tuple[Set[str], Set[str]]] = {}
    for name in closure:
        infos = graph.classes.get(name, ())
        if not any(info.is_dataclass for info in infos):
            continue
        fields, callables, classvars, _ = graph.class_attr_names(name)
        known_attrs[name] = (fields, callables | classvars)

    #: name -> sample read site, for config-shaped dataclasses read in
    #: salted code; and the set constructed in salted code.
    reads: Dict[str, Tuple[FileContext, int, int, str]] = {}
    constructed: Set[str] = set()

    for ctx in contexts:
        if not _is_salted(ctx):
            continue
        for node in walk(ctx.tree):
            if isinstance(node, ast.Call):
                callee = _dotted(node.func)
                if callee is not None:
                    constructed.add(callee.split(".")[-1])

    for qualname, function in graph.functions.items():
        ctx = function.ctx
        if not _is_salted(ctx):
            continue
        env = graph._local_env(function)
        for node in walk(function.node):
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.ctx, ast.Load):
                continue
            types = graph._expr_types(node.value, env)
            for class_name in types:
                if class_name in known_attrs:
                    fields, other = known_attrs[class_name]
                    if node.attr in fields or node.attr in other \
                            or node.attr.startswith("__"):
                        continue
                    findings.append(ctx.finding_at(
                        "FPC001", node.lineno, node.col_offset,
                        f"read of {class_name}.{node.attr} which is "
                        f"not a dataclass field: config_fingerprint "
                        f"never encodes it, so two configs differing "
                        f"only here fingerprint identically; make "
                        f"it a field or derive it from fields"))
                    break
                if class_name not in closure \
                        and pattern.search(class_name) \
                        and class_name not in reads \
                        and any(info.is_dataclass and _is_salted(info.ctx)
                            for info in graph.classes.get(class_name, ())):
                    reads[class_name] = (ctx, node.lineno,
                                         node.col_offset, node.attr)

    for class_name, (ctx, line, col, attr) in sorted(reads.items()):
        if class_name in constructed:
            continue  # derived inside simulation code from the key
        for info in graph.classes[class_name]:
            if not info.is_dataclass or not _is_salted(info.ctx):
                continue
            findings.append(info.ctx.finding_at(
                "FPC002", info.node.lineno, info.node.col_offset,
                f"config dataclass {class_name} is read by simulation "
                f"code ({ctx.path}:{line} reads .{attr}) but is "
                f"neither reachable from config_fingerprint nor "
                f"constructed inside salted simulation code — its "
                f"values bypass config_fingerprint; fingerprint it "
                f"or derive it from fingerprinted fields"))

    extras: Dict[str, object] = {
        "fingerprint": {
            "roots": sorted(set(FPC_ROOTS)
                            & set(graph.classes)),
            "closure": sorted(closure),
            "checked_dataclasses": sorted(known_attrs),
        },
    }
    return findings, extras


__all__ = [
    "CODES",
    "analyze_fingerprint",
    "field_type_names",
    "fingerprint_closure",
]
