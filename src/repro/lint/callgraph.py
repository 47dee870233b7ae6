"""Whole-tree call graph with receiver-type inference.

The flow-sensitive passes of PR 5 stop at function boundaries; the
effect analysis (:mod:`repro.lint.effects`) and fingerprint-coverage
analysis (:mod:`repro.lint.fingerprint`) need to know *who calls whom*
across the entire tree.  This module builds that graph statically,
without importing any code:

* **Indexing** — every module-level function and every class (with its
  methods, base classes, and best-effort attribute types) across all
  parsed files.  Classes are indexed by *name*; a name collision
  resolves to every candidate (conservative union).
* **Receiver-type inference** — the receiver of ``x.m(...)`` is typed
  from, in order: ``self`` (the enclosing class and its MRO),
  parameter annotations, local-variable annotations and simple
  assignment chains (``spans = self.spans``), class attribute types
  (``self.spans: Optional["SpanTracer"] = None`` in ``__init__`` or a
  class-body ``AnnAssign``), and constructor calls
  (``x = SpanStore()``).  ``Optional[...]``/string annotations are
  unwrapped; container annotations deliberately resolve to nothing
  (an element type is not the receiver's type).
* **Callback bindings** — ``obj.on_frame = self._handler`` records
  ``on_frame -> _handler``; a later ``self.on_frame(...)`` call edges
  to every handler ever bound to that attribute name tree-wide.  This
  is how the span/metrics hook indirections stay visible to the
  effect analysis.
* **CHA fallback** — a method call whose receiver cannot be typed
  edges to *every* class method of that name in the tree (classic
  class-hierarchy analysis), except for names on the builtin-container
  blocklist (``append``, ``get``, ``items``...), which would drown the
  graph in false edges.

The graph is deliberately *may-call* and conservative: extra edges can
only make the effect analysis report a function as more effectful than
it is, never less — the sound direction for proving hooks pure.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import walk
from .engine import FileContext

#: Method names too generic to resolve by name alone: edges from an
#: untyped receiver to same-named methods of unrelated classes would
#: swamp the graph (and ``.add(...)`` on a set must not edge into
#: ``SpanStore.add``).  Typed receivers still resolve these precisely.
CHA_BLOCKLIST = frozenset({
    "add", "append", "appendleft", "clear", "close", "copy", "count",
    "discard", "extend", "get", "index", "insert", "items", "join",
    "keys", "pop", "popitem", "popleft", "remove", "reverse", "run",
    "set", "setdefault", "sort", "split", "update", "values", "write",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_class_names(annotation: Optional[ast.AST]
                           ) -> Tuple[str, ...]:
    """Class names an annotation resolves an *instance* to.

    ``Optional["SpanTracer"]`` -> ``("SpanTracer",)``;
    ``Union[A, B]`` -> ``("A", "B")``; containers, ``Callable`` and
    ``None`` resolve to nothing.  String annotations are re-parsed.
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
        head = _dotted(annotation.value)
        tail = (head or "").split(".")[-1]
        if tail in ("Optional", "Union"):
            inner = annotation.slice
            elements = (inner.elts if isinstance(inner, ast.Tuple)
                        else [inner])
            names: List[str] = []
            for element in elements:
                names.extend(annotation_class_names(element))
            return tuple(names)
        return ()  # containers / generics: element type is not the value
    if isinstance(annotation, ast.BinOp) \
            and isinstance(annotation.op, ast.BitOr):  # X | None
        return (annotation_class_names(annotation.left)
                + annotation_class_names(annotation.right))
    name = _dotted(annotation)
    if name is None:
        return ()
    tail = name.split(".")[-1]
    if tail in ("None", "Any", "object", "Callable", "Sequence", "List",
                "Dict", "Tuple", "Set", "FrozenSet", "Iterable",
                "Iterator", "Mapping", "MutableMapping", "Type",
                "str", "int", "float", "bool", "bytes"):
        return ()
    return (tail,)


@dataclass
class FunctionNode:
    """One function or method definition in the tree."""

    qualname: str  #: ``module_path::Class.method`` / ``module_path::f``
    module_path: str
    class_name: Optional[str]
    name: str
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    ctx: FileContext

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)


@dataclass
class ClassNode:
    """One class definition with its statically harvested shape."""

    name: str
    module_path: str
    node: ast.ClassDef
    ctx: FileContext
    #: Base-class names (last dotted component), in declaration order.
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionNode] = field(default_factory=dict)
    #: Property-decorated method names.
    properties: Set[str] = field(default_factory=set)
    #: ``attr -> candidate class names`` from annotations/constructors.
    attr_types: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Class-body ``AnnAssign`` fields (dataclass field candidates),
    #: excluding ``ClassVar``.
    ann_fields: Dict[str, ast.AnnAssign] = field(default_factory=dict)
    #: ``ClassVar``-annotated names.
    classvars: Set[str] = field(default_factory=set)
    #: Every attribute name assigned anywhere (class body or self.x=).
    assigned_attrs: Set[str] = field(default_factory=set)
    is_dataclass: bool = False


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    call: ast.Call
    #: Resolved callee qualnames (possibly several: MRO ambiguity,
    #: CHA fallback, callback fan-out).  Empty when unresolved.
    targets: Tuple[str, ...]
    #: Last dotted component of the callee expression (for seeding
    #: name-based effect heuristics on unresolved calls).
    callee_name: Optional[str]
    #: Dotted receiver text (``self._sim`` for ``self._sim.at``), or
    #: None for plain-name calls.
    receiver: Optional[str]


def _is_classvar(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = _dotted(target)
    return name is not None and name.split(".")[-1] == "ClassVar"


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = _dotted(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _is_property(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = _dotted(decorator)
        if name is not None and name.split(".")[-1] in (
                "property", "cached_property"):
            return True
    return False


class CallGraph:
    """The whole-tree index plus the resolved call edges."""

    def __init__(self) -> None:
        #: ``qualname -> FunctionNode`` for every function in the tree.
        self.functions: Dict[str, FunctionNode] = {}
        #: ``class name -> [ClassNode, ...]`` (collisions keep all).
        self.classes: Dict[str, List[ClassNode]] = {}
        #: ``method name -> [qualname, ...]`` for CHA fallback.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: ``module-level function name -> [qualname, ...]``.
        self.module_functions: Dict[str, List[str]] = {}
        #: ``attribute name -> {qualname, ...}`` of callables ever
        #: bound to it (``obj.on_frame = self._handler``).
        self.callback_bindings: Dict[str, Set[str]] = {}
        #: ``caller qualname -> [CallSite, ...]``.
        self.calls: Dict[str, List[CallSite]] = {}
        self._env_cache: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "CallGraph":
        graph = cls()
        for ctx in contexts:
            graph._index_file(ctx)
        for ctx in contexts:
            graph._collect_callbacks(ctx)
        for qualname, function in list(graph.functions.items()):
            graph.calls[qualname] = graph._resolve_calls(function)
        return graph

    def _index_file(self, ctx: FileContext) -> None:
        for stmt in ctx.tree.body:  # type: ignore[attr-defined]
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, class_node=None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(ctx, stmt)

    def _index_function(self, ctx: FileContext, node: ast.AST,
                        class_node: Optional[ClassNode]) -> None:
        name = node.name  # type: ignore[attr-defined]
        if class_node is None:
            qualname = f"{ctx.module_path}::{name}"
        else:
            qualname = f"{ctx.module_path}::{class_node.name}.{name}"
        function = FunctionNode(
            qualname=qualname, module_path=ctx.module_path,
            class_name=class_node.name if class_node else None,
            name=name, node=node, ctx=ctx)
        self.functions[qualname] = function
        if class_node is None:
            self.module_functions.setdefault(name, []).append(qualname)
        else:
            class_node.methods[name] = function
            self.methods_by_name.setdefault(name, []).append(qualname)
            if _is_property(node):
                class_node.properties.add(name)

    def _index_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            base_name = _dotted(base)
            if base_name is not None:
                bases.append(base_name.split(".")[-1])
        info = ClassNode(name=node.name, module_path=ctx.module_path,
                         node=node, ctx=ctx, bases=tuple(bases),
                         is_dataclass=_is_dataclass_decorated(node))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(ctx, stmt, class_node=info)
            elif isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                if _is_classvar(stmt.annotation):
                    info.classvars.add(stmt.target.id)
                else:
                    info.ann_fields[stmt.target.id] = stmt
                    info.attr_types[stmt.target.id] = \
                        annotation_class_names(stmt.annotation)
                info.assigned_attrs.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        info.assigned_attrs.add(target.id)
        # Harvest ``self.x: T = ...`` / ``self.x = Ctor()`` /
        # ``self.x = annotated_param`` from every method body (not just
        # __init__ — lazy attributes count too).
        for method in info.methods.values():
            params: Dict[str, Tuple[str, ...]] = {}
            arguments = method.node.args  # type: ignore[attr-defined]
            for arg in (arguments.posonlyargs + arguments.args
                        + arguments.kwonlyargs):
                names = annotation_class_names(arg.annotation)
                if names:
                    params[arg.arg] = names
            for sub in walk(method.node):
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Attribute) \
                        and isinstance(sub.target.value, ast.Name) \
                        and sub.target.value.id == "self":
                    info.assigned_attrs.add(sub.target.attr)
                    names = annotation_class_names(sub.annotation)
                    if names:
                        info.attr_types.setdefault(sub.target.attr,
                                                   names)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            info.assigned_attrs.add(target.attr)
                            names = self._infer_ctor(sub.value)
                            if not names \
                                    and isinstance(sub.value, ast.Name):
                                names = params.get(sub.value.id, ())
                            if names:
                                info.attr_types.setdefault(target.attr,
                                                           names)
        self.classes.setdefault(node.name, []).append(info)

    def _infer_ctor(self, value: ast.AST) -> Tuple[str, ...]:
        """Class names when ``value`` is evidently a constructor call."""
        if isinstance(value, ast.BoolOp):  # ``store or SpanStore()``
            names: List[str] = []
            for operand in value.values:
                names.extend(self._infer_ctor(operand))
            return tuple(names)
        if isinstance(value, ast.IfExp):
            return self._infer_ctor(value.body) \
                + self._infer_ctor(value.orelse)
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None:
                tail = name.split(".")[-1]
                if tail in self.classes:
                    return (tail,)
        return ()

    def _collect_callbacks(self, ctx: FileContext) -> None:
        """Record ``obj.attr = <method/function>`` bindings tree-wide."""
        for node in walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            bound = self._callable_targets(node.value, ctx)
            if not bound:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    self.callback_bindings.setdefault(
                        target.attr, set()).update(bound)

    def _callable_targets(self, value: ast.AST,
                          ctx: FileContext) -> Set[str]:
        """Qualnames ``value`` may denote as a bare callable."""
        name = _dotted(value)
        if name is None:
            return set()
        parts = name.split(".")
        found: Set[str] = set()
        if parts[0] == "self" and len(parts) == 2:
            for info in self._classes_in(ctx.module_path):
                method = self._lookup_method(info, parts[1])
                if method is not None:
                    found.add(method.qualname)
        elif len(parts) == 1:
            found.update(self.module_functions.get(parts[0], ()))
        elif len(parts) == 2 and parts[0] in self.classes:
            for info in self.classes[parts[0]]:
                if parts[1] in info.methods:
                    found.add(info.methods[parts[1]].qualname)
        return found

    def _classes_in(self, module_path: str) -> Iterable[ClassNode]:
        for candidates in self.classes.values():
            for info in candidates:
                if info.module_path == module_path:
                    yield info

    # -- lookup ---------------------------------------------------------

    def mro(self, class_name: str) -> List[ClassNode]:
        """Best-effort linearisation: the class, then bases, by name."""
        ordered: List[ClassNode] = []
        seen: Set[str] = set()
        queue = [class_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            for info in self.classes.get(current, ()):
                ordered.append(info)
                queue.extend(info.bases)
        return ordered

    def _lookup_method(self, info: ClassNode,
                       method: str) -> Optional[FunctionNode]:
        for candidate in self.mro(info.name):
            if method in candidate.methods:
                return candidate.methods[method]
        return None

    def lookup_attr_types(self, class_name: str,
                          attr: str) -> Tuple[str, ...]:
        """Candidate types of ``attr`` on ``class_name`` (MRO walk)."""
        for info in self.mro(class_name):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return ()

    def class_attr_names(self, class_name: str
                         ) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
        """``(fields, methods+properties, classvars, assigned)`` over
        the MRO of ``class_name``."""
        fields: Set[str] = set()
        callables: Set[str] = set()
        classvars: Set[str] = set()
        assigned: Set[str] = set()
        for info in self.mro(class_name):
            fields.update(info.ann_fields)
            callables.update(info.methods)
            callables.update(info.properties)
            classvars.update(info.classvars)
            assigned.update(info.assigned_attrs)
        return fields, callables, classvars, assigned

    # -- receiver typing ------------------------------------------------

    def _local_env(self, function: FunctionNode
                   ) -> Dict[str, Tuple[str, ...]]:
        """``local name -> candidate class names`` for one function.

        Parameters come from annotations; locals from ``AnnAssign``,
        constructor calls, and one-step aliasing of typed attributes
        (``spans = self.spans``).  Flow-insensitive: the union over the
        whole body (conservative for a may-call graph).
        """
        cached = self._env_cache.get(function.qualname)
        if cached is not None:
            return cached
        env: Dict[str, Tuple[str, ...]] = {}
        node = function.node
        arguments = node.args  # type: ignore[attr-defined]
        for arg in (arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs):
            if arg.arg == "self" and function.class_name is not None:
                env["self"] = (function.class_name,)
            elif arg.annotation is not None:
                names = annotation_class_names(arg.annotation)
                if names:
                    env[arg.arg] = names
        changed = True
        passes = 0
        while changed and passes < 4:  # alias chains settle quickly
            changed = False
            passes += 1
            for sub in walk(node):
                target_name: Optional[str] = None
                value: Optional[ast.AST] = None
                if isinstance(sub, ast.AnnAssign) \
                        and isinstance(sub.target, ast.Name):
                    target_name = sub.target.id
                    names = annotation_class_names(sub.annotation)
                    if names and env.get(target_name) != names:
                        env[target_name] = names
                        changed = True
                    continue
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1 \
                        and isinstance(sub.targets[0], ast.Name):
                    target_name = sub.targets[0].id
                    value = sub.value
                if target_name is None or value is None:
                    continue
                names = self._expr_types(value, env)
                if names and env.get(target_name) != names:
                    env[target_name] = names
                    changed = True
        self._env_cache[function.qualname] = env
        return env

    def _expr_types(self, value: ast.AST,
                    env: Dict[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Candidate class names of an expression under ``env``."""
        if isinstance(value, ast.Name):
            return env.get(value.id, ())
        if isinstance(value, ast.Attribute):
            base_types = self._expr_types(value.value, env)
            found: List[str] = []
            for base in base_types:
                found.extend(self.lookup_attr_types(base, value.attr))
            return tuple(dict.fromkeys(found))
        if isinstance(value, (ast.BoolOp, ast.IfExp)):
            operands = value.values if isinstance(value, ast.BoolOp) \
                else [value.body, value.orelse]
            found = []
            for operand in operands:
                found.extend(self._expr_types(operand, env))
            return tuple(dict.fromkeys(found))
        if isinstance(value, ast.Call):
            name = _dotted(value.func)
            if name is not None and name.split(".")[-1] in self.classes:
                return (name.split(".")[-1],)
            # Return-annotation propagation: the type of
            # ``registry.state_timer(...)`` is state_timer's declared
            # return type.
            found = []
            if isinstance(value.func, ast.Attribute):
                for base in self._expr_types(value.func.value, env):
                    for info in self.classes.get(base, ()):
                        method = self._lookup_method(info,
                                                     value.func.attr)
                        if method is not None:
                            found.extend(annotation_class_names(
                                method.node.returns))  # type: ignore
            elif isinstance(value.func, ast.Name):
                for qualname in self.module_functions.get(
                        value.func.id, ()):
                    target = self.functions[qualname]
                    found.extend(annotation_class_names(
                        target.node.returns))  # type: ignore
            return tuple(dict.fromkeys(found))
        return ()

    def receiver_types(self, function: FunctionNode, node: ast.AST,
                       env: Optional[Dict[str, Tuple[str, ...]]] = None
                       ) -> Tuple[str, ...]:
        """Candidate class names for an arbitrary receiver expression."""
        if env is None:
            env = self._local_env(function)
        return self._expr_types(node, env)

    # -- call resolution ------------------------------------------------

    def _resolve_calls(self, function: FunctionNode) -> List[CallSite]:
        env = self._local_env(function)
        sites: List[CallSite] = []
        for sub in walk(function.node):
            if not isinstance(sub, ast.Call):
                continue
            sites.append(self._resolve_call(function, sub, env))
        return sites

    def _resolve_call(self, function: FunctionNode, call: ast.Call,
                      env: Dict[str, Tuple[str, ...]]) -> CallSite:
        func = call.func
        targets: List[str] = []
        callee_name: Optional[str] = None
        receiver: Optional[str] = None
        if isinstance(func, ast.Name):
            callee_name = func.id
            if func.id in self.classes:  # constructor
                for info in self.classes[func.id]:
                    init = self._lookup_method(info, "__init__")
                    if init is not None:
                        targets.append(init.qualname)
                    post = self._lookup_method(info, "__post_init__")
                    if post is not None:
                        targets.append(post.qualname)
            elif func.id in self.module_functions:
                targets.extend(self.module_functions[func.id])
            elif func.id in env:  # callable local? not resolvable
                pass
        elif isinstance(func, ast.Attribute):
            callee_name = func.attr
            receiver = _dotted(func.value)
            targets.extend(self._resolve_method(function, func, env))
        return CallSite(call=call, targets=tuple(dict.fromkeys(targets)),
                        callee_name=callee_name, receiver=receiver)

    def _resolve_method(self, function: FunctionNode,
                        func: ast.Attribute,
                        env: Dict[str, Tuple[str, ...]]) -> List[str]:
        method = func.attr
        targets: List[str] = []
        # super().m(...)
        if isinstance(func.value, ast.Call) \
                and _dotted(func.value.func) == "super" \
                and function.class_name is not None:
            for info in self.classes.get(function.class_name, ()):
                for base in info.bases:
                    for base_info in self.classes.get(base, ()):
                        found = self._lookup_method(base_info, method)
                        if found is not None:
                            targets.append(found.qualname)
            return targets
        # ClassName.m(...) — explicit class reference.
        name = _dotted(func.value)
        if name is not None and name in self.classes:
            for info in self.classes[name]:
                found = self._lookup_method(info, method)
                if found is not None:
                    targets.append(found.qualname)
            if targets:
                return targets
        # Typed receiver (self, annotated param/local, typed attribute).
        receiver_types = self._expr_types(func.value, env)
        for class_name in receiver_types:
            found = None
            for info in self.classes.get(class_name, ()):
                found = self._lookup_method(info, method)
                if found is not None:
                    targets.append(found.qualname)
            # Subclass dispatch: a call through a base-typed receiver
            # may land in any override of the method below it.
            for override in self.methods_by_name.get(method, ()):
                override_cls = self.functions[override].class_name
                if override_cls is None or override_cls == class_name:
                    continue
                for info in self.mro(override_cls):
                    if info.name == class_name:
                        targets.append(override)
                        break
        if targets:
            return targets
        # Callback indirection: ``self.on_frame(...)`` resolves to every
        # callable ever bound to ``on_frame``.
        if method in self.callback_bindings:
            targets.extend(sorted(self.callback_bindings[method]))
            return targets
        # CHA fallback: untyped receiver, distinctive method name.
        if receiver_types == () and method not in CHA_BLOCKLIST:
            targets.extend(self.methods_by_name.get(method, ()))
        return targets

    # -- reporting ------------------------------------------------------

    def edges(self) -> List[Tuple[str, str]]:
        """Sorted unique ``(caller, callee)`` pairs."""
        pairs: Set[Tuple[str, str]] = set()
        for caller, sites in self.calls.items():
            for site in sites:
                for target in site.targets:
                    pairs.add((caller, target))
        return sorted(pairs)

    def to_summary(self) -> Dict[str, object]:
        """JSON-ready structural summary for the lint report."""
        edges = self.edges()
        resolved_sites = sum(
            1 for sites in self.calls.values()
            for site in sites if site.targets)
        total_sites = sum(len(sites) for sites in self.calls.values())
        return {
            "functions": len(self.functions),
            "classes": sum(len(v) for v in self.classes.values()),
            "call_sites": total_sites,
            "resolved_call_sites": resolved_sites,
            "edges": [list(pair) for pair in edges],
        }


def build_call_graph(contexts: Sequence[FileContext]) -> CallGraph:
    """Build the whole-tree call graph over the parsed context set."""
    return CallGraph.build(contexts)


__all__ = [
    "CHA_BLOCKLIST",
    "CallGraph",
    "CallSite",
    "ClassNode",
    "FunctionNode",
    "annotation_class_names",
    "build_call_graph",
]
