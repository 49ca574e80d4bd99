"""Symbolic string evaluation for the message-flow pass (M4xx).

Message types in the tree are rarely string literals at the use site:
they are module constants (``DATA = "rt.data"``), class constants
(``CHANNEL = "rb.msg"``), instance attributes assigned in ``__init__``
(``self._req_type = f"{channel_prefix}.req"``), entries of dict-literal
attributes (``self._types["estimate"]``), or f-strings over constructor
parameters whose values arrive from call sites two modules away
(``Consensus(..., channel_prefix=f"{prefix}.ct")``).

:func:`evaluate` resolves such an expression to a *set of patterns*: each
pattern is a concrete string in which :data:`WILDCARD` marks a fragment
that could not be resolved (``f"vs.v{view_id}.estimate"`` becomes
``"vs.v\\x00.estimate"``).  Constructor parameters are resolved to the
union of their default value and every argument passed at any
construction site of the class or a subclass, iterated to a fixpoint, so
nested prefixes (``"sa.ab"`` -> ``"sa.ab.ct.estimate"``) come out
concrete.  The evaluator only widens: when in doubt a pattern gains a
wildcard, never loses a possibility, which lets the rules skip rather
than mis-report the unresolvable cases.

The module is self-contained (stdlib ``ast`` only), like the rest of the
linter.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

__all__ = [
    "WILDCARD",
    "ClassInfo",
    "ProgramIndex",
    "Scope",
    "evaluate",
    "pattern_matches",
    "patterns_unify",
    "program_index",
    "unify",
    "all_wild",
    "render_pattern",
    "render_patterns",
    "simple_name",
]

# Placeholder for an unresolvable fragment inside a pattern.  NUL cannot
# occur in real message types, so it never collides with payload data.
WILDCARD = "\x00"

# Widening caps: a value set never exceeds MAX_PATTERNS and evaluation
# never recurses deeper than MAX_DEPTH; both overflow to a bare wildcard.
MAX_PATTERNS = 32
MAX_DEPTH = 24

_TOP: FrozenSet[str] = frozenset({WILDCARD})


# ---------------------------------------------------------------------------
# Pattern algebra
# ---------------------------------------------------------------------------

def _normalise(pattern: str) -> str:
    """Collapse runs of adjacent wildcards into one."""
    while WILDCARD + WILDCARD in pattern:
        pattern = pattern.replace(WILDCARD + WILDCARD, WILDCARD)
    return pattern


def pattern_matches(pattern: str, concrete: str) -> bool:
    """Whether ``pattern`` (may contain wildcards) covers ``concrete``."""
    if WILDCARD not in pattern:
        return pattern == concrete
    parts = [re.escape(part) for part in _normalise(pattern).split(WILDCARD)]
    return re.fullmatch(".*".join(parts), concrete) is not None


def unify(a: str, b: str) -> bool:
    """Whether two patterns could denote the same concrete string.

    Exact when at most one side carries a wildcard; when both do, the
    literal prefixes and suffixes are compared (an overapproximation —
    it may unify patterns that share no concrete instance, never the
    reverse — which is the safe direction for suppressing findings).
    """
    if WILDCARD not in a:
        return pattern_matches(b, a)
    if WILDCARD not in b:
        return pattern_matches(a, b)
    a, b = _normalise(a), _normalise(b)
    pre_a, suf_a = a.split(WILDCARD, 1)[0], a.rsplit(WILDCARD, 1)[1]
    pre_b, suf_b = b.split(WILDCARD, 1)[0], b.rsplit(WILDCARD, 1)[1]
    if not (pre_a.startswith(pre_b) or pre_b.startswith(pre_a)):
        return False
    return suf_a.endswith(suf_b) or suf_b.endswith(suf_a)


def patterns_unify(left: Iterable[str], right: Iterable[str]) -> bool:
    """Whether any pattern in ``left`` unifies with any in ``right``."""
    right = list(right)
    return any(unify(a, b) for a in left for b in right)


def render_pattern(pattern: str) -> str:
    """Human-readable form: wildcards shown as ``*``."""
    return _normalise(pattern).replace(WILDCARD, "*")


def render_patterns(patterns: FrozenSet[str]) -> str:
    return ", ".join(sorted(render_pattern(p) for p in patterns))


def all_wild(patterns: FrozenSet[str]) -> bool:
    return all(set(p) <= {WILDCARD} for p in patterns)


# ---------------------------------------------------------------------------
# Program index
# ---------------------------------------------------------------------------

@dataclass
class ClassInfo:
    """One class definition plus the lookup tables evaluation needs."""

    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: List[str]
    consts: Dict[str, ast.expr] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    # attribute -> [(value expression, defining method)] for every
    # ``self.attr = ...`` in any method (branches contribute one each).
    attr_exprs: Dict[str, List[Tuple[ast.expr, Optional[ast.FunctionDef]]]] = (
        field(default_factory=dict)
    )


def simple_name(node: ast.AST) -> Optional[str]:
    """Last dotted segment of a name (``self.node.send`` -> ``send``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _def_ranges(node: ast.AST, prefix: str) -> Iterator[Tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def and class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = prefix + child.name
            yield child.lineno, child.end_lineno or 0, name
            yield from _def_ranges(child, name + ".")
        else:
            yield from _def_ranges(child, prefix)


def _relative_base(module: str, is_package: bool, level: int) -> Optional[str]:
    """Resolve the package a relative import of ``level`` dots targets."""
    parts = module.split(".") if module else []
    if not is_package and parts:
        parts = parts[:-1]  # the module's own package
    drop = level - 1
    if drop > len(parts):
        return None
    return ".".join(parts[: len(parts) - drop]) if drop else ".".join(parts)


class ProgramIndex:
    """Cross-module symbol tables for every parsed file of one lint run."""

    def __init__(self, contexts: Sequence) -> None:
        self.module_consts: Dict[str, Dict[str, ast.expr]] = {}
        self.from_imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        self.module_aliases: Dict[str, Dict[str, str]] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.subclasses: Dict[str, List[str]] = {}
        # class name -> [(constructor Call, Scope of the call site)]
        self.ctor_calls: Dict[str, List[Tuple[ast.Call, "Scope"]]] = {}
        self._param_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._param_stack: Set[Tuple[str, str]] = set()
        self._trees = {ctx.path: ctx.tree for ctx in contexts}
        self._defs: Dict[str, List[Tuple[int, int, str]]] = {}
        for ctx in contexts:
            self._index_file(ctx)
        self._link_subclasses()
        for ctx in contexts:
            self._collect_ctor_calls(ctx)

    # -- build ------------------------------------------------------------

    def _index_file(self, ctx) -> None:
        module = ctx.module or ctx.path
        consts = self.module_consts.setdefault(module, {})
        froms = self.from_imports.setdefault(module, {})
        aliases = self.module_aliases.setdefault(module, {})
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        consts[target.id] = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.value is not None:
                    consts[node.target.id] = node.value
            elif isinstance(node, ast.ImportFrom):
                base = (
                    _relative_base(module, ctx.is_package, node.level)
                    if node.level else ""
                )
                if base is None:
                    continue
                source = ".".join(p for p in (base, node.module or "") if p)
                for alias in node.names:
                    froms[alias.asname or alias.name] = (source, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._index_class(node, module, ctx.path)

    def _index_class(self, node: ast.ClassDef, module: str, path: str) -> None:
        info = ClassInfo(
            name=node.name, module=module, path=path, node=node,
            bases=[b for b in map(simple_name, node.bases) if b],
        )
        for item in node.body:
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        info.consts[target.id] = item.value
            elif isinstance(item, ast.AnnAssign):
                if isinstance(item.target, ast.Name) and item.value is not None:
                    info.consts[item.target.id] = item.value
            elif isinstance(item, ast.FunctionDef):
                info.methods.setdefault(item.name, item)
                for stmt in ast.walk(item):
                    if isinstance(stmt, ast.Assign):
                        for target in stmt.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                info.attr_exprs.setdefault(target.attr, []).append(
                                    (stmt.value, item)
                                )
        # First definition wins, matching the contract family's policy.
        self.classes.setdefault(node.name, info)

    def _link_subclasses(self) -> None:
        for info in self.classes.values():
            for base in info.bases:
                self.subclasses.setdefault(base, []).append(info.name)

    def _collect_ctor_calls(self, ctx) -> None:
        module = ctx.module or ctx.path

        def visit(node: ast.AST, cls: Optional[ClassInfo],
                  func: Optional[ast.FunctionDef]) -> None:
            if isinstance(node, ast.ClassDef):
                cls = self.classes.get(node.name)
                func = None
            elif isinstance(node, ast.FunctionDef):
                func = node
            if isinstance(node, ast.Call):
                name = simple_name(node.func)
                if name in self.classes:
                    self.ctor_calls.setdefault(name, []).append(
                        (node, Scope(self, module, cls, func))
                    )
            for child in ast.iter_child_nodes(node):
                visit(child, cls, func)

        visit(ctx.tree, None, None)

    # -- anchors ----------------------------------------------------------

    def anchors(self, *kinds: Iterable[Any]) -> Dict[int, str]:
        """``id(site.node) -> anchor`` as the generated catalogs print it.

        An anchor is ``path::Qualified.name`` of the innermost def or
        class enclosing the site (the def itself, when the site is one),
        plus ``#k`` for the k-th site (k > 1) of its kind in that
        definition, in source order.  Each argument is every site of one
        kind — objects with ``file`` and ``node`` — so the same lists get
        the same anchors in every catalog.  No line numbers: an edit
        elsewhere in the file moves nothing.
        """
        out: Dict[int, str] = {}
        for sites in kinds:
            nodes = {id(site.node): (site.file, site.node) for site in sites}
            count: Dict[str, int] = {}
            for path, node in sorted(
                nodes.values(),
                key=lambda pair: (pair[0], pair[1].lineno, pair[1].col_offset),
            ):
                if path not in self._defs:
                    self._defs[path] = list(_def_ranges(self._trees[path], ""))
                inside = [d for d in self._defs[path]
                          if d[0] <= node.lineno <= d[1]]
                # Nested definitions start later: the innermost is the max.
                base = f"{path}::{max(inside)[2]}" if inside else path
                count[base] = count.get(base, 0) + 1
                out[id(node)] = (
                    base if count[base] == 1 else f"{base}#{count[base]}"
                )
        return out

    # -- lookups ----------------------------------------------------------

    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Ancestor chain by simple name (linear, cycle-guarded)."""
        out, queue, seen = [], [cls.name], set()
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            out.append(info)
            queue.extend(info.bases)
        return out

    def descendants(self, name: str) -> List[str]:
        """``name`` plus every transitive subclass known to the index."""
        out, queue = [], [name]
        while queue:
            current = queue.pop(0)
            if current in out:
                continue
            out.append(current)
            queue.extend(self.subclasses.get(current, []))
        return out

    def find_init(self, cls: ClassInfo) -> Optional[Tuple[ClassInfo, ast.FunctionDef]]:
        """The ``__init__`` whose signature names real parameters.

        Pass-through ``__init__(self, *args, **kwargs)`` wrappers (e.g.
        ``DeferredConsensus``) are skipped so call-site arguments bind to
        the ancestor signature they are forwarded to.
        """
        for info in self.mro(cls):
            init = info.methods.get("__init__")
            if init is None:
                continue
            if len(init.args.args) > 1 or init.args.kwonlyargs:
                return info, init
            if init.args.vararg is None and init.args.kwarg is None:
                return info, init
        return None

    # -- constructor-parameter fixpoint ------------------------------------

    def param_values(self, cls: ClassInfo, param: str) -> FrozenSet[str]:
        """Value set of an ``__init__`` parameter across all call sites."""
        key = (cls.name, param)
        cached = self._param_cache.get(key)
        if cached is not None:
            return cached
        if key in self._param_stack or len(self._param_stack) > MAX_DEPTH:
            return _TOP
        self._param_stack.add(key)
        try:
            values = self._compute_param(cls, param)
        finally:
            self._param_stack.discard(key)
        self._param_cache[key] = values
        return values

    def _compute_param(self, cls: ClassInfo, param: str) -> FrozenSet[str]:
        resolved = self.find_init(cls)
        if resolved is None:
            return _TOP
        owner, init = resolved
        params = [a.arg for a in init.args.args[1:]] + [
            a.arg for a in init.args.kwonlyargs
        ]
        if param not in params:
            return _TOP
        values: Set[str] = set()
        default = _find_default(init, param)
        if default is not None:
            values |= evaluate(default, Scope(self, owner.module, owner, None))
        # Arguments from every construction of the class or a subclass
        # (a subclass forwarding extra values only widens the set).
        for name in self.descendants(cls.name):
            for call, scope in self.ctor_calls.get(name, ()):
                values |= self._bind_call_arg(call, scope, init, param)
        values.discard("")
        if not values:
            return _TOP
        if len(values) > MAX_PATTERNS:
            return _TOP
        return frozenset(values)

    def _bind_call_arg(
        self, call: ast.Call, scope: "Scope", init: ast.FunctionDef, param: str
    ) -> FrozenSet[str]:
        positional = [a.arg for a in init.args.args[1:]]
        if any(isinstance(a, ast.Starred) for a in call.args):
            return _TOP
        for index, arg in enumerate(call.args):
            if index < len(positional) and positional[index] == param:
                return evaluate(arg, scope)
        for keyword in call.keywords:
            if keyword.arg == param:
                return evaluate(keyword.value, scope)
            if keyword.arg is None:  # **kwargs splat: anything may arrive
                return _TOP
        return frozenset()


# One ProgramIndex per lint invocation, shared by every whole-program
# pass (M4xx message flow, W5xx wait graph, R6xx interference).  The
# single-slot identity cache matches the pass-level caches: the engine
# hands every project rule the same context list, so the second and
# later passes reuse the index the first one built.
_INDEX_CACHE: List[Tuple[object, ProgramIndex]] = []


def program_index(contexts: Sequence) -> ProgramIndex:
    """Build (or reuse) the shared program index for ``contexts``."""
    if _INDEX_CACHE and _INDEX_CACHE[0][0] is contexts:
        return _INDEX_CACHE[0][1]
    index = ProgramIndex(contexts)
    _INDEX_CACHE[:] = [(contexts, index)]
    return index


def _find_default(init: ast.FunctionDef, param: str) -> Optional[ast.expr]:
    args = init.args
    positional = args.args[1:] if args.args and args.args[0].arg == "self" else args.args
    defaults = args.defaults
    offset = len(positional) - len(defaults)
    for index, arg in enumerate(positional):
        if arg.arg == param and index >= offset:
            return defaults[index - offset]
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if arg.arg == param and default is not None:
            return default
    return None


# ---------------------------------------------------------------------------
# Scoped evaluation
# ---------------------------------------------------------------------------

@dataclass
class Scope:
    """Where an expression lives: module, enclosing class and function."""

    index: ProgramIndex
    module: str
    cls: Optional[ClassInfo] = None
    func: Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = None


def evaluate(expr: Optional[ast.expr], scope: Scope, _depth: int = 0) -> FrozenSet[str]:
    """Resolve ``expr`` to its set of string patterns (never empty)."""
    if expr is None or _depth > MAX_DEPTH:
        return _TOP
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, str):
            return frozenset({expr.value})
        return _TOP
    if isinstance(expr, ast.JoinedStr):
        return _eval_joined(expr, scope, _depth)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        return _product(
            evaluate(expr.left, scope, _depth + 1),
            evaluate(expr.right, scope, _depth + 1),
        )
    if isinstance(expr, ast.Name):
        return _eval_name(expr.id, scope, _depth)
    if isinstance(expr, ast.Attribute):
        return _eval_attribute(expr, scope, _depth)
    if isinstance(expr, ast.Subscript):
        return _eval_subscript(expr, scope, _depth)
    if isinstance(expr, ast.IfExp):
        return _cap(
            evaluate(expr.body, scope, _depth + 1)
            | evaluate(expr.orelse, scope, _depth + 1)
        )
    return _TOP


def _cap(values: FrozenSet[str]) -> FrozenSet[str]:
    if not values:
        return _TOP
    if len(values) > MAX_PATTERNS:
        return _TOP
    return frozenset(_normalise(v) for v in values)


def _product(left: FrozenSet[str], right: FrozenSet[str]) -> FrozenSet[str]:
    return _cap(frozenset(a + b for a in left for b in right))


def _eval_joined(expr: ast.JoinedStr, scope: Scope, depth: int) -> FrozenSet[str]:
    out: FrozenSet[str] = frozenset({""})
    for part in expr.values:
        if isinstance(part, ast.Constant):
            piece: FrozenSet[str] = frozenset({str(part.value)})
        elif isinstance(part, ast.FormattedValue):
            piece = evaluate(part.value, scope, depth + 1)
        else:
            piece = _TOP
        out = _product(out, piece)
    return out


def _local_assignments(func: ast.AST, name: str) -> List[Optional[ast.expr]]:
    """Right-hand sides of plain ``name = ...`` statements in ``func``.

    A ``None`` entry marks an unresolvable rebinding (a loop variable).
    """
    found: List[Optional[ast.expr]] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    found.append(node.value)
        elif isinstance(node, (ast.For, ast.comprehension)):
            target = node.target
            if isinstance(target, ast.Name) and target.id == name:
                found.append(None)  # loop variable: unresolvable
    return found


def _eval_name(name: str, scope: Scope, depth: int) -> FrozenSet[str]:
    index = scope.index
    if scope.func is not None:
        assigned = _local_assignments(scope.func, name)
        if assigned:
            out: Set[str] = set()
            for value in assigned:
                out |= evaluate(value, scope, depth + 1)
            return _cap(frozenset(out))
        params = [a.arg for a in scope.func.args.args] + [
            a.arg for a in scope.func.args.kwonlyargs
        ]
        if name in params:
            if scope.cls is not None and scope.func.name == "__init__":
                return index.param_values(scope.cls, name)
            return _TOP
    if scope.cls is not None:
        for info in index.mro(scope.cls):
            if name in info.consts:
                return evaluate(
                    info.consts[name],
                    Scope(index, info.module, info, None),
                    depth + 1,
                )
    consts = index.module_consts.get(scope.module, {})
    if name in consts:
        return evaluate(
            consts[name], Scope(index, scope.module, None, None), depth + 1
        )
    return _resolve_import(scope.module, name, scope, depth)


def _resolve_import(module: str, name: str, scope: Scope, depth: int,
                    hops: int = 0) -> FrozenSet[str]:
    index = scope.index
    if hops > 4:
        return _TOP
    target = index.from_imports.get(module, {}).get(name)
    if target is None:
        return _TOP
    source, original = target
    consts = index.module_consts.get(source, {})
    if original in consts:
        return evaluate(
            consts[original], Scope(index, source, None, None), depth + 1
        )
    # Re-export chain (package __init__ pulling from a submodule).
    return _resolve_import(source, original, scope, depth, hops + 1)


def _eval_attribute(expr: ast.Attribute, scope: Scope, depth: int) -> FrozenSet[str]:
    index = scope.index
    base = expr.value
    if isinstance(base, ast.Name):
        if base.id == "self" and scope.cls is not None:
            return _eval_self_attr(scope.cls, expr.attr, scope, depth)
        # Imported module attribute: MOD.CONST
        dotted = index.module_aliases.get(scope.module, {}).get(base.id)
        if dotted is not None:
            consts = index.module_consts.get(dotted, {})
            if expr.attr in consts:
                return evaluate(
                    consts[expr.attr], Scope(index, dotted, None, None), depth + 1
                )
            return _TOP
        # Class attribute: Cls.CONST
        info = index.classes.get(base.id)
        if info is not None:
            for ancestor in index.mro(info):
                if expr.attr in ancestor.consts:
                    return evaluate(
                        ancestor.consts[expr.attr],
                        Scope(index, ancestor.module, ancestor, None),
                        depth + 1,
                    )
    return _TOP


def _eval_self_attr(cls: ClassInfo, attr: str, scope: Scope,
                    depth: int) -> FrozenSet[str]:
    index = scope.index
    out: Set[str] = set()
    for info in index.mro(cls):
        for value, method in info.attr_exprs.get(attr, ()):
            out |= evaluate(value, Scope(index, info.module, info, method), depth + 1)
        if out:
            return _cap(frozenset(out))
        if attr in info.consts:
            return evaluate(
                info.consts[attr], Scope(index, info.module, info, None), depth + 1
            )
    return _TOP


def _eval_subscript(expr: ast.Subscript, scope: Scope, depth: int) -> FrozenSet[str]:
    """Resolve ``self.table["key"]`` through dict-literal attributes."""
    key = expr.slice
    if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
        return _TOP
    base = expr.value
    if not (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
        and scope.cls is not None
    ):
        return _TOP
    index = scope.index
    out: Set[str] = set()
    for info in index.mro(scope.cls):
        for value, method in info.attr_exprs.get(base.attr, ()):
            if isinstance(value, ast.Dict):
                for dict_key, dict_value in zip(value.keys, value.values):
                    if (
                        isinstance(dict_key, ast.Constant)
                        and dict_key.value == key.value
                    ):
                        out |= evaluate(
                            dict_value,
                            Scope(index, info.module, info, method),
                            depth + 1,
                        )
            else:
                return _TOP
        if out:
            break
    return _cap(frozenset(out)) if out else _TOP
