"""Determinism rules (D1xx).

Every figure this repository regenerates assumes that a seeded run is
bit-for-bit reproducible.  These rules forbid, inside the deterministic
core packages (:data:`~repro.lint.config.DETERMINISTIC_PACKAGES`), the
constructs that silently break that guarantee:

* ``id()`` (D104) and builtin ``hash()`` on non-dunder paths (D105) —
  both vary across interpreter invocations (CPython salts string
  hashing), so any name, seed or ordering derived from them differs
  between two runs of the same seed;
* iterating a ``set`` where order can escape (D106) — wrap the iterable
  in ``sorted(...)`` or use an order-insensitive consumer;
* an ``itertools.count()`` bound at import time (D107) — every run in
  the interpreter shares it, so the ids it hands out depend on the runs
  that came before.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from .config import (
    DETERMINISTIC_MODULES,
    DETERMINISTIC_PACKAGES,
    ORDER_INSENSITIVE_CONSUMERS,
)
from .diagnostics import Diagnostic, finding
from .registry import rule

ORDER_SENSITIVE_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _in_scope(ctx) -> bool:
    return (
        ctx.package in DETERMINISTIC_PACKAGES
        or ctx.module in DETERMINISTIC_MODULES
    )


def _dotted(node: ast.AST) -> Optional[List[str]]:
    """Flatten ``a.b.c`` into ``["a", "b", "c"]``; None if not a pure path."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _import_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound to ``module`` by plain imports."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module or alias.name.startswith(module + "."):
                    aliases.add((alias.asname or alias.name).split(".")[0])
    return aliases


@rule("D104", "id-based-identity")
def check_id_calls(ctx) -> Iterator[Diagnostic]:
    """Builtin ``id()`` used inside the deterministic core.

    CPython object addresses differ between interpreter invocations, so
    any name, key or ordering derived from ``id()`` breaks cross-run
    reproducibility the moment it reaches a trace or a tie-break.  Use a
    monotonic counter owned by the Simulator instead.
    """
    if not _in_scope(ctx):
        return
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            yield finding(
                ctx.path, node,
                "id() yields run-dependent values; derive identity from a "
                "deterministic counter",
            )


@rule("D105", "salted-hash")
def check_hash_calls(ctx) -> Iterator[Diagnostic]:
    """Builtin ``hash()`` outside ``__hash__`` inside the deterministic core.

    CPython salts ``str``/``bytes`` hashing per process (PYTHONHASHSEED),
    so seeding or ordering anything with ``hash(...)`` gives two
    identically-seeded invocations different executions.  Implementing
    ``__hash__`` for container membership is fine; feeding ``hash()``
    into seeds or sort keys is not — use a stable digest such as
    ``zlib.crc32``.
    """
    if not _in_scope(ctx):
        return
    dunder_spans = [
        (n.lineno, max(getattr(n, "end_lineno", n.lineno) or n.lineno, n.lineno))
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name == "__hash__"
    ]
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            line = node.lineno
            if any(start <= line <= stop for start, stop in dunder_spans):
                continue
            yield finding(
                ctx.path, node,
                "hash() is salted per process (PYTHONHASHSEED); use a stable "
                "digest (zlib.crc32) for seeds and orderings",
            )


@rule("D107", "module-level-counter")
def check_module_counters(ctx) -> Iterator[Diagnostic]:
    """Module- or class-level ``itertools.count()`` in the deterministic core.

    A counter bound at import time is shared by every simulation run in
    the interpreter, so the ids it hands out depend on how many runs came
    before — the same seed produces different request/uid streams on its
    second execution.  Own the counter per instance (assign it in
    ``__init__``) or thread it from the Simulator.
    """
    if not _in_scope(ctx):
        return
    aliases = _import_aliases(ctx.tree, "itertools")
    from_names = {
        alias.asname or alias.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }

    def is_count_call(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        path = _dotted(value.func)
        if not path:
            return False
        if len(path) == 2 and path[0] in aliases and path[1] == "count":
            return True
        return len(path) == 1 and path[0] in from_names

    def shared_assigns(body) -> Iterator[ast.stmt]:
        for stmt in body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                yield stmt
            elif isinstance(stmt, ast.ClassDef):
                yield from shared_assigns(stmt.body)

    for stmt in shared_assigns(ctx.tree.body):
        value = stmt.value
        if value is not None and is_count_call(value):
            yield finding(
                ctx.path, stmt,
                "itertools.count() bound at import time carries state across "
                "runs; make the counter per-instance or thread it from the "
                "Simulator",
            )


# ---------------------------------------------------------------------------
# D106 — unordered iteration
# ---------------------------------------------------------------------------

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_SET_TYPES = frozenset(
    {"Set", "set", "FrozenSet", "frozenset", "AbstractSet", "MutableSet"}
)
_MAP_TYPES = frozenset(
    {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping", "MutableMapping"}
)
_MAP_READS = frozenset({"get", "pop", "setdefault"})

# Keys of the tracked-symbol set.  ``name`` / ``self.attr``: holds a set.
# A ``[]`` suffix: holds a mapping whose *values* are sets.  A ``()``
# infix: a function or method of this module annotated to return one.
_VALUES = "[]"
_RETURNS = "()"


def _annotation_kind(node: Optional[ast.AST]) -> Optional[str]:
    """``""`` for ``Set[...]``, ``"[]"`` for ``Dict[..., Set[...]]``."""
    base = node.value if isinstance(node, ast.Subscript) else node
    path = _dotted(base) if base is not None else None
    if not path:
        return None
    if path[-1] in _SET_TYPES:
        return ""
    if path[-1] in _MAP_TYPES and isinstance(node, ast.Subscript):
        args = node.slice
        if isinstance(args, ast.Tuple) and args.elts:
            if _annotation_kind(args.elts[-1]) == "":
                return _VALUES
    return None


def _symbol(node: ast.AST) -> Optional[str]:
    """Tracking key of ``name``, ``self.attr``, ``f()`` or ``self.m()``."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    if isinstance(node, ast.Call):
        callee = _symbol(node.func)
        return None if callee is None else callee + _RETURNS
    return None


class _SetTracker(ast.NodeVisitor):
    """Conservatively tracks names/attributes that definitely hold sets.

    A symbol is tracked only if *every* assignment to it in the scanned
    scope is a set-valued expression; one non-set assignment untracks it.
    ``self.x`` attributes are tracked class-wide the same way.  Mappings
    with set values (``Dict[..., Set[...]]``) are tracked alongside, under
    the symbol's key plus ``[]``: an annotation settles it, otherwise every
    assignment has to be such a mapping.
    """

    def __init__(self) -> None:
        self.sets: Set[str] = set()
        self.poisoned: Set[str] = set()
        self.annotated: Set[str] = set()

    def note(self, target: ast.AST, value: ast.AST) -> None:
        key = self._key(target)
        if key is None:
            return
        known = self.tracked()
        for suffix, holds in (("", is_set_expr), (_VALUES, is_set_map_expr)):
            if holds(value, known):
                self.sets.add(key + suffix)
            else:
                self.poisoned.add(key + suffix)

    @staticmethod
    def _key(target: ast.AST) -> Optional[str]:
        return None if isinstance(target, ast.Call) else _symbol(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self.note(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        key = self._key(node.target)
        if key is not None and _annotation_kind(node.annotation) == _VALUES:
            self.annotated.add(key + _VALUES)
        if node.value is not None:
            self.note(node.target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        key = self._key(node.target)
        if key is not None and not isinstance(node.op, _SET_OPS):
            self.poisoned.add(key)
        self.generic_visit(node)

    def tracked(self) -> Set[str]:
        return (self.sets - self.poisoned) | self.annotated


def is_set_map_expr(node: ast.AST, tracked: Set[str]) -> bool:
    """Whether ``node`` is known to be a mapping whose values are sets."""
    key = _symbol(node)
    return key is not None and key + _VALUES in tracked


def is_set_expr(node: ast.AST, tracked: Set[str]) -> bool:
    """Whether ``node`` syntactically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _symbol(node) in tracked
    if isinstance(node, ast.Subscript):
        return is_set_map_expr(node.value, tracked)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        if _symbol(node) in tracked:
            return True
        if not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr in _SET_METHODS:
            return is_set_expr(node.func.value, tracked)
        if node.func.attr in _MAP_READS:
            # A set stored as a container value: d.pop(k, set()) and
            # friends, or any read of a mapping known to hold sets.
            return (
                len(node.args) == 2 and is_set_expr(node.args[1], tracked)
            ) or is_set_map_expr(node.func.value, tracked)
        return False
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return is_set_expr(node.left, tracked) or is_set_expr(node.right, tracked)
    return False


def _declared_returns(tree: ast.AST) -> Set[str]:
    """Tracking keys for the functions and methods annotated to return a
    set (``f()``, ``self.m()``) or a mapping of sets (``f()[]``)."""
    found: Set[str] = set()

    def collect(body: List[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                kind = _annotation_kind(stmt.returns)
                if kind is not None:
                    found.add(prefix + stmt.name + _RETURNS + kind)
            elif isinstance(stmt, ast.ClassDef):
                collect(stmt.body, "self.")

    collect(getattr(tree, "body", []), "")
    return found


def _describe(node: ast.AST) -> str:
    path = _dotted(node)
    if path:
        return ".".join(path)
    if isinstance(node, ast.Call):
        inner = _dotted(node.func)
        return f"{'.'.join(inner)}(...)" if inner else "a set expression"
    return "a set expression"


@rule("D106", "unordered-iteration")
def check_unordered_iteration(ctx) -> Iterator[Diagnostic]:
    """Iteration over a ``set`` whose order can escape, without ``sorted``.

    Set iteration order depends on insertion history and hash salting, so
    a ``for`` loop (or ``list``/``tuple``/``enumerate``/``iter`` call, or
    a comprehension) over a set leaks nondeterministic order into
    whatever it builds.  Wrap the iterable in ``sorted(...)``.  Membership
    tests and order-insensitive reductions (``len``/``min``/``sum``/...)
    are fine.  A set need not be bound to a name to be seen: one stored
    as a container value counts too — ``d.pop(k, set())`` and friends,
    and reads of anything annotated ``Dict[..., Set[...]]``.
    """
    if not _in_scope(ctx):
        return

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
        """Walk ``root`` without descending into nested def/class bodies."""
        stack = [root]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, defs):
                    stack.append(child)

    returns = _declared_returns(ctx.tree)

    def scan(scope: ast.AST, inherited: Set[str]) -> Iterator[Diagnostic]:
        tracker = _SetTracker()
        tracker.sets |= inherited | returns
        body = scope.body if hasattr(scope, "body") else []
        nested: List[ast.AST] = []

        def walk_stmts(stmts) -> Iterator[Diagnostic]:
            for stmt in stmts:
                if isinstance(stmt, defs):
                    nested.append(stmt)
                    continue
                for node in walk_shallow(stmt):
                    if isinstance(node, defs) and node is not stmt:
                        nested.append(node)
                    if isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)):
                        tracker.visit(node)
                yield from check_stmt(stmt)

        def check_stmt(stmt: ast.stmt) -> Iterator[Diagnostic]:
            tracked = tracker.tracked()
            # A comprehension that feeds an order-insensitive reduction
            # (all(x == y for x in some_set), sorted(...), sum(...)) never
            # leaks iteration order; exempt those argument nodes.
            exempt: Set[int] = set()
            for node in walk_shallow(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ORDER_INSENSITIVE_CONSUMERS
                ):
                    for arg in node.args:
                        exempt.add(id(arg))
            for node in walk_shallow(stmt):
                if id(node) in exempt:
                    continue
                if isinstance(node, (ast.For, ast.AsyncFor)) and is_set_expr(
                    node.iter, tracked
                ):
                    yield finding(
                        ctx.path, node,
                        f"for-loop iterates {_describe(node.iter)} (a set) in "
                        f"nondeterministic order; wrap it in sorted(...)",
                    )
                if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        if is_set_expr(gen.iter, tracked):
                            yield finding(
                                ctx.path, node,
                                f"comprehension iterates {_describe(gen.iter)} "
                                f"(a set) in nondeterministic order; wrap it "
                                f"in sorted(...)",
                            )
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    name = node.func.id
                    if name in ORDER_SENSITIVE_CONSUMERS and node.args and is_set_expr(
                        node.args[0], tracked
                    ):
                        yield finding(
                            ctx.path, node,
                            f"{name}() materialises {_describe(node.args[0])} "
                            f"(a set) in nondeterministic order; wrap it in "
                            f"sorted(...)",
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and is_set_expr(node.args[0], tracked)
                ):
                    yield finding(
                        ctx.path, node,
                        f"str.join() over {_describe(node.args[0])} (a set) "
                        f"concatenates in nondeterministic order; wrap it in "
                        f"sorted(...)",
                    )

        yield from walk_stmts(body)
        # For classes, collect self.x set attributes across all methods
        # first, then scan each method with them in scope.
        if isinstance(scope, ast.ClassDef):
            attr_tracker = _SetTracker()
            attr_tracker.sets |= returns
            for node in ast.walk(scope):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    attr_tracker.visit(node)
            attr_sets = {k for k in attr_tracker.tracked() if k.startswith("self.")}
            for method in nested:
                yield from scan(method, set(attr_sets))
        elif isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A closure reads its enclosing function's locals.
            for inner in nested:
                yield from scan(inner, _visible_in(inner, tracker.tracked()))
        else:
            for inner in nested:
                yield from scan(inner, set())

    yield from scan(ctx.tree, set())


def _visible_in(closure: ast.AST, tracked: Set[str]) -> Set[str]:
    """The enclosing scope's tracked symbols a nested def can still see:
    all but those its own parameters shadow."""
    args = getattr(closure, "args", None)
    if args is None:  # a class body: its methods see only self.* anyway
        return tracked
    every = args.posonlyargs + args.args + args.kwonlyargs
    every += [a for a in (args.vararg, args.kwarg) if a is not None]
    shadowed = {a.arg for a in every}
    return {key for key in tracked if key.rstrip(_VALUES) not in shadowed}
