"""Whole-program wait-graph analysis (W5xx) and the generated wait graph.

The paper's functional model distinguishes replication techniques by
*where they block*: which phase holds locks, waits on 2PC votes, or
awaits a group-communication round.  Nothing at runtime verifies that
every such wait can end — a chaos run just hangs — so this pass
extracts them statically.

Every blocking point in the tree is extracted into a per-handler **wait
graph**:

* ``yield node.call(dst, TYPE, ...)`` — a request/reply wait for the
  handler that serves ``TYPE`` (resolved through the M4xx send/handler
  graph);
* ``locks.acquire(txn, item, mode, ...)`` and ``txn.read/write`` — 2PL
  lock waits with symbolically-evaluated item patterns;
* ``coordinator.run(...)`` — the 2PC voting round (internally timed by
  ``VOTE_TIMEOUT``), whose closure links into the PREPARE exchange;
* ``sim.all_of/any_of(...)`` — joins over futures produced by the call
  and lock sites inside their arguments.

Graph nodes are functions (handlers, their spawned generators, shared
helpers); edges are "this function's closure blocks awaiting a message
another handler serves".  One rule reads the graph:

* **W501** — blocking call or lock acquisition with no ``timeout=``: a
  crash of the callee (or a distributed deadlock) leaves the caller
  blocked forever.

:func:`build_waitgraph_artifact` emits the graph as the generated wait
graph (``docs/waitgraph.md`` + JSON + one DOT file per technique).

Everything resolves by over-approximation in the same spirit as
:mod:`.symeval`: unresolvable message types and lock items widen to
wildcards, which silence — never fabricate — findings; unresolvable
branch structure linearises, which is documented in docs/linting.md.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .config import (
    ACCESS_DEPTH,
    COORDINATOR_CLASSES,
    COORDINATOR_RUN_METHOD,
    DEFERRAL_METHODS,
    DERIVED_INFO_FLAGS,
    EFFECT_METHODS,
    GUARD_ATTR_MARKERS,
    JOIN_METHODS,
    LOCK_ACQUIRE_METHOD,
    LOCK_RECEIVER_NAMES,
    MAX_WAIT_PATHS,
    MUTATOR_METHODS,
    NETWORK_RECEIVER_NAMES,
    PROTOCOL_BASE,
    PROTOCOL_INFO_NAME,
    REQUEST_ENTRY,
    TXN_LOCK_METHODS,
    TXN_RECEIVER_NAMES,
)
from .diagnostics import Diagnostic, finding
from .msgflow import FuncNode, HandlerReg, MessageGraph, build_graph
from .registry import rule
from .symeval import (
    WILDCARD,
    ClassInfo,
    ProgramIndex,
    Scope,
    all_wild,
    evaluate,
    patterns_unify,
    render_pattern,
    render_patterns,
    simple_name,
)

__all__ = [
    "WaitGraph",
    "WaitSite",
    "build_waitgraph",
    "build_waitgraph_artifact",
    "render_waitgraph_json",
    "render_waitgraph_markdown",
    "render_waitgraph_dot",
]

# Wait-site kinds.
CALL = "call"    # node.call request/reply wait
LOCK = "lock"    # 2PL lock acquisition
TWO_PC = "2pc"   # coordinator.run voting round (internally timed)
JOIN = "join"    # sim.all_of / sim.any_of barrier


# ---------------------------------------------------------------------------
# Graph records
# ---------------------------------------------------------------------------

@dataclass
class WaitSite:
    """One blocking point: where a simulated process can stop making
    progress until someone else acts."""

    file: str
    node: ast.Call
    kind: str                   # CALL | LOCK | TWO_PC | JOIN
    timed: bool                 # a timeout bounds the wait
    patterns: FrozenSet[str]    # message types (call) / item patterns (lock)
    detail: str                 # lock mode, join method or coordinator class
    func_key: str               # owning function's stable key


# An event is ("wait", WaitSite), ("callee", func_key),
# ("read", (attr, node)), ("write", (attr, node, via)),
# ("guard", (attr, node)) or ("effect", (label, node)).  The last four
# carry replica-state accesses, guard checks and externally-visible
# effects for the R6xx interference pass (see interference.py); the
# wait-graph rules below only consume "wait" and "callee".
Event = Tuple[str, Any]


@dataclass
class FuncInfo:
    """One function of the program with its blocking behaviour."""

    key: str                    # stable id: "module.Class.method"
    label: str                  # display: "Class.method" / "function"
    file: str
    module: str
    cls: Optional[ClassInfo]
    node: FuncNode
    waits: List[WaitSite] = field(default_factory=list)
    callees: List[str] = field(default_factory=list)   # func keys, ordered
    # Branch-sensitive event sequences (capped; see _stmt_sequences).
    templates: List[List[Event]] = field(default_factory=list)


@dataclass
class WaitGraph:
    """The whole-program wait graph for one lint invocation."""

    funcs: Dict[str, FuncInfo] = field(default_factory=dict)
    sites: List[WaitSite] = field(default_factory=list)
    message_graph: Optional[MessageGraph] = None
    index: Optional[ProgramIndex] = None

    def bind(self, key: str, within: Optional[ClassInfo]) -> str:
        """The function a call of ``key`` runs on an instance of ``within``.

        A method called on ``self`` dispatches on the instance: where
        ``within`` (a technique class) overrides it, the override runs.
        This is how the base class's drivers reach each technique's
        transaction steps.  ``handle_request`` is not rebound: it is a
        dispatchable entry of its own (interference.py).
        """
        info = self.funcs.get(key)
        if within is None or info is None or info.cls is None \
                or self.index is None:
            return key
        name = getattr(info.node, "name", "")
        if name == REQUEST_ENTRY or info.cls.methods.get(name) is not info.node:
            return key  # the entry, or a nested function
        mro = self.index.mro(within)
        if not any(owner is info.cls for owner in mro):
            return key
        for owner in mro:
            method = owner.methods.get(name)
            if method is not None:
                return _method_key(owner, method)
        return key

    def closure(self, key: str,
                within: Optional[ClassInfo] = None) -> List[FuncInfo]:
        """``key``'s function plus everything reachable via its calls,
        with calls on ``self`` bound to ``within``'s methods."""
        out: List[FuncInfo] = []
        seen: Set[str] = set()
        stack = [key]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.funcs.get(current)
            if info is None:
                continue
            out.append(info)
            stack.extend(
                self.bind(callee, within) for callee in reversed(info.callees)
            )
        return out

    def closure_waits(self, key: str,
                      within: Optional[ClassInfo] = None) -> List[WaitSite]:
        return [site for info in self.closure(key, within) for site in info.waits]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def _has_timeout(call: ast.Call) -> bool:
    """A ``timeout=`` kwarg (or an opaque ``**splat``) bounds the wait."""
    for keyword in call.keywords:
        if keyword.arg == "timeout" or keyword.arg is None:
            return True
    return False


def _arg_or_kwarg(call: ast.Call, position: int, name: str) -> Optional[ast.expr]:
    if len(call.args) > position:
        return call.args[position]
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _resolve_mode(expr: Optional[ast.expr], scope: Scope) -> str:
    """A lock mode as ``"r"``/``"w"``, or ``""`` when unresolvable."""
    if expr is None:
        return ""
    values = evaluate(expr, scope)
    if len(values) == 1:
        value = next(iter(values))
        if value in ("r", "w"):
            return value
    return ""


def _attr_classes(
    receiver: ast.expr, cls: Optional[ClassInfo], index: ProgramIndex
) -> List[ClassInfo]:
    """Classes a ``self.attr`` receiver may be an instance of, resolved
    through ``self.attr = SomeClass(...)`` assignments in the MRO and in
    the subclasses (a base class may use what its subclasses build)."""
    if not (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
        and cls is not None
    ):
        return []
    subclasses = [index.classes[name] for name in index.descendants(cls.name)[1:]]
    out: List[ClassInfo] = []
    for info in index.mro(cls) + subclasses:
        for value, _method in info.attr_exprs.get(receiver.attr, ()):
            if isinstance(value, ast.Call):
                name = simple_name(value.func)
                target = index.classes.get(name or "")
                if target is not None and target not in out:
                    out.append(target)
    return out


def _self_chain(node: ast.AST) -> Optional[List[str]]:
    """The dotted attribute chain of a ``self.a.b...`` expression, or
    ``None`` when the expression is not rooted at ``self``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self" and parts:
        parts.reverse()
        return parts
    return None


def _chain_str(parts: List[str]) -> str:
    """Canonical access name: the chain truncated to ACCESS_DEPTH."""
    return ".".join(parts[:ACCESS_DEPTH])


def _guard_events(test: ast.AST) -> List[Event]:
    """``("guard", (attr, node))`` for every self-rooted access in a
    branch condition whose final attribute looks like a view/epoch/
    primary predicate (``self.is_primary``, ``self.view`` ...)."""
    out: List[Event] = []
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute):
            chain = _self_chain(node)
            if chain and any(m in chain[-1] for m in GUARD_ATTR_MARKERS):
                out.append(("guard", (_chain_str(chain), node)))
    return out


class _WaitExtractor:
    """Second pass over one file: fill every FuncInfo's waits/events."""

    def __init__(self, graph: WaitGraph,
                 module_funcs: Dict[str, Dict[str, str]]) -> None:
        self.graph = graph
        self.module_funcs = module_funcs

    def extract(self, info: FuncInfo) -> None:
        nested = {
            stmt.name: _func_key(info.module, info.cls, stmt, parent=info)
            for stmt in info.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        scope = Scope(self.graph.index, info.module, info.cls,
                      info.node if isinstance(
                          info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                      ) else None)
        info.templates = self._stmt_sequences(
            list(info.node.body), info, scope, nested
        )
        seen_waits: Set[int] = set()
        seen_callees: Set[str] = set()
        for template in info.templates:
            for kind, payload in template:
                if kind == "wait" and id(payload) not in seen_waits:
                    seen_waits.add(id(payload))
                    info.waits.append(payload)
                    self.graph.sites.append(payload)
                elif kind == "callee" and payload not in seen_callees:
                    seen_callees.add(payload)
                    info.callees.append(payload)

    # -- branch-sensitive sequencing ------------------------------------

    def _stmt_sequences(self, stmts: List[ast.stmt], info: FuncInfo,
                        scope: Scope, nested: Dict[str, str]) -> List[List[Event]]:
        """Event sequences through ``stmts``: ``if``/``else`` fork paths,
        everything else linearises in source order.  The path count is
        capped at MAX_WAIT_PATHS; overflow collapses to one linearised
        path (a widening: extra order pairs can only be introduced by
        real code on both sides of the inversion, see docs)."""
        done: List[List[Event]] = []
        paths: List[List[Event]] = [[]]
        for stmt in stmts:
            if not paths:
                break  # every path already returned/raised
            if isinstance(stmt, ast.If):
                test = _guard_events(stmt.test) + self._events_in(
                    stmt.test, info, scope, nested
                )
                arms = (
                    self._stmt_sequences(stmt.body, info, scope, nested)
                    + self._stmt_sequences(stmt.orelse, info, scope, nested)
                )
                forks = [test + arm for arm in arms]
            elif isinstance(stmt, (ast.Return, ast.Raise,
                                   ast.Break, ast.Continue)):
                # Control leaves this statement list: later statements
                # are unreachable on this path.  The trailing "stop"
                # sentinel stays on the path so every enclosing
                # _stmt_sequences level also stops extending it; rules
                # and expansion skip the sentinel kind.
                forks = [
                    self._events_in(stmt, info, scope, nested)
                    + [("stop", None)]
                ]
            else:
                forks = [self._events_in(stmt, info, scope, nested)]
            next_paths: List[List[Event]] = []
            for p in paths:
                for fork in forks:
                    combined = p + fork
                    if combined and combined[-1][0] == "stop":
                        done.append(combined)
                    else:
                        next_paths.append(combined)
            paths = next_paths
            if len(done) + len(paths) > MAX_WAIT_PATHS:
                flat = [e for p in done + paths for e in p]
                merged: List[Event] = []
                seen: Set[Tuple[str, int]] = set()
                for event in flat:
                    marker = (event[0], id(event[1]))
                    if marker not in seen:
                        seen.add(marker)
                        merged.append(event)
                done, paths = [], [merged]
        return done + paths

    def _events_in(self, node: ast.AST, info: FuncInfo, scope: Scope,
                   nested: Dict[str, str]) -> List[Event]:
        """Events under ``node`` in source order, skipping nested defs."""
        out: List[Event] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return out
        if isinstance(node, (ast.If, ast.While)):
            # Branch conditions below statement level linearise through
            # here; the top-level ``if`` fork in _stmt_sequences prepends
            # its own guard events.
            out.extend(_guard_events(node.test))
        elif isinstance(node, ast.Attribute):
            chain = _self_chain(node)
            if chain is not None:
                name = _chain_str(chain)
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    via = "=" if isinstance(node.ctx, ast.Store) else "del"
                    out.append(("write", (name, node, via)))
                elif not (len(chain) == 1
                          and self._is_plain_method(info, chain[0])):
                    out.append(("read", (name, node)))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            chain = _self_chain(node.value)
            if chain is not None:
                out.append(("write", (_chain_str(chain), node, "[]")))
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Attribute):
            chain = _self_chain(node.target)
            if chain is not None:
                # ``self.x += 1`` reads then rebinds x within a single
                # statement: no suspension point fits between, so it
                # cannot lose an update under cooperative scheduling.
                # The write is tagged "aug"; the per-class write sets
                # keep it (it calls __setattr__).
                name = _chain_str(chain)
                out.append(("read", (name, node)))
                out.append(("write", (name, node, "aug")))
                out.extend(self._events_in(node.value, info, scope, nested))
                return out
        if isinstance(node, ast.Call):
            out.extend(self._classify(node, info, scope, nested))
            # The method attribute of a call is an invocation, not a
            # state read: recurse into the receiver, skip the attribute.
            for child in ast.iter_child_nodes(node):
                if child is node.func and isinstance(child, ast.Attribute):
                    out.extend(
                        self._events_in(child.value, info, scope, nested)
                    )
                else:
                    out.extend(self._events_in(child, info, scope, nested))
            return out
        for child in ast.iter_child_nodes(node):
            out.extend(self._events_in(child, info, scope, nested))
        return out

    def _is_plain_method(self, info: FuncInfo, attr: str) -> bool:
        """True when ``self.attr`` names an undecorated method (a bound-
        method access, not replica state); property reads stay reads."""
        index = self.graph.index
        if info.cls is None or index is None:
            return False
        for owner in index.mro(info.cls):
            method = owner.methods.get(attr)
            if method is not None:
                for dec in method.decorator_list:
                    name = simple_name(dec)
                    if name in ("property", "cached_property",
                                "setter", "getter", "deleter"):
                        return False
                return True
        return False

    # -- call classification --------------------------------------------

    def _classify(self, call: ast.Call, info: FuncInfo, scope: Scope,
                  nested: Dict[str, str]) -> List[Event]:
        events: List[Event] = []
        index = self.graph.index
        assert index is not None
        func = call.func
        if isinstance(func, ast.Name):
            target = self._resolve_plain(func.id, info, nested)
            if target is not None:
                events.append(("callee", target))
            return events
        if not isinstance(func, ast.Attribute):
            return events
        attr = func.attr
        receiver = simple_name(func.value)

        site: Optional[WaitSite] = None
        if attr == "call" and len(call.args) >= 2 \
                and receiver not in NETWORK_RECEIVER_NAMES:
            site = WaitSite(
                info.file, call, CALL, _has_timeout(call),
                evaluate(call.args[1], scope), "", info.key,
            )
        elif attr == LOCK_ACQUIRE_METHOD and receiver in LOCK_RECEIVER_NAMES:
            item = _arg_or_kwarg(call, 1, "item")
            mode = _arg_or_kwarg(call, 2, "mode")
            if item is not None:
                site = WaitSite(
                    info.file, call, LOCK, _has_timeout(call),
                    evaluate(item, scope), _resolve_mode(mode, scope),
                    info.key,
                )
        elif attr in TXN_LOCK_METHODS and receiver in TXN_RECEIVER_NAMES \
                and call.args:
            # Transaction.read/write always forward the manager-level
            # lock_timeout, so these count as timed acquisitions.
            site = WaitSite(
                info.file, call, LOCK, True,
                evaluate(call.args[0], scope), TXN_LOCK_METHODS[attr],
                info.key,
            )
        elif attr in JOIN_METHODS:
            site = WaitSite(
                info.file, call, JOIN, True, frozenset(), attr, info.key,
            )
        elif attr == COORDINATOR_RUN_METHOD:
            for target in _attr_classes(func.value, info.cls, index):
                if target.name in COORDINATOR_CLASSES:
                    site = WaitSite(
                        info.file, call, TWO_PC, True, frozenset(),
                        target.name, info.key,
                    )
                    break
        if site is not None:
            events.append(("wait", site))

        if attr in EFFECT_METHODS:
            # Externally visible effect: a reply leaves this replica, a
            # commit publishes writes.  R602 reports stale guards here.
            events.append(("effect", (attr, call)))
        if attr in MUTATOR_METHODS:
            chain = _self_chain(func.value)
            if chain is not None:
                events.append(("write", (_chain_str(chain), call, attr)))

        # Callee edges: self.m(...), self.attr.m(...) through resolved
        # attribute classes (this also links coordinator.run into the
        # 2PC implementation so its PREPARE exchange joins the closure),
        # and a self.m handed to a deferral (``node.after(d, self.m)``).
        value = func.value
        if attr in DEFERRAL_METHODS:
            for arg in call.args:
                deferred = self._self_method(arg, info)
                if deferred is not None:
                    events.append(("callee", deferred))
        if isinstance(value, ast.Name) and value.id == "self" and info.cls:
            called = self._self_method(func, info)
            if called is not None:
                events.append(("callee", called))
        else:
            for target in _attr_classes(value, info.cls, index):
                for owner in index.mro(target):
                    method = owner.methods.get(attr)
                    if method is not None:
                        events.append(("callee", _method_key(owner, method)))
                        break
        return events

    def _self_method(self, node: ast.expr, info: FuncInfo) -> Optional[str]:
        """The method ``self.m`` names, or None for anything else."""
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "self" and info.cls is not None):
            return None
        index = self.graph.index
        assert index is not None
        for owner in index.mro(info.cls):
            method = owner.methods.get(node.attr)
            if method is not None:
                return _method_key(owner, method)
        return None

    def _resolve_plain(self, name: str, info: FuncInfo,
                       nested: Dict[str, str]) -> Optional[str]:
        """A bare ``name(...)`` call: nested def, module function, or a
        ``from``-imported module function (re-export chains followed)."""
        if name in nested:
            return nested[name]
        module, original, hops = info.module, name, 0
        index = self.graph.index
        assert index is not None
        while hops <= 4:
            key = self.module_funcs.get(module, {}).get(original)
            if key is not None:
                return key
            target = index.from_imports.get(module, {}).get(original)
            if target is None:
                return None
            module, original = target
            hops += 1
        return None


# -- function registration ---------------------------------------------------

def _func_key(module: str, cls: Optional[ClassInfo], node: FuncNode,
              parent: Optional[FuncInfo] = None) -> str:
    name = getattr(node, "name", "<lambda>")
    if parent is not None:
        return f"{parent.key}.{name}"
    if cls is not None:
        return f"{module}.{cls.name}.{name}"
    return f"{module}.{name}"


def _method_key(owner: ClassInfo, method: ast.FunctionDef) -> str:
    return f"{owner.module}.{owner.name}.{method.name}"


def _register_functions(ctx, index: ProgramIndex, graph: WaitGraph,
                        module_funcs: Dict[str, Dict[str, str]]) -> None:
    module = ctx.module or ctx.path
    table = module_funcs.setdefault(module, {})

    def visit(node: ast.AST, cls: Optional[ClassInfo],
              parent: Optional[FuncInfo]) -> None:
        current = parent
        if isinstance(node, ast.ClassDef):
            cls, current = index.classes.get(node.name), None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = _func_key(module, cls, node, parent=parent)
            label = f"{cls.name}.{node.name}" if cls and parent is None \
                else node.name
            info = FuncInfo(
                key=key, label=label, file=ctx.path, module=module,
                cls=cls, node=node,
            )
            # First definition wins (mirrors the symeval class policy).
            graph.funcs.setdefault(key, info)
            if parent is None and cls is None:
                table.setdefault(node.name, key)
            current = info
        for child in ast.iter_child_nodes(node):
            visit(child, cls, current)

    visit(ctx.tree, None, None)


# ---------------------------------------------------------------------------
# Graph construction (cached per lint invocation)
# ---------------------------------------------------------------------------

_CACHE: List[Tuple[Any, WaitGraph]] = []


def build_waitgraph(contexts: Sequence) -> WaitGraph:
    """Build (or reuse) the wait graph for this set of file contexts."""
    if _CACHE and _CACHE[0][0] is contexts:
        return _CACHE[0][1]
    message_graph = build_graph(contexts)
    graph = WaitGraph(message_graph=message_graph, index=message_graph.index)
    assert graph.index is not None
    module_funcs: Dict[str, Dict[str, str]] = {}
    for ctx in contexts:
        _register_functions(ctx, graph.index, graph, module_funcs)
    extractor = _WaitExtractor(graph, module_funcs)
    for key in sorted(graph.funcs):
        extractor.extract(graph.funcs[key])
    graph.sites.sort(key=lambda s: (s.file, s.node.lineno, s.node.col_offset))
    _CACHE[:] = [(contexts, graph)]
    return graph


# ---------------------------------------------------------------------------
# The rules
# ---------------------------------------------------------------------------

@rule("W501", "untimed-blocking-call", scope="project")
def check_untimed_blocking(contexts) -> Iterator[Diagnostic]:
    """Blocking call or lock acquisition has no ``timeout=``.

    ``node.call`` waits for a reply under the crash-stop model: if the
    callee crashes first, no reply ever arrives and the calling process
    blocks forever (the future fails only if *this* node crashes).  A
    lock acquired without a timeout can likewise wait forever on a
    distributed deadlock, which no single site's wait-for graph can see
    (Section 4.4.1) — lock-wait timeouts are the classical resolution.
    An explicit ``timeout=None`` argument is a visible opt-out and
    passes; so do ``txn.read/write``, which inherit the transaction
    manager's ``lock_timeout``.
    """
    graph = build_waitgraph(contexts)
    for site in graph.sites:
        if site.timed:
            continue
        if site.kind == CALL:
            yield finding(
                site.file, site.node,
                f"blocking call of '{render_patterns(site.patterns)}' has no "
                f"timeout=; a crash of the callee leaves this process "
                f"blocked forever",
            )
        elif site.kind == LOCK:
            yield finding(
                site.file, site.node,
                f"lock acquisition of '{render_patterns(site.patterns)}' has no "
                f"timeout=; distributed deadlocks are invisible to the "
                f"local wait-for graph and only a lock-wait timeout "
                f"breaks them",
            )


def _handler_regs(graph: WaitGraph) -> List[Tuple[HandlerReg, str]]:
    """Handler registrations with resolved callbacks, as (reg, func key)."""
    assert graph.message_graph is not None
    by_id = {id(info.node): key for key, info in graph.funcs.items()}
    out: List[Tuple[HandlerReg, str]] = []
    for reg in graph.message_graph.handlers:
        if reg.wildcard or reg.callback.node is None:
            continue
        key = by_id.get(id(reg.callback.node))
        if key is not None:
            out.append((reg, key))
    out.sort(key=lambda pair: (pair[0].file, pair[0].node.lineno, pair[1]))
    return out


def _serves(cls: ClassInfo, requires: FrozenSet[str]) -> bool:
    """Does technique ``cls`` make a registration conditional on the
    ProtocolInfo flags ``requires``?  A flag its ``info`` does not set
    to ``True`` is unset; a derived flag is set by a non-``None`` value
    of its keyword."""
    assign = cls.consts.get(PROTOCOL_INFO_NAME)
    keywords = {kw.arg: kw.value for kw in getattr(assign, "keywords", [])}

    def is_set(flag: str) -> bool:
        if flag in DERIVED_INFO_FLAGS:
            value = keywords.get(DERIVED_INFO_FLAGS[flag], ast.Constant(None))
            return not (isinstance(value, ast.Constant) and value.value is None)
        value = keywords.get(flag)
        return isinstance(value, ast.Constant) and value.value is True

    return all(is_set(flag) for flag in requires)


def _wait_edges(
    graph: WaitGraph,
) -> Tuple[List[Tuple[HandlerReg, str]], Dict[int, List[Tuple[int, WaitSite]]]]:
    """The handler-level wait graph: ``edges[i]`` holds ``(j, site)`` when
    handler ``i``'s closure blocks on a type handler ``j`` serves."""
    assert graph.index is not None
    regs = _handler_regs(graph)
    techniques = [cls for _technique, cls in _protocol_techniques(graph)]
    edges: Dict[int, List[Tuple[int, WaitSite]]] = {}
    for i, (reg, key) in enumerate(regs):
        # A handler a technique inherits runs as that technique: its
        # calls on ``self`` bind to each such class in turn.
        owner = graph.funcs[key].cls
        runs_as: List[Optional[ClassInfo]] = [
            cls for cls in techniques
            if owner is not None and _serves(cls, reg.requires)
            and any(ancestor is owner for ancestor in graph.index.mro(cls))
        ]
        sites = {
            id(site.node): site
            for within in runs_as or [None]
            for site in graph.closure_waits(key, within)
        }
        for site in sites.values():
            if site.kind != CALL or all_wild(site.patterns):
                continue
            for j, (other, _other_key) in enumerate(regs):
                if patterns_unify(site.patterns, other.patterns):
                    edges.setdefault(i, []).append((j, site))
    return regs, edges


def _concrete(pattern: str) -> bool:
    return WILDCARD not in pattern


# ---------------------------------------------------------------------------
# The generated wait graph
# ---------------------------------------------------------------------------

WAITGRAPH_HEADER = (
    "<!-- Generated by `python -m repro artifacts waitgraph` "
    "(make artifacts). Do not edit by hand. -->"
)


def _protocol_techniques(graph: WaitGraph) -> List[Tuple[str, ClassInfo]]:
    """(technique name, class) for every ReplicaProtocol subclass that
    declares its ``info``."""
    assert graph.index is not None
    out: List[Tuple[str, ClassInfo]] = []
    for name in sorted(graph.index.classes):
        info = graph.index.classes[name]
        if PROTOCOL_INFO_NAME not in info.consts:
            continue
        mro = graph.index.mro(info)
        if not any(a.name == PROTOCOL_BASE for a in mro[1:]):
            continue
        technique = info.name.lower()
        assign = info.consts[PROTOCOL_INFO_NAME]
        if isinstance(assign, ast.Call):
            for keyword in assign.keywords:
                if keyword.arg == "name":
                    values = evaluate(
                        keyword.value, Scope(graph.index, info.module, info, None)
                    )
                    if len(values) == 1 and _concrete(next(iter(values))):
                        technique = next(iter(values))
                    break
        out.append((technique, info))
    out.sort(key=lambda pair: pair[0])
    return out


def _serving_handlers(graph: WaitGraph, site: WaitSite) -> List[str]:
    if site.kind != CALL or all_wild(site.patterns):
        return []
    assert graph.message_graph is not None
    return sorted({
        reg.callback.label
        for reg in graph.message_graph.handlers
        if not reg.wildcard and patterns_unify(site.patterns, reg.patterns)
    })


def _site_anchors(graph: WaitGraph) -> Dict[int, str]:
    """Anchors of every handler registration, binding and wait site."""
    assert graph.index is not None and graph.message_graph is not None
    return graph.index.anchors(
        graph.message_graph.handlers, graph.message_graph.all_bindings(),
        graph.sites,
    )


def _site_record(graph: WaitGraph, site: WaitSite,
                 at: Dict[int, str]) -> Dict[str, Any]:
    info = graph.funcs.get(site.func_key)
    return {
        "at": at[id(site.node)],
        "in": info.label if info else site.func_key,
        "kind": site.kind,
        "timed": site.timed,
        "awaits": sorted(render_pattern(p) for p in site.patterns),
        "detail": site.detail,
        "served_by": _serving_handlers(graph, site),
    }


def build_waitgraph_artifact(contexts: Sequence) -> Dict[str, Any]:
    """The wait graph as JSON-able data, deterministically sorted."""
    graph = build_waitgraph(contexts)
    assert graph.index is not None
    at = _site_anchors(graph)

    techniques: List[Dict[str, Any]] = []
    for technique, cls in _protocol_techniques(graph):
        mro_names = {info.name for info in graph.index.mro(cls)}
        own_keys = sorted(
            key for key, info in graph.funcs.items()
            if info.cls is not None and info.cls.name in mro_names
        )
        reach: List[FuncInfo] = []
        seen: Set[str] = set()
        for key in own_keys:
            for info in graph.closure(key, cls):
                if info.key not in seen:
                    seen.add(info.key)
                    reach.append(info)
        reach.sort(key=lambda info: info.key)

        handlers = []
        for reg, key in _handler_regs(graph):
            if key in seen and _serves(cls, reg.requires):
                handlers.append({
                    "type": ", ".join(
                        sorted(render_pattern(p) for p in reg.patterns)
                    ),
                    "handler": reg.callback.label,
                    "at": at[id(reg.node)],
                })
        handlers.sort(key=lambda h: (h["type"], h["at"]))

        waits = [
            _site_record(graph, site, at)
            for info in reach for site in info.waits
        ]
        waits.sort(key=lambda w: (w["at"], w["kind"]))

        calls = sorted({
            (info.key, bound)
            for info in reach
            for bound in (graph.bind(callee, cls) for callee in info.callees)
            if bound in seen
        })
        techniques.append({
            "technique": technique,
            "class": cls.name,
            "file": cls.path,
            "handlers": handlers,
            "functions": [info.key for info in reach],
            "labels": {info.key: info.label for info in reach},
            "calls": [{"from": a, "to": b} for a, b in calls],
            "waits": waits,
        })

    regs, edges = _wait_edges(graph)
    handler_edges = sorted(
        {
            (
                regs[i][0].callback.label,
                render_patterns(site.patterns),
                regs[j][0].callback.label,
                at[id(site.node)],
            )
            for i, targets in edges.items()
            for j, site in targets
        }
    )
    untimed = [s for s in graph.sites if not s.timed and s.kind in (CALL, LOCK)]
    return {
        "techniques": techniques,
        # Every non-wildcard handler registration in the tree, technique
        # or not: the universe the handler-level wait edges point into
        # (db-layer handlers like the 2PC termination protocol's status
        # answerer serve waits but sit outside every technique closure).
        "handlers": [
            {
                "type": ", ".join(
                    sorted(render_pattern(p) for p in reg.patterns)
                ),
                "handler": reg.callback.label,
                "at": at[id(reg.node)],
            }
            for reg, _key in _handler_regs(graph)
        ],
        "handler_wait_edges": [
            {"from": a, "type": t, "to": b, "at": at}
            for a, t, b, at in handler_edges
        ],
        "summary": {
            "blocking_sites": len(graph.sites),
            "call_waits": sum(1 for s in graph.sites if s.kind == CALL),
            "lock_waits": sum(1 for s in graph.sites if s.kind == LOCK),
            "two_pc_waits": sum(1 for s in graph.sites if s.kind == TWO_PC),
            "joins": sum(1 for s in graph.sites if s.kind == JOIN),
            "untimed": len(untimed),
        },
    }


def render_waitgraph_json(artifact: Dict[str, Any]) -> str:
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def render_waitgraph_markdown(artifact: Dict[str, Any]) -> str:
    summary = artifact["summary"]
    lines: List[str] = [
        "# Protocol wait graph",
        "",
        WAITGRAPH_HEADER,
        "",
        "Every blocking point the W5xx wait-graph pass",
        "(`src/repro/lint/waitgraph.py`) resolves in the tree: request/reply",
        "calls with the handler that serves them, 2PL lock acquisitions, 2PC",
        "voting rounds and future joins.  `*` marks a fragment the static",
        "evaluator could not pin down; `timed` means a `timeout=` (or an",
        "internal vote timeout) bounds the wait.",
        "",
        f"Blocking sites: {summary['blocking_sites']} "
        f"({summary['call_waits']} calls, {summary['lock_waits']} lock",
        f"acquisitions, {summary['two_pc_waits']} 2PC rounds, "
        f"{summary['joins']} joins); untimed: {summary['untimed']}.",
        "",
    ]
    for technique in artifact["techniques"]:
        lines += [
            f"## {technique['technique']} (`{technique['class']}`)",
            "",
            f"Defined in `{technique['file']}`; wait graph exported as "
            f"`docs/waitgraph/{technique['technique']}.dot`.",
            "",
        ]
        if technique["handlers"]:
            lines += [
                "| handled type | handler | registered at |",
                "|--------------|---------|---------------|",
            ]
            for handler in technique["handlers"]:
                lines.append(
                    f"| `{handler['type']}` | {handler['handler']} | "
                    f"`{handler['at']}` |"
                )
            lines.append("")
        if technique["waits"]:
            lines += [
                "| blocking site | in | kind | awaits | timed | served by |",
                "|---------------|----|------|--------|-------|-----------|",
            ]
            for wait in technique["waits"]:
                awaits = ", ".join(
                    f"`{a}`" for a in wait["awaits"]
                ) or (f"({wait['detail']})" if wait["detail"] else "—")
                served = ", ".join(wait["served_by"]) or "—"
                lines.append(
                    f"| `{wait['at']}` | {wait['in']} | {wait['kind']} | "
                    f"{awaits} | {'yes' if wait['timed'] else 'no'} | "
                    f"{served} |"
                )
            lines.append("")
        else:
            lines += ["No blocking sites: this technique never waits.", ""]
    lines += [
        "## Cross-handler wait edges",
        "",
        "Handler A blocks awaiting a message type handler B serves.",
        "",
    ]
    if artifact["handler_wait_edges"]:
        lines += [
            "| waiting handler | awaits | serving handler | at |",
            "|-----------------|--------|-----------------|----|",
        ]
        for edge in artifact["handler_wait_edges"]:
            lines.append(
                f"| {edge['from']} | `{edge['type']}` | {edge['to']} | "
                f"`{edge['at']}` |"
            )
    else:
        lines.append("(none)")
    lines.append("")
    return "\n".join(lines)


def render_waitgraph_dot(artifact: Dict[str, Any], technique: str) -> str:
    """One technique's wait graph in DOT: call edges solid, waits dashed
    (red when untimed), lock/join targets as ellipses."""
    record = next(
        t for t in artifact["techniques"] if t["technique"] == technique
    )
    lines = [
        f'digraph "{technique}" {{',
        "  rankdir=LR;",
        "  node [shape=box, fontsize=10, fontname=monospace];",
    ]
    handler_funcs = {h["handler"] for h in record["handlers"]}
    labels = record["labels"]
    nodes: List[str] = []
    for key in record["functions"]:
        short = labels.get(key, key)
        style = ', style=bold' if short in handler_funcs else ""
        nodes.append(f'  "{short}" [label="{short}"{style}];')
    edges: List[str] = []
    for call in record["calls"]:
        src = labels.get(call["from"], call["from"])
        dst = labels.get(call["to"], call["to"])
        edges.append(f'  "{src}" -> "{dst}" [color=gray50];')
    for wait in record["waits"]:
        src = wait["in"]
        colour = "red" if not wait["timed"] else "black"
        if wait["kind"] == "call":
            label = ", ".join(wait["awaits"]).replace('"', "'")
            targets = wait["served_by"] or [f"type:{label}"]
            for target in targets:
                edges.append(
                    f'  "{src}" -> "{target}" [style=dashed, '
                    f'label="{label}", color={colour}];'
                )
                if target.startswith("type:"):
                    nodes.append(f'  "{target}" [shape=ellipse];')
        elif wait["kind"] == "lock":
            items = ", ".join(wait["awaits"]).replace('"', "'")
            mode = wait["detail"] or "?"
            target = f"lock:{items}:{mode}"
            nodes.append(f'  "{target}" [shape=ellipse];')
            edges.append(
                f'  "{src}" -> "{target}" [style=dashed, color={colour}];'
            )
        elif wait["kind"] == "2pc":
            target = f"2pc:{wait['detail']}"
            nodes.append(f'  "{target}" [shape=ellipse];')
            edges.append(
                f'  "{src}" -> "{target}" [style=dashed, color={colour}];'
            )
    for line in sorted(set(nodes)):
        lines.append(line)
    for line in sorted(set(edges)):
        lines.append(line)
    lines.append("}")
    return "\n".join(lines) + "\n"
