"""Protocol-contract rules (P3xx).

Every replication technique is a ``ReplicaProtocol`` subclass whose
``info = ProtocolInfo(...)`` declares the phase row the paper's
classification matrices (Figures 5/6/15/16) assign to it.  The runtime
verifies executions against that row; these rules verify the *code*
against it, statically:

* the subclass declares (or inherits) a ``ProtocolInfo`` (P301);
* ``handle_request`` is a plain callback, not a generator — the base
  dispatcher invokes it synchronously, so a generator body would never
  run (simulated activities must go through ``node.spawn``) (P302);
* the phase markers the class emits (``self.phase(..., PHASE)`` calls
  plus the implicit RE from the dispatcher and END from ``respond``)
  exactly cover the phases its descriptor declares (P303);
* every phase literal passed to ``self.phase`` is one of RE/SC/EX/AC/END
  (P304).

The family is project-scoped: subclass chains may span modules, so the
rule builds one class table for the whole run before checking.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .config import (
    BASE_EMITS,
    PHASES,
    PROTOCOL_BASE,
    PROTOCOL_INFO_NAME,
    PROTOCOL_INFO_TYPE,
    RESPOND_EMITS,
)
from .diagnostics import Diagnostic, finding
from .registry import rule
from .symeval import simple_name


@dataclass
class _ClassRecord:
    name: str
    path: str
    node: ast.ClassDef
    bases: List[str]
    ancestors: List["_ClassRecord"] = field(default_factory=list)


def _collect_classes(contexts: Sequence) -> Dict[str, _ClassRecord]:
    table: Dict[str, _ClassRecord] = {}
    for ctx in contexts:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                bases = [b for b in map(simple_name, node.bases) if b]
                # First definition wins; duplicate simple names across the
                # tree are rare and a later one shadowing the first would
                # only weaken, never wrongly add, findings.
                table.setdefault(
                    node.name,
                    _ClassRecord(node.name, ctx.path, node, bases),
                )
    return table


def _protocol_classes(table: Dict[str, _ClassRecord]) -> List[_ClassRecord]:
    """Transitive subclasses of the protocol base, with ancestor chains."""
    protocols: List[_ClassRecord] = []
    for record in table.values():
        chain: List[_ClassRecord] = []
        seen: Set[str] = {record.name}
        frontier = list(record.bases)
        is_protocol = False
        while frontier:
            base = frontier.pop(0)
            if base == PROTOCOL_BASE:
                is_protocol = True
                continue
            if base in seen:
                continue
            seen.add(base)
            parent = table.get(base)
            if parent is not None:
                chain.append(parent)
                frontier.extend(parent.bases)
        if is_protocol or any(
            PROTOCOL_BASE in ancestor.bases for ancestor in chain
        ):
            record.ancestors = chain
            protocols.append(record)
    return [p for p in protocols if p.name != PROTOCOL_BASE]


# -- info/descriptor extraction ---------------------------------------------

def _find_info_assign(node: ast.ClassDef) -> Optional[ast.expr]:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == PROTOCOL_INFO_NAME:
                    return stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if (
                isinstance(stmt.target, ast.Name)
                and stmt.target.id == PROTOCOL_INFO_NAME
                and stmt.value is not None
            ):
                return stmt.value
    return None


def _phase_of(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name) and node.id in PHASES:
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value if node.value in PHASES else None
    return None


def _call_named(node: ast.AST, name: str) -> Optional[ast.Call]:
    if isinstance(node, ast.Call):
        func = simple_name(node.func)
        if func == name:
            return node
    return None


def _kwarg(call: ast.Call, name: str, position: Optional[int] = None) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if position is not None and len(call.args) > position:
        return call.args[position]
    return None


def _declared_phases(info_value: ast.expr) -> Optional[Set[str]]:
    """Phases named by the ProtocolInfo's descriptor(s); None if opaque."""
    call = _call_named(info_value, PROTOCOL_INFO_TYPE)
    if call is None:
        return None
    declared: Set[str] = set()
    resolved_any = False
    for key, position in (("descriptor", 4), ("txn_descriptor", None)):
        descriptor = _kwarg(call, key, position)
        if descriptor is None:
            continue
        descriptor_call = _call_named(descriptor, "PhaseDescriptor")
        if descriptor_call is None:
            continue
        steps = _kwarg(descriptor_call, "steps", 1)
        if steps is None or not isinstance(steps, (ast.Tuple, ast.List)):
            continue
        resolved_any = True
        for step in steps.elts:
            step_call = _call_named(step, "PhaseStep")
            if step_call is None:
                continue
            phase = _kwarg(step_call, "phase", 0)
            name = _phase_of(phase) if phase is not None else None
            if name:
                declared.add(name)
            merged = _kwarg(step_call, "merged_with")
            merged_name = _phase_of(merged) if merged is not None else None
            if merged_name:
                declared.add(merged_name)
    return declared if resolved_any else None


# -- emission extraction -----------------------------------------------------

def _emitted_phases(records: Sequence[_ClassRecord]) -> Tuple[Dict[str, ast.AST], bool, List[Tuple[ast.AST, str, ast.AST]]]:
    """Scan class bodies for ``self.phase``/``self.respond`` emissions.

    Returns ``(phases -> first emitting node, calls_respond, opaque)``
    where ``opaque`` lists phase() calls whose phase argument could not be
    resolved statically (with owning file for diagnostics).
    """
    emitted: Dict[str, ast.AST] = {}
    opaque: List[Tuple[ast.AST, str, ast.AST]] = []
    calls_respond = False
    for record in records:
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                continue
            if func.attr == "respond":
                calls_respond = True
            elif func.attr == "phase":
                arg = _kwarg(node, "phase", 1)
                if arg is None:
                    continue
                name = _phase_of(arg)
                if name is not None:
                    emitted.setdefault(name, node)
                else:
                    opaque.append((node, record.path, arg))
    return emitted, calls_respond, opaque


# -- the rules ---------------------------------------------------------------

def _protocols_in(contexts: Sequence) -> List[_ClassRecord]:
    return _protocol_classes(_collect_classes(contexts))


@rule("P301", "missing-protocol-info", scope="project")
def check_protocol_info(contexts) -> Iterator[Diagnostic]:
    """ReplicaProtocol subclass without a ``ProtocolInfo`` declaration.

    The ``info`` class attribute is the technique's row in the paper's
    classification matrices; without it the class cannot be registered,
    routed, or verified.  A subclass may inherit ``info`` from a concrete
    parent, but somewhere in its chain the declaration must exist.
    """
    for record in _protocols_in(contexts):
        if _find_info_assign(record.node) is not None:
            continue
        if any(_find_info_assign(a.node) is not None for a in record.ancestors):
            continue
        yield finding(
            record.path, record.node,
            f"protocol class {record.name} declares no "
            f"'{PROTOCOL_INFO_NAME} = {PROTOCOL_INFO_TYPE}(...)' (and "
            f"inherits none)",
        )


@rule("P302", "generator-handle-request", scope="project")
def check_handle_request_shape(contexts) -> Iterator[Diagnostic]:
    """``handle_request`` written as a generator.

    The base dispatcher calls ``handle_request`` synchronously from the
    client-request handler; a ``yield`` in its body would turn the call
    into an unconsumed generator object and the request would be silently
    dropped.  Long-running work must be wrapped in a process function and
    handed to ``node.spawn``.
    """
    for record in _protocols_in(contexts):
        for stmt in record.node.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "handle_request"
            ):
                for inner in ast.walk(stmt):
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and inner is not stmt:
                        continue
                    if isinstance(inner, (ast.Yield, ast.YieldFrom)) and _owning_function(stmt, inner) is stmt:
                        yield finding(
                            record.path, inner,
                            f"{record.name}.handle_request contains "
                            f"'yield': the dispatcher calls it "
                            f"synchronously, so a generator body never "
                            f"executes; spawn a process instead",
                        )
                        break


def _owning_function(root: ast.AST, target: ast.AST) -> Optional[ast.AST]:
    """Innermost function of ``root``'s tree containing ``target``."""
    owner = None

    def descend(node: ast.AST, current: Optional[ast.AST]) -> None:
        nonlocal owner
        if node is target:
            owner = current
            return
        for child in ast.iter_child_nodes(node):
            descend(
                child,
                node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) else current,
            )

    descend(root, None)
    return owner


@rule("P303", "phase-row-mismatch", scope="project")
def check_phase_rows(contexts) -> Iterator[Diagnostic]:
    """Emitted phase markers inconsistent with the declared phase row.

    Collects every ``self.phase(..., PHASE)`` the class (or an inherited
    protocol parent) can emit, adds the dispatcher's implicit RE and
    ``respond``'s END, and compares the set against the phases named by
    the ``ProtocolInfo`` descriptors.  Emitting an undeclared phase, or
    declaring a phase no code path can emit, both mean the class no
    longer matches its row in the classification matrices.
    """
    for record in _protocols_in(contexts):
        info_value = _find_info_assign(record.node)
        if info_value is None:
            continue  # P301's problem, or inherited: checked on the parent
        declared = _declared_phases(info_value)
        if declared is None:
            continue  # dynamically built info; nothing to verify statically
        lineage = [record] + record.ancestors
        emitted, calls_respond, _ = _emitted_phases(lineage)
        effective = set(emitted) | set(BASE_EMITS)
        if calls_respond:
            effective.add(RESPOND_EMITS)
        for phase in sorted(effective - declared, key=PHASES.index):
            node = emitted.get(phase, record.node)
            yield finding(
                record.path, node,
                f"{record.name} emits phase {phase} but its ProtocolInfo "
                f"phase row declares only "
                f"{', '.join(p for p in PHASES if p in declared)}",
            )
        for phase in sorted(declared - effective, key=PHASES.index):
            yield finding(
                record.path, record.node,
                f"{record.name} declares phase {phase} in its ProtocolInfo "
                f"but no code path emits it (self.phase/respond)",
            )


@rule("P304", "unknown-phase", scope="project")
def check_phase_literals(contexts) -> Iterator[Diagnostic]:
    """``self.phase(...)`` with an unrecognisable phase argument.

    The phase argument must be one of the RE/SC/EX/AC/END constants (or
    their string values) so the contract checker — and the reader — can
    see which row of the functional model the call implements.
    """
    for record in _protocols_in(contexts):
        _, _, opaque = _emitted_phases([record])
        for node, path, arg in opaque:
            if isinstance(arg, ast.Constant):
                detail = f"string {arg.value!r}"
            elif isinstance(arg, ast.Name):
                detail = f"name {arg.id!r}"
            else:
                detail = "a dynamic expression"
            yield finding(
                path, node,
                f"{record.name} calls self.phase with {detail}; expected "
                f"one of {', '.join(PHASES)}",
            )
