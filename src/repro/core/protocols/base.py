"""Shared machinery for all replication protocol implementations.

Each technique from the paper is a :class:`ReplicaProtocol` subclass
instantiated once per replica node.  The subclass declares a
:class:`ProtocolInfo` (its row in the paper's classification figures) and
implements ``handle_request``; everything else — client messaging, phase
tracing, local transaction execution — is provided here.

The techniques with a per-operation loop (Figures 12 and 13) implement
one set of transaction steps (``txn_begin``, ``txn_op``, ``txn_commit``,
``txn_abort``), and two drivers here run them: ``run_steps`` serves a
one-shot request inside one process, and the ``session.*`` handlers
serve an interactive session (Section 5), one client round trip a step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from ...db import TransactionManager, TransactionUpdates, UpdateRecord
from ...db.storage import DataStore
from ...errors import NodeCrashed, TransactionAborted
from ...net import Message
from ..operations import Operation, Request, apply_update
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseTracer
from ..sessions import ABORT as S_ABORT, BEGIN as S_BEGIN, COMMIT as S_COMMIT, OP as S_OP

if TYPE_CHECKING:  # pragma: no cover
    from ..spec import RunSpec
    from ..system import ReplicaNode

__all__ = [
    "ProtocolInfo",
    "ReplicaProtocol",
    "InjectingProtocol",
    "run_transaction",
    "apply_request_to_store",
    "optimistic_execute",
    "undecided_elsewhere",
    "CLIENT_REQUEST",
    "CLIENT_RESPONSE",
]

CLIENT_REQUEST = "client.request"
CLIENT_RESPONSE = "client.response"
STATE_PULL = "state.pull"
STATE_PUSH = "state.push"

# How long a restarted replica waits for one peer's state.
STATE_PULL_TIMEOUT = 60.0


@dataclass(frozen=True)
class ProtocolInfo:
    """One technique's coordinates in the paper's taxonomy.

    ``client_policy`` tells the client stub where requests go:
    ``"all"`` (address the group, Section 3), ``"primary"`` or ``"local"``
    (databases always contact one server, Section 4).  The classification
    coordinates (Figures 5, 6, 15 and 16) are derived from ``descriptor``
    and ``client_policy``, not declared.
    """

    name: str
    title: str
    figure: str
    community: str                      # "ds" | "db"
    descriptor: PhaseDescriptor
    txn_descriptor: Optional[PhaseDescriptor] = None
    client_policy: str = "local"        # "all" | "primary" | "local"
    # Primary-copy schemes let read-only transactions run at any site
    # ("Reading transactions can be performed on any site", Section 4.3);
    # when set, clients route read-only requests to their home replica and
    # ReplicaProtocol._on_client_request serves them there from the local
    # copy, so handle_request never sees one.
    reads_anywhere: bool = False

    @property
    def supports_sessions(self) -> bool:
        """Whether the technique serves interactive transaction sessions
        (Section 5's "operations not necessarily available for processing
        at the same time"): the protocols with a per-operation loop, which
        is what ``txn_descriptor`` declares."""
        return self.txn_descriptor is not None

    @property
    def consistency(self) -> str:
        """``"strong"`` when the Figure 15 rule holds, else ``"weak"``."""
        return "strong" if self.descriptor.satisfies_strong_consistency_rule else "weak"

    @property
    def propagation(self) -> Optional[str]:
        """Figure 6's first axis (db only): lazy techniques answer before AC."""
        if self.community != "db":
            return None
        return "lazy" if self.descriptor.responds_before_agreement else "eager"

    @property
    def update_location(self) -> Optional[str]:
        """Figure 6's second axis (db only): where updates are accepted."""
        if self.community != "db":
            return None
        return "primary" if self.client_policy == "primary" else "everywhere"

    @property
    def failure_transparent(self) -> bool:
        """Figure 5: the client addresses the whole group, so a crash is
        masked without the client noticing."""
        return self.client_policy == "all"

    @property
    def requires_determinism(self) -> bool:
        """Figure 5: without agreement coordination, every replica
        executes on its own, so execution must be deterministic."""
        return not self.descriptor.uses(AC)

    def descriptor_for(self, operation_count: int) -> PhaseDescriptor:
        if operation_count > 1 and self.txn_descriptor is not None:
            return self.txn_descriptor
        return self.descriptor


class ReplicaProtocol:
    """Base class for per-replica protocol instances.

    Subclasses receive the hosting :class:`ReplicaNode` (which carries the
    transaction manager, transport, detector and tracer), the replica
    group and the run's :class:`~repro.core.spec.RunSpec` (their options),
    and register any message handlers they need in ``__init__``.
    """

    info: ProtocolInfo

    # How long an in-flight request suppresses re-admission of a retry
    # with the same id.  Longer than a 2PC round under COORDINATION_TIMEOUT,
    # shorter than a client deadline budget: a stuck execution eventually
    # lets a retry through instead of swallowing it forever.
    _SERVING_TTL = 90.0

    def __init__(self, replica: "ReplicaNode", group: List[str], spec: "RunSpec") -> None:
        self.replica = replica
        self.group = list(group)
        # request_id -> admission time of the execution currently running
        # here.  Guards against a client retry re-entering handle_request
        # while the first execution is still in flight (which would start
        # a second transaction under the same id).  Volatile: cleared on
        # host crash.
        self._serving: Dict[str, float] = {}
        replica.node.on(CLIENT_REQUEST, self._on_client_request)
        replica.node.on(STATE_PULL, self._on_state_pull)
        replica.node.on(STATE_PUSH, self._on_state_push)
        if self.info.supports_sessions:
            # session id -> what txn_begin returned, while the session is open
            self._sessions: Dict[str, Any] = {}
            replica.node.on(S_BEGIN, self._on_session_begin)
            replica.node.on(S_OP, self._on_session_op)
            replica.node.on(S_COMMIT, self._on_session_commit)
            replica.node.on(S_ABORT, self._on_session_abort)

    # -- to implement ------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        """Process a client request arriving at this replica."""
        raise NotImplementedError

    # -- transaction steps (techniques with ``supports_sessions``) -----------

    # What a failing ``txn_op`` raises; each one aborts the transaction.
    txn_failures: Tuple[type, ...] = (TransactionAborted,)

    def txn_begin(self, tid: str) -> Tuple[Any, str]:
        """Open transaction ``tid``: ``(state, "")``, or ``(None, reason)``
        to refuse it.  ``state`` is handed to every later step."""
        raise NotImplementedError

    def txn_op(self, state: Any, tid: str, op: Operation) -> Generator:
        """Process step: run ``op`` and return its client-visible value."""
        raise NotImplementedError

    def txn_commit(self, state: Any, tid: str) -> Generator:
        """Process step: end the transaction; return ``(committed, reason)``."""
        raise NotImplementedError

    def txn_abort(self, state: Any, tid: str) -> None:
        """Roll the transaction back everywhere it ran."""
        raise NotImplementedError

    def run_steps(self, request: Request, client: str) -> Generator:
        """Process: a one-shot request as one transaction — begin, each
        operation, commit — answered through :meth:`respond`."""
        rid = request.request_id
        state, reason = self.txn_begin(rid)
        if state is None:
            self.respond(client, request, committed=False, reason=reason)
            return
        values: List[Any] = []
        try:
            for op in request.operations:
                values.append((yield from self.txn_op(state, rid, op)))
        except self.txn_failures as exc:
            self.txn_abort(state, rid)
            self.respond(client, request, committed=False, reason=str(exc))
            return
        committed, reason = yield from self.txn_commit(state, rid)
        self.respond(client, request, committed,
                     values=values if committed else None, reason=reason)

    # -- interactive sessions (Section 5): the client drives the steps -------

    def _on_session_begin(self, message: Message) -> None:
        sid = message["session"]
        state, reason = self.txn_begin(sid)
        if state is not None:
            self._sessions[sid] = state
            self.phase(sid, RE)
        self.replica.node.reply(message, ok=state is not None, reason=reason)

    def _on_session_op(self, message: Message) -> None:
        self.replica.node.spawn(
            self._session_op(message), name=f"session-op-{message['session']}"
        )

    def _session_op(self, message: Message) -> Generator:
        sid = message["session"]
        state = self._sessions.get(sid)
        value, reason = None, "no such session"
        if state is not None:
            op = Operation(message["kind"], message["item"],
                           argument=message["argument"], func=message["func"])
            try:
                value, reason = (yield from self.txn_op(state, sid, op)), ""
            except self.txn_failures as exc:
                reason = str(exc)
                self._abort_session(sid)
        self.replica.node.reply(message, ok=not reason, reason=reason, value=value)

    def _on_session_commit(self, message: Message) -> None:
        self.replica.node.spawn(
            self._session_commit(message),
            name=f"session-commit-{message['session']}",
        )

    def _session_commit(self, message: Message) -> Generator:
        sid = message["session"]
        state = self._sessions.pop(sid, None)
        committed = False
        if state is not None:
            committed, _reason = yield from self.txn_commit(state, sid)
            self.phase(sid, END)
        self.replica.node.reply(message, committed=committed)

    def _on_session_abort(self, message: Message) -> None:
        self._abort_session(message["session"])
        self.replica.node.reply(message, ok=True)

    def _abort_session(self, sid: str) -> None:
        """Close session ``sid`` and roll its transaction back, unless it
        is already closed."""
        state = self._sessions.pop(sid, None)
        if state is not None:
            self.txn_abort(state, sid)

    # -- common helpers -------------------------------------------------------

    def _on_client_request(self, message: Message) -> None:
        request = message["request"]
        # Duplicate-reply cache: a request this replica already committed
        # (same request id — a client retry or a duplicated packet) is
        # answered from the cache, never re-executed.  This is what keeps
        # counters exact under retry storms: at-least-once delivery plus
        # server-side dedup is exactly-once execution.
        cached = self.replica.cached_reply(request.request_id)
        if cached is not None:
            self.respond(message.src, request, committed=True, values=cached)
            return
        # Deadline budget: if the client has already given up on this
        # envelope there is no point acquiring locks or running a
        # coordination round for it — shed it with an explicit abort (the
        # reply costs one message and is dropped if the client is gone).
        if message.deadline is not None and self.sim.now > message.deadline:
            self.respond(message.src, request, committed=False,
                         reason="deadline exceeded")
            return
        started = self._serving.get(request.request_id)
        if started is not None and self.sim.now - started < self._SERVING_TTL:
            # Already executing here: the in-flight run will respond (the
            # client matches replies by request id, not by attempt).
            return
        if self.busy_elsewhere(request):
            # Another replica's execution of this request is in flight and
            # its outcome is unknown here (e.g. a buffered 2PC workspace
            # from a delegate that since crashed).  Starting a second,
            # independent execution could double-apply; stay silent — the
            # client's next retry lands after the decision has resolved,
            # hitting either the duplicate-reply cache or a clean slate.
            return
        self._serving[request.request_id] = self.sim.now
        self.phase(request.request_id, RE)
        if request.read_only and self.info.reads_anywhere:
            # "Reading transactions can be performed on any site" (Section
            # 4.3): served from this replica's copy, possibly stale.
            self.phase(request.request_id, EX, self.info.descriptor.mechanism_of(EX))
            values = [self.store.read(op.item) for op in request.operations]
            self.respond(message.src, request, committed=True, values=values)
            return
        self.handle_request(request, message.src)

    def respond(
        self,
        client: str,
        request: Request,
        committed: bool,
        values: Optional[Sequence[Any]] = None,
        reason: str = "",
    ) -> None:
        """Send the END-phase response back to the client.

        Committed replies are remembered in the hosting replica's
        duplicate-reply cache keyed by the request id, so a retried
        request is answered without re-execution.
        """
        values = list(values) if values else []  # the one copy: the wire's
        if committed:
            self.replica.remember_reply(request.request_id, values)
        self._serving.pop(request.request_id, None)
        self.phase(request.request_id, END)
        self.replica.node.send(
            client,
            CLIENT_RESPONSE,
            request_id=request.request_id,
            committed=committed,
            values=values,
            reason=reason,
            server=self.replica.name,
        )

    def phase(self, request_id: object, phase: str, mechanism: str = "") -> None:
        """Report a phase transition to the system-wide tracer."""
        self.replica.tracer.record(self.replica.name, request_id, phase, mechanism)

    @property
    def sim(self):
        return self.replica.node.sim

    @property
    def tm(self) -> TransactionManager:
        return self.replica.tm

    @property
    def store(self) -> DataStore:
        return self.replica.tm.store

    @property
    def rng(self) -> random.Random:
        return self.replica.rng

    def peers(self) -> List[str]:
        return [name for name in self.group if name != self.replica.name]

    # -- state transfer: the store's digest() rows and the reply cache ---------

    def catch_up(self, peers: Sequence[str]) -> Generator:
        """Process: pull each of ``peers``' state in turn, skipping this
        replica and the peers suspected at that turn (a pull may wait out
        its timeout, so a snapshot of ``trusted`` would go stale), and
        install whatever is newer.  An unreachable peer leaves this
        replica as stale as it was; anything else that goes wrong is a bug
        and surfaces."""
        for peer in peers:
            if peer == self.replica.name or self.replica.detector.is_suspected(peer):
                continue
            try:
                reply = yield self.replica.node.call(
                    peer, STATE_PULL, timeout=STATE_PULL_TIMEOUT
                )
            except (TimeoutError, NodeCrashed):
                continue
            self._install_state(reply)

    def push_state(self, peer: str) -> None:
        """Send this replica's state to ``peer`` unasked."""
        self.replica.node.send(peer, STATE_PUSH, state=self.store.digest(),
                               replies=tuple(self.replica.reply_cache.items()))

    def _on_state_pull(self, message: Message) -> None:
        self.replica.node.reply(message, state=self.store.digest(),
                                replies=tuple(self.replica.reply_cache.items()))

    def _on_state_push(self, message: Message) -> None:
        self._install_state(message)

    def _install_state(self, message: Message) -> None:
        """Merge a peer's rows (the newer version wins) and its committed
        replies (this replica's own entry wins): a retry of a request the
        peer committed is answered from the cache here, not re-executed."""
        self.store.install(message["state"])
        for rid, values in message["replies"]:
            self.replica.remember_reply(rid, values)

    def busy_elsewhere(self, request: Request) -> bool:
        """Is another replica's execution of ``request`` in flight here?

        Protocols with cross-replica execution state (2PC workspaces)
        override this so a retried request is not re-admitted while the
        first execution's outcome is still undecided at this site.
        """
        return False

    def on_crash(self) -> None:
        """Hook: the hosting replica crashed (volatile state is gone)."""

    def on_recover(self) -> None:
        """Hook: the hosting replica restarted."""


class InjectingProtocol(ReplicaProtocol):
    """Active and semi-active: client requests, sent to every replica, are
    ordered through ``self.abcast``, which the subclass builds.  The lowest
    unsuspected replica injects them; the others arm a fallback, and the
    subclass has ``_inject_all_pending`` run on every suspicion.

    Fallbacks fall due in arrival order, so a replica keeps them in one
    :class:`~repro.net.DueQueue`, not one timer per request."""

    # How long a non-injector waits before injecting a client request
    # itself.
    INJECT_FALLBACK = 30.0

    def __init__(self, replica: "ReplicaNode", group: List[str], spec: "RunSpec") -> None:
        super().__init__(replica, group, spec)
        self._awaiting_order: Dict[str, tuple] = {}  # rid -> (request, client)
        self._fallbacks = replica.node.due_queue(
            InjectingProtocol.INJECT_FALLBACK, self._awaiting_order.__contains__
        )

    def handle_request(self, request: Request, client: str) -> None:
        self._await_order(request, client)

    def _await_order(self, request: Request, client: str) -> None:
        rid = request.request_id
        if rid in self._awaiting_order:
            return
        self._awaiting_order[rid] = (request, client)
        if self._am_injector():
            self._inject(rid)
            return
        self._fallbacks.defer(rid, self._inject)

    def _am_injector(self) -> bool:
        return self.replica.detector.trusted(self.group)[0] == self.replica.name

    def _inject_if_pending(self, rid: str) -> None:
        if rid in self._awaiting_order:
            self._inject(rid)

    def _inject_all_pending(self) -> None:
        if not self._am_injector():
            return
        for rid in list(self._awaiting_order):
            self._inject_if_pending(rid)

    def _inject(self, rid: str) -> None:
        request, client = self._awaiting_order[rid]
        self.abcast.abcast("request", request=request, client=client)


def undecided_elsewhere(workspaces: Iterable[str], request_id: str, site: str) -> bool:
    """Is a 2PC workspace over ``request_id`` buffered here for a site
    other than ``site``?  Its round is prepared but undecided here, so
    re-admitting a retry of the request could double-apply it."""
    own_suffix = f"@{site}"
    return any(
        txn.rsplit("@", 1)[0] == request_id and not txn.endswith(own_suffix)
        for txn in workspaces
    )


# ---------------------------------------------------------------------------
# Execution engines shared by the protocols
# ---------------------------------------------------------------------------

def run_transaction(
    tm: TransactionManager,
    request: Request,
    rng: random.Random,
    txn_id: Optional[object] = None,
) -> Generator:
    """Execute a request as a local strict-2PL transaction (sim process).

    Returns ``(values, updates)`` on commit; raises
    :class:`TransactionAborted` (after rolling back) on deadlock or lock
    timeout.  ``values`` holds one entry per operation: the value read, the
    new value for updates, None for blind writes.
    """
    txn = tm.begin(txn_id)
    values: List[Any] = []
    try:
        for op in request.operations:
            if op.kind == "read":
                values.append((yield txn.read(op.item)))
            elif op.kind == "write":
                yield txn.write(op.item, op.argument)
                values.append(None)
            else:
                current = yield txn.read(op.item)
                new_value = apply_update(op.func, current, op.argument, rng)
                yield txn.write(op.item, new_value)
                values.append(new_value)
        updates = txn.commit()
    except TransactionAborted:
        txn.abort("execution failed")
        raise
    return values, updates


def apply_request_to_store(
    store: DataStore, request: Request, rng: random.Random
) -> Tuple[List[Any], TransactionUpdates]:
    """State-machine execution: apply a request directly to the store.

    Used where the protocol has already serialised requests (active
    replication executes in ABCAST delivery order, one at a time), so no
    locking is necessary.  Returns ``(values, updates)``.
    """
    values: List[Any] = []
    records: List[UpdateRecord] = []
    for op in request.operations:
        if op.kind == "read":
            values.append(store.read(op.item))
        elif op.kind == "write":
            version = store.write(op.item, op.argument)
            records.append(UpdateRecord(op.item, op.argument, version))
            values.append(None)
        else:
            new_value = apply_update(op.func, store.read(op.item), op.argument, rng)
            version = store.write(op.item, new_value)
            records.append(UpdateRecord(op.item, new_value, version))
            values.append(new_value)
    return values, TransactionUpdates(request.request_id, tuple(records))


def optimistic_execute(
    store: DataStore, request: Request, rng: random.Random
) -> Tuple[List[Any], Dict[str, int], List[UpdateRecord], Dict[str, int]]:
    """Shadow-copy execution for certification-based replication.

    Reads the committed store without taking locks, recording the version
    of everything read; buffers writes without applying them.  Returns
    ``(values, readset, writeset, base_versions)`` — the material that is
    atomically broadcast for certification (Section 5.4.2).
    ``base_versions`` records, per written item, the committed version the
    write was computed against (the input of first-committer-wins
    validation).
    """
    values: List[Any] = []
    readset: Dict[str, int] = {}
    shadow: Dict[str, Any] = {}
    writeset: List[UpdateRecord] = []
    base_versions: Dict[str, int] = {}

    def read(item: str) -> Any:
        if item in shadow:
            return shadow[item]
        readset.setdefault(item, store.version(item))
        return store.read(item)

    def write(item: str, value: Any) -> None:
        base_versions.setdefault(item, store.version(item))
        shadow[item] = value

    for op in request.operations:
        if op.kind == "read":
            values.append(read(op.item))
        elif op.kind == "write":
            write(op.item, op.argument)
            values.append(None)
        else:
            new_value = apply_update(op.func, read(op.item), op.argument, rng)
            write(op.item, new_value)
            values.append(new_value)
    for item, value in shadow.items():
        writeset.append(UpdateRecord(item, value, 0))
    return values, readset, writeset, base_versions
