"""Eager primary copy replication (Section 4.3 / Figure 7; Section 5.2 /
Figure 12 for multi-operation transactions).

The database hot-standby scheme: "an update operation is first performed
at a primary master copy and then propagated from this master copy to the
secondary copies.  When the primary has the confirmation that the
secondary copies have performed the update, it commits and returns a
notification to the user."

Mechanics:

* Clients send update transactions to the primary (reads may go to any
  site — "Reading transactions can be performed on any site", served
  locally by every replica).
* **No Server Coordination phase** — the primary orders everything.
* EX at the primary through its strict-2PL transaction manager;
  after each operation the resulting after-images are propagated to the
  secondaries which buffer them in a per-transaction workspace (the
  Execution/Agreement loop of Figure 12 — for single-operation
  transactions this collapses to Figure 7's single round).
* Final AC: a **two-phase commit**.  Secondaries vote, and on commit
  install the buffered workspace atomically.  Per Section 4.3, 2PC rather
  than VSCAST suffices because a primary failure simply aborts all its
  active transactions.
* END strictly after 2PC — this is the *eager* variant; the response
  never precedes agreement.

Failover: the replicas' failure detectors watch the primary; when it is
suspected, the lowest live secondary appoints itself (modelling the
paper's "human operator can reconfigure the system so that the back-up is
the new primary"), updates the directory, resolves in-doubt 2PC
transactions cooperatively (commit if any peer saw commit, else abort) and
takes over.  Clients notice the failure (timeout) and re-submit — database
failover is explicitly *not* transparent.
"""

from __future__ import annotations

from typing import Dict, List

from ...db import TwoPhaseCoordinator, TwoPhaseParticipant
from ...db.transactions import ACTIVE
from ...errors import TransactionAborted
from ...net import Message
from ..operations import Operation, Request, apply_update
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, undecided_elsewhere

__all__ = ["EagerPrimaryCopy"]

OP_APPLY = "ep.op_apply"
QUERY_INDOUBT = "ep.indoubt_query"


class EagerPrimaryCopy(ReplicaProtocol):
    """Per-replica endpoint of eager primary copy (hot standby)."""

    info = ProtocolInfo(
        name="eager_primary",
        title="Eager primary copy",
        figure="Figure 7 / Figure 12",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX),
                PhaseStep(AC, "2pc"),
                PhaseStep(END),
            ),
        ),
        txn_descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX),
                PhaseStep(AC, "propagation"),
                PhaseStep(AC, "2pc"),
                PhaseStep(END),
            ),
            loop=(1, 2),
        ),
        client_policy="primary",
        reads_anywhere=True,
        supports_sessions=True,
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.coordinator = TwoPhaseCoordinator(replica.node, trace=replica.system.trace)
        self.participant = TwoPhaseParticipant(
            replica.node, self._on_prepare, self._on_decision
        )
        self._workspaces: Dict[str, List[tuple]] = {}
        self._decided: Dict[str, bool] = {}
        replica.node.on(OP_APPLY, self._on_op_apply)
        replica.node.on(QUERY_INDOUBT, self._on_indoubt_query)
        replica.detector.on_suspect(self._on_suspect)
        replica.detector.on_restore(self._on_peer_restored)

    # -- role ------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.replica.system.directory.primary == self.replica.name

    def _live_peers(self) -> List[str]:
        return [
            name for name in self.peers()
            if not self.replica.detector.is_suspected(name)
        ]

    # -- request path ---------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        if request.read_only:
            # Reads are local at any site (possibly returning data that is
            # current as of the last installed update).
            self.phase(request.request_id, EX)
            values = [self.store.read(op.item) for op in request.operations]
            self.respond(client, request, committed=True, values=values)
            return
        self.replica.node.spawn(
            self.run_steps(request, client), name=f"ep-{request.request_id}"
        )

    def _not_primary(self) -> str:
        return f"not primary (primary is {self.replica.system.directory.primary})"

    # -- transaction steps: Figure 12 --------------------------------------------

    def txn_begin(self, tid: str):
        # The commit step re-fences this check at its 2PC boundary; the
        # only unfenced effect after it is the abort-path failure reply,
        # which exercises no primary authority.
        if not self.is_primary:  # repro: noqa R602
            return None, self._not_primary()
        return (self.tm.begin(f"{tid}@primary"), self._live_peers()), ""

    def txn_op(self, state, tid: str, op: Operation):
        """One EX/AC round of Figure 12: run ``op`` at the primary, then
        propagate its after-image to the secondaries' workspaces."""
        txn, secondaries = state
        self.phase(tid, EX)
        if op.kind == "read":
            return (yield txn.read(op.item))
        if op.kind == "write":
            new_value = op.argument
        else:
            current = yield txn.read(op.item)
            new_value = apply_update(op.func, current, op.argument, self.rng)
        yield txn.write(op.item, new_value)
        if txn.status != ACTIVE:
            # A session abort rolled the transaction back while the write
            # waited: propagate nothing.
            raise TransactionAborted(tid, "session closed")
        self.phase(tid, AC, "propagation")
        for secondary in secondaries:
            self.replica.node.send(
                secondary, OP_APPLY, txn=tid, item=op.item, value=new_value
            )
        return None if op.kind == "write" else new_value

    def txn_commit(self, state, tid: str):
        """Final Agreement Coordination: two-phase commit."""
        txn, secondaries = state
        # A primary that was deposed while executing (false suspicion
        # flipped the directory) must not start the round.  Secondaries
        # would fence its prepares, but with none left alive it would
        # commit alone; aborting here also releases locks sooner and
        # gives the client a retryable routing miss.
        if not self.is_primary:
            self.txn_abort(state, tid)
            return False, self._not_primary()
        self.phase(tid, AC, "2pc")
        committed = yield self.coordinator.run(tid, secondaries, local_vote=True)
        if committed:
            txn.commit()
        else:
            txn.abort()
        self._decided[tid] = committed
        return committed, "" if committed else "2pc abort"

    def txn_abort(self, state, tid: str) -> None:
        txn, secondaries = state
        txn.abort()
        for secondary in secondaries:
            self.replica.node.send(secondary, "2pc.decision", txn=tid, commit=False)

    # -- secondary side -----------------------------------------------------------

    def _on_op_apply(self, message: Message) -> None:
        self._workspaces.setdefault(message["txn"], []).append(
            (message["item"], message["value"])
        )

    def _on_prepare(self, txn_id: str, coordinator: str) -> bool:
        # A secondary can vote yes iff it holds the transaction workspace
        # AND the coordinator is still the directory's primary.  The fence
        # matters when a false suspicion promotes a new primary while the
        # old one is alive and mid-round: without it, both primaries can
        # commit the same retried request through disjoint participant
        # sets, double-applying it.  The deposed coordinator's round must
        # die; the client's retry lands at the new primary.
        if coordinator != self.replica.system.directory.primary:
            return False
        return txn_id in self._workspaces

    def busy_elsewhere(self, request: Request) -> bool:
        return undecided_elsewhere(self._workspaces, request.request_id, self.replica.name)

    def _on_decision(self, txn_id: str, commit: bool) -> None:
        self._decided[txn_id] = commit
        workspace = self._workspaces.pop(txn_id, None)
        if commit and workspace:
            self.phase(txn_id, AC, "2pc")
            for item, value in workspace:
                self.store.write(item, value)
            # Secondaries remember the commit under the request id (the
            # default idempotency key): if this secondary is promoted and
            # the client retries the same request, it is answered from the
            # cache instead of re-executed on the new primary.
            self.replica.remember_reply(txn_id.rsplit("@", 1)[0], [])

    # -- failover ---------------------------------------------------------------------

    def _on_suspect(self, peer: str) -> None:
        directory = self.replica.system.directory
        if peer != directory.primary:
            return
        live = [
            name for name in self.group
            if name == self.replica.name or not self.replica.detector.is_suspected(name)
        ]
        if live and live[0] == self.replica.name:
            directory.set_primary(self.replica.name)
        self.replica.node.spawn(self._terminate_in_doubt(), name="ep-termination")

    def _terminate_in_doubt(self):
        """Cooperative termination for transactions stranded by the crash."""
        for txn_id in list(self.participant.in_doubt):
            commit = False
            for peer in self._live_peers():
                try:
                    reply = yield self.replica.node.call(
                        peer, QUERY_INDOUBT, timeout=30.0, txn=txn_id
                    )
                except Exception:  # noqa: BLE001 - peer down; try the next one
                    continue
                if reply["known"]:
                    commit = reply["commit"]
                    break
            self.participant.in_doubt.pop(txn_id, None)
            self._on_decision(txn_id, commit)

    def _on_indoubt_query(self, message: Message) -> None:
        txn_id = message["txn"]
        known = txn_id in self._decided
        self.replica.node.reply(
            message, known=known, commit=self._decided.get(txn_id, False)
        )

    # -- recovery -----------------------------------------------------------------

    def on_recover(self) -> None:
        """Catch up with the current primary after a restart.

        The recovering node kept its durable store but missed every
        transaction committed while it was down (and any in-flight
        workspace died with its volatile state).  It pulls the current
        primary's state and installs everything newer than its own copies
        — the hot-standby resynchronisation step that precedes rejoining
        the 2PC participant set.

        Open sessions are volatile too: the crash aborted their
        transactions, so they are aborted at the secondaries as well, and
        a later commit answers False instead of committing there alone.
        """
        self._workspaces.clear()
        for sid in list(self._sessions):
            self._abort_session(sid)
        self.replica.node.spawn(
            self.catch_up([self.replica.system.directory.primary]),
            name=f"{self.replica.name}-resync",
        )

    def _on_peer_restored(self, peer: str) -> None:
        """Primary-side rejoin: push state when a suspected peer proves alive.

        Closes the race the pull-at-recovery path leaves open: any commit
        performed while the peer was excluded from the participant set
        happened before this restore event, so the pushed state contains
        it; later commits include the peer in the 2PC again.
        """
        if self.is_primary:
            self.push_state(peer)
