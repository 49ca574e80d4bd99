"""Eager update everywhere with distributed locking (Section 4.4.1 /
Figure 8; Section 5.4.1 / Figure 13 for multi-operation transactions).

"When using distributed locking, a replica can only be accessed after it
has been locked at all sites" — the Server Coordination phase *is* the
distributed lock acquisition, the Agreement Coordination phase is a 2PC.

Mechanics:

* The client submits to its local replica (the *delegate*), which drives
  the whole protocol — clients never talk to more than one server
  (Section 4.1).
* Per operation (the SC/EX loop of Figure 13):
  - writes: the delegate requests a write lock at **every** replica
    (read-one/write-all; Section 5.4.1 notes quorums are orthogonal) and
    waits for all grants (SC).  It then computes the after-image locally
    and ships it; every site buffers it in the transaction's workspace
    (EX at all sites).
  - reads: performed locally under a local read lock (ROWA — "read
    operations are local").
* Final AC: 2PC across all replicas; commit installs every site's
  workspace and releases its locks.
* END strictly after the 2PC.

Distributed deadlocks — two delegates locking the same items from
different sites — are invisible to any single site's wait-for graph; they
are broken by **lock-wait timeouts** (each remote lock request carries
one), aborting the younger transaction system-wide.  The abort-rate
benchmark measures how quickly this degrades under contention compared
with certification.
"""

from __future__ import annotations

from typing import Dict, List

from ...db import READ, WRITE, TwoPhaseCoordinator, TwoPhaseParticipant
from ...errors import NodeCrashed, TransactionAborted
from ...net import Message
from ..operations import Operation, Request, apply_update
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, undecided_elsewhere

__all__ = ["EagerUpdateEverywhereLocking"]

LOCK = "ueld.lock"
BUFFER = "ueld.buffer"
CATCHUP = "ueld.catchup"
RESTARTED = "ueld.restarted"


class EagerUpdateEverywhereLocking(ReplicaProtocol):
    """Per-replica endpoint of eager update everywhere via 2PL + 2PC."""

    info = ProtocolInfo(
        name="eager_ue_locking",
        title="Eager update everywhere, distributed locking",
        figure="Figure 8 / Figure 13",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(SC, "locks"),
                PhaseStep(EX),
                PhaseStep(AC, "2pc"),
                PhaseStep(END),
            ),
        ),
        txn_descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(SC, "locks"),
                PhaseStep(EX),
                PhaseStep(AC, "2pc"),
                PhaseStep(END),
            ),
            loop=(1, 2),
        ),
        client_policy="local",
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.lock_timeout = float(spec.lock_timeout)
        self.write_quorum = spec.write_quorum
        if self.write_quorum is not None:
            if not len(group) // 2 < self.write_quorum <= len(group):
                raise ValueError(
                    f"write_quorum must be in ({len(group) // 2}, {len(group)}]"
                )
        self.coordinator = TwoPhaseCoordinator(replica.node, trace=replica.system.trace)
        self.participant = TwoPhaseParticipant(
            replica.node, self._on_prepare, self._on_decision
        )
        self._workspaces: Dict[str, List[tuple]] = {}
        replica.node.on(LOCK, self._on_lock_request)
        replica.node.on(BUFFER, self._on_buffer)
        replica.node.on(CATCHUP, self._on_catchup)
        replica.detector.on_suspect(self._release_delegate)
        replica.transport.on(RESTARTED, self._on_peer_restarted)

    # -- delegate side ------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        if request.read_only:
            self.replica.node.spawn(
                self._execute_read_only(request, client),
                name=f"ueld-ro-{request.request_id}",
            )
            return
        self.replica.node.spawn(
            self.run_steps(request, client), name=f"ueld-{request.request_id}"
        )

    def _execute_read_only(self, request: Request, client: str):
        """Reads: local under ROWA, quorum reads under weighted voting."""
        rid = request.request_id
        txn_id = f"{rid}@{self.replica.name}"
        self.phase(rid, EX)
        values = []
        try:
            for op in request.operations:
                if self.write_quorum is None:
                    yield self.tm.locks.acquire(
                        txn_id, op.item, READ, timeout=self.lock_timeout
                    )
                    values.append(self.store.read(op.item))
                else:
                    _version, value = yield from self._quorum_read(txn_id, op.item)
                    values.append(value)
        except (TransactionAborted, TimeoutError, NodeCrashed) as exc:
            self._release_everywhere(txn_id)
            self.respond(client, request, committed=False, reason=str(exc))
            return
        self._release_everywhere(txn_id)
        self.respond(client, request, committed=True, values=values)

    def _write_quorum_size(self) -> int:
        """Sites a write must lock: configured quorum, or all-live with a
        majority floor.

        Plain ROWA ("write all live") degrades to quorum-of-one under a
        partition — both sides commit independently and one side's updates
        are silently overwritten after the heal.  Flooring the dynamic
        quorum at a majority of the *full* group keeps any two write
        quorums intersecting: a minority side aborts with "quorum
        unreachable" (a definitive, retryable outcome) instead of
        split-brain committing.
        """
        if self.write_quorum is not None:
            return self.write_quorum
        n_live = len(self.replica.detector.trusted(self.group))
        return max(n_live, len(self.group) // 2 + 1)

    def busy_elsewhere(self, request: Request) -> bool:
        return undecided_elsewhere(self._workspaces, request.request_id, self.replica.name)

    def _quorum_sites(self, count: int) -> List[str]:
        """``count`` sites starting at this replica, skipping suspected ones."""
        ring = self.group[self.group.index(self.replica.name):] + \
            self.group[:self.group.index(self.replica.name)]
        live = self.replica.detector.trusted(ring)
        if len(live) < count:
            raise TransactionAborted(self.replica.name, "quorum unreachable")
        return live[:count]

    def _quorum_read(self, txn_id: str, item: str):
        """Read-lock R sites; return the highest-versioned (version, value)."""
        read_quorum = len(self.group) - (self.write_quorum or len(self.group)) + 1
        sites = self._quorum_sites(read_quorum)
        # Same fixed global acquisition order as writes (see txn_op):
        # read and write quorums intersect, so an unordered read could
        # form the second edge of a distributed deadlock cycle just as
        # easily.
        replies = []
        for site in sorted(sites):
            reply = yield self.replica.node.call(
                site, LOCK, timeout=self.lock_timeout + 20.0,
                txn=txn_id, item=item, mode=READ, lock_timeout=self.lock_timeout,
            )
            if not reply["granted"]:
                raise TransactionAborted(txn_id, "read quorum denied")
            replies.append(reply)
        best = max(replies, key=lambda r: (r["version"], r["site"]))
        return best["version"], best["value"]

    # -- transaction steps: Figure 13 --------------------------------------------

    # A lock call to a crashed or silent site fails the operation too.
    txn_failures = (TransactionAborted, TimeoutError, NodeCrashed)

    def txn_begin(self, tid: str):
        try:
            quorum = self._quorum_sites(self._write_quorum_size())
        except TransactionAborted as exc:
            return None, str(exc)
        return (f"{tid}@{self.replica.name}", quorum), ""

    def txn_op(self, state, tid: str, op: Operation):
        """One SC/EX round of Figure 13: lock, compute, buffer at the quorum.

        Generator; returns the operation's client-visible value (None for
        blind writes).  Raises :class:`TransactionAborted` on lock denial.
        """
        txn_id, quorum = state
        if op.kind == "read":
            self.phase(tid, SC, "locks")
            if self.write_quorum is None:
                yield self.tm.locks.acquire(
                    txn_id, op.item, READ, timeout=self.lock_timeout
                )
                self.phase(tid, EX)
                return self._workspace_read(txn_id, op.item)[1]
            workspace = self._workspace_lookup(txn_id, op.item)
            if workspace is None:
                _v, value = yield from self._quorum_read(txn_id, op.item)
            else:
                value = workspace[1]
            self.phase(tid, EX)
            return value
        # SC: write lock at the whole write quorum — acquired sequentially
        # in a fixed global site order.  Parallel acquisition in ring
        # order starting at the delegate (r0 locks r0,r1,r2 while r1
        # locks r1,r2,r0) makes two delegates contending for one item
        # deadlock *every* time, and timeout resolution aborts both, so
        # under sustained retry load they livelock indefinitely.  With a
        # total order the first site arbitrates: the loser waits there
        # holding nothing else, and the winner's round runs unobstructed.
        self.phase(tid, SC, "locks")
        replies = []
        for site in sorted(quorum):
            reply = yield self.replica.node.call(
                site, LOCK, timeout=self.lock_timeout + 20.0,
                txn=txn_id, item=op.item, mode=WRITE,
                lock_timeout=self.lock_timeout,
            )
            if not reply["granted"]:
                raise TransactionAborted(txn_id, "remote lock denied")
            replies.append(reply)
        # EX: compute the after-image once, install it at the quorum.
        # The current value/version come from the transaction's own
        # workspace or from the highest-versioned quorum copy (the
        # write quorum intersects every earlier write quorum).
        self.phase(tid, EX)
        workspace = self._workspace_lookup(txn_id, op.item)
        if workspace is not None:
            current_version, current = workspace
        else:
            best = max(replies, key=lambda r: (r["version"], r["site"]))
            current_version, current = best["version"], best["value"]
        if op.kind == "write":
            new_value = op.argument
        else:
            new_value = apply_update(op.func, current, op.argument, self.rng)
        new_version = current_version + 1
        for site in quorum:
            self.replica.node.send(
                site, BUFFER, txn=txn_id, item=op.item,
                value=new_value, version=new_version,
            )
        return None if op.kind == "write" else new_value

    def txn_commit(self, state, tid: str):
        txn_id, quorum = state
        # AC: two-phase commit across the quorum (this site included; it
        # participates through its local workspace/locks like the others).
        self.phase(tid, AC, "2pc")
        committed = yield self.coordinator.run(
            txn_id, [n for n in quorum if n != self.replica.name], local_vote=True
        )
        workspace = list(self._workspaces.get(txn_id, []))
        self._on_decision(txn_id, committed)
        if not committed:
            return False, "2pc abort"
        self._propagate_to_excluded(txn_id, quorum, workspace)
        return True, ""

    def txn_abort(self, state, tid: str) -> None:
        txn_id, quorum = state
        for site in quorum:
            if site != self.replica.name:
                self.replica.node.send(site, "2pc.decision", txn=txn_id, commit=False)
        self._on_decision(txn_id, False)

    def _workspace_lookup(self, txn_id: str, item: str):
        for buffered_item, value, version in reversed(self._workspaces.get(txn_id, [])):
            if buffered_item == item:
                return version, value
        return None

    def _workspace_read(self, txn_id: str, item: str):
        """(version, value) from the workspace, falling back to the store."""
        workspace = self._workspace_lookup(txn_id, item)
        if workspace is not None:
            return workspace
        return self.store.version(item), self.store.read(item)

    def _release_everywhere(self, txn_id: str) -> None:
        self.tm.locks.release_all(txn_id)
        if self.write_quorum is not None:
            for site in self.peers():
                self.replica.node.send(site, "2pc.decision", txn=txn_id, commit=False)

    # -- participant side ---------------------------------------------------------

    def _on_lock_request(self, message: Message) -> None:
        self.replica.node.spawn(
            self._grant_lock(message), name=f"ueld-lock-{message['txn']}"
        )

    def _grant_lock(self, message: Message):
        item = message["item"]
        try:
            yield self.tm.locks.acquire(
                message["txn"], item, message["mode"],
                timeout=message["lock_timeout"],
            )
        except TransactionAborted as exc:
            self.replica.node.reply(message, granted=False, reason=str(exc))
            return
        # Piggyback this copy's version and value: the delegate derives the
        # current state from the highest-versioned quorum member.
        self.replica.node.reply(
            message, granted=True, site=self.replica.name,
            version=self.store.version(item), value=self.store.read(item),
        )

    def _propagate_to_excluded(self, txn_id: str, quorum, workspace) -> None:
        """Best-effort after-image propagation to non-quorum group members.

        The majority floor (see :meth:`_write_quorum_size`) means a
        commit's synchronous quorum may exclude live sites — typically a
        replica that just recovered but is still suspected by the
        delegate.  Shipping the committed after-images to the excluded
        members keeps them converging instead of silently diverging until
        the next full-group write.  Versioned installs make this
        idempotent and safe to lose (a crashed member re-pulls on
        recovery).

        Only the dynamic ROWA mode repairs exclusions: under an explicit
        ``write_quorum`` (weighted voting), touching exactly W sites is
        the design — readers pay for the staleness with R-site reads —
        not a degradation to patch up.
        """
        if self.write_quorum is not None or not workspace:
            return
        excluded = [
            site for site in self.group
            if site != self.replica.name and site not in quorum
        ]
        for site in excluded:
            self.replica.node.send(site, CATCHUP, txn=txn_id, state=workspace)

    def _on_catchup(self, message: Message) -> None:
        self.store.install(message["state"])
        # The catch-up carries a committed transaction: remember it under
        # its request id so a client retry re-homed here is deduplicated.
        self.replica.remember_reply(message["txn"].rsplit("@", 1)[0], [])

    def _on_buffer(self, message: Message) -> None:
        self._workspaces.setdefault(message["txn"], []).append(
            (message["item"], message["value"], message["version"])
        )

    def _on_prepare(self, txn_id: str, coordinator: str) -> bool:
        # Update everywhere has no primacy to fence on; any delegate may
        # coordinate.  Vote yes iff this site buffered the workspace.
        return txn_id in self._workspaces

    # -- failure handling ---------------------------------------------------------

    def _release_delegate(self, peer: str) -> None:
        """Abort a suspected or restarted delegate's *unprepared*
        transactions locally.

        A delegate that crashes mid-round can never send its abort
        decisions, so the locks it was granted here would wedge this copy
        of every item it touched forever (and with ordered acquisition,
        one wedged first-site lock stalls the whole group).  Releasing on
        suspicion is safe even when the suspicion is false: dropping the
        workspace means this site votes NO on any later PREPARE for the
        transaction, so the live delegate's round aborts instead of
        committing over state it no longer locks.  Transactions that
        already *prepared* here stay blocked — that is 2PC's documented
        blocking behaviour, repaired by the termination protocol once the
        coordinator's journal is reachable again.

        A delegate that restarts before anyone suspects it says so itself
        (:meth:`_on_peer_restarted`): its transactions died with it just
        the same.
        """
        suffix = f"@{peer}"
        candidates = set(self._workspaces) | self.tm.locks.holding_transactions()
        for txn_id in sorted(candidates, key=str):
            if not isinstance(txn_id, str) or not txn_id.endswith(suffix):
                continue
            if self.participant.blocked_for(txn_id) is not None:
                continue
            self._workspaces.pop(txn_id, None)
            self.tm.locks.release_all(txn_id)

    def _on_peer_restarted(self, peer: str, payload: dict) -> None:
        self._release_delegate(peer)

    # -- recovery -----------------------------------------------------------------

    def on_recover(self) -> None:
        """Catch up after a restart.

        Volatile state (workspaces, sessions) died with the node.  The
        store survived, but the surviving majority kept committing while
        this site was suspected — its write quorums simply stopped
        including us — so the local copies may be arbitrarily stale.  Pull
        every live peer's store and install whatever is newer (versions
        make the merge idempotent) before serving delegates again.

        Every peer is told of the restart over the reliable transport, so
        that a lost notice cannot leave the locks this site's dead
        transactions hold there in place for ever.
        """
        self._workspaces.clear()
        self._sessions.clear()
        for peer in self.peers():
            self.replica.transport.send(peer, RESTARTED)
        self.replica.node.spawn(
            self.catch_up(self.peers()), name=f"{self.replica.name}-resync"
        )

    def _on_decision(self, txn_id: str, commit: bool) -> None:
        workspace = self._workspaces.pop(txn_id, None)
        if commit and workspace:
            if not txn_id.endswith(f"@{self.replica.name}"):
                # Non-delegate sites record their AC participation; the
                # delegate already recorded AC when it started the 2PC.
                self.phase(txn_id.split("@")[0], AC, "2pc")
                # And remember the commit under the request id (default
                # idempotency key) so a retry re-homed to this site after
                # the delegate crashed is deduplicated, not re-executed.
                # The delegate itself caches real values via respond().
                self.replica.remember_reply(txn_id.rsplit("@", 1)[0], [])
            self.store.install(workspace)
        self.tm.locks.release_all(txn_id)
