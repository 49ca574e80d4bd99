"""Lazy update everywhere replication (Section 4.6, Figure 11).

Any site accepts updates, commits locally, responds, and propagates later
— maximum availability and minimum response time, at the price the paper
spells out: "the copies on the different site might not only be stale but
inconsistent.  Reconciliation is needed to decide which updates are the
winners and which transactions must be undone."

Mechanics:

* RE/EX/END at the client's local replica: execute under local 2PL,
  commit, answer immediately (END before AC, as in Figure 10/11).
* Each committed writeset gets a :class:`~repro.db.Stamp` (commit time,
  site, per-site sequence) and, after ``propagation_delay``, is reliably
  broadcast to the other replicas.
* AC = **reconciliation** (per object, exactly as the paper notes existing
  schemes are): every site feeds every write — its own at commit time,
  remote ones on arrival — through the same deterministic policy
  (last-writer-wins by default, site-priority optionally), so all replicas
  converge to identical values once propagation quiesces.  Transactions
  whose writes lost are counted as *undone* — the reconciliation casualty
  figure the benchmarks report.
"""

from __future__ import annotations

import itertools
from typing import Dict

from ...db import LastWriterWins, SitePriority, Stamp, TransactionUpdates
from ...errors import TransactionAborted
from ...groupcomm import ReliableBroadcast, SequencerAtomicBroadcast
from ..operations import Request
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, run_transaction

__all__ = ["LazyUpdateEverywhere"]


class LazyUpdateEverywhere(ReplicaProtocol):
    """Per-replica endpoint of lazy update everywhere replication."""

    info = ProtocolInfo(
        name="lazy_ue",
        title="Lazy update everywhere",
        figure="Figure 11",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX),
                PhaseStep(END),
                PhaseStep(AC, "reconciliation"),
            ),
        ),
        client_policy="local",
        reads_anywhere=True,
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.propagation_delay = float(spec.propagation_delay)
        self.policy = spec.reconciliation
        self.reconciler = None
        self._abcast = None
        self._overwritten_by_order: set = set()
        self._last_writer: Dict[str, object] = {}
        if self.policy == "priority":
            self.reconciler = SitePriority(self.store, dict(spec.priorities))
        elif self.policy == "lww":
            self.reconciler = LastWriterWins(self.store)
        elif self.policy == "abcast":
            self._abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_ordered,
                trace=replica.system.trace, channel_prefix="lue.ab",
            )
        else:
            raise ValueError(f"unknown reconciliation policy {self.policy!r}")
        self._stamp_seq = itertools.count(1)
        self._rb = ReliableBroadcast(
            replica.node, replica.transport, group, self._on_propagated,
            trace=replica.system.trace, channel="lue.prop",
        )

    # -- request path -----------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        rid = request.request_id
        if request.read_only:
            self.phase(rid, EX)
            values = [self.store.read(op.item) for op in request.operations]
            self.respond(client, request, committed=True, values=values)
            return
        self.replica.node.spawn(self._execute(request, client), name=f"lue-{rid}")

    def _execute(self, request: Request, client: str):
        rid = request.request_id
        self.phase(rid, EX)
        try:
            values, updates = yield from run_transaction(
                self.tm, request, self.rng, txn_id=f"{rid}@{self.replica.name}"
            )
        except TransactionAborted as exc:
            self.respond(client, request, committed=False, reason=str(exc))
            return
        stamp = Stamp(
            time=self.sim.now,
            site=self.replica.name,
            txn_id=rid,
            seq=next(self._stamp_seq),
        )
        if self.reconciler is not None:
            # Register our own writes with the reconciler now, so a remote
            # write with a larger stamp can later overwrite them (and ours
            # can defend their slot against smaller stamps).
            for record in updates.records:
                self.reconciler.consider(record.item, record.value, stamp)
        self.respond(client, request, committed=True, values=values)
        self.replica.node.after(
            self.propagation_delay, self._propagate, updates, stamp, rid
        )

    # -- propagation + reconciliation --------------------------------------------

    def _propagate(self, updates: TransactionUpdates, stamp: Stamp, rid: str) -> None:
        self.phase(rid, AC, "reconciliation")
        if self._abcast is not None:
            self._abcast.abcast("writeset", updates=updates, stamp=stamp)
        else:
            self._rb.broadcast("writeset", updates=updates, stamp=stamp)

    def _on_propagated(self, origin: str, mtype: str, body: dict) -> None:
        if origin == self.replica.name:
            return  # already reconciled locally at commit time
        stamp = body["stamp"]
        for record in body["updates"].records:
            self.reconciler.consider(record.item, record.value, stamp)
        # Remember reconciled commits: a client whose home replica crashed
        # retries at another site, which must not re-execute a transaction
        # whose writeset already arrived here (see lazy_primary._on_apply).
        self.replica.remember_reply(str(stamp.txn_id).rsplit("@", 1)[0], [])

    def _on_ordered(self, origin: str, mtype: str, body: dict) -> None:
        """Apply writesets in the ABCAST-determined after-commit order.

        Every site applies the same sequence, so the copies converge with
        no per-object timestamps.  A transaction counts as *undone* when
        the decided order inverts real time — its write is superseded by
        one that actually committed earlier (ordinary newer-over-older
        overwrites are just history, not reconciliation casualties)."""
        stamp = body["stamp"]
        for record in body["updates"].records:
            previous = self._last_writer.get(record.item)
            if previous is not None and previous[0] != stamp.txn_id:
                previous_txn, previous_stamp = previous
                if stamp.sort_key < previous_stamp.sort_key:
                    self._overwritten_by_order.add(previous_txn)
            self._last_writer[record.item] = (stamp.txn_id, stamp)
            self.store.write(record.item, record.value)
        self.replica.remember_reply(str(stamp.txn_id).rsplit("@", 1)[0], [])

    # -- introspection ---------------------------------------------------------------

    @property
    def undone_transactions(self) -> int:
        """Transactions at this site whose writes lost reconciliation."""
        if self.reconciler is not None:
            return self.reconciler.undone_count
        return len(self._overwritten_by_order)
