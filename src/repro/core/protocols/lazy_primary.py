"""Lazy primary copy replication (Section 4.5, Figure 10).

"Lazy replication avoids the synchronisation overhead of eager replication
techniques by providing a response to the clients before there is any
coordination between servers."  With a primary copy, the later Agreement
Coordination "is relatively straightforward ... the replicas need only to
apply the changes as the primary propagates them."

Mechanics:

* Update transactions go to the primary; it executes and commits locally
  and responds **immediately** — END precedes AC, the signature phase
  reordering of Figure 10 (and the eager/lazy distinction of Figure 16).
* Propagation: the primary ships its write-ahead-log tail to each
  secondary a fixed delay after each transaction.  The FIFO links plus LSN ordering mean secondaries apply the
  primary's commit order — no reconciliation needed.
* Read-only transactions run at any replica and may observe **stale**
  data; the staleness benchmark quantifies the window.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...errors import TransactionAborted
from ...net import Message
from ..operations import Request
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, run_transaction

__all__ = ["LazyPrimaryCopy"]

APPLY = "lp.apply"


class LazyPrimaryCopy(ReplicaProtocol):
    """Per-replica endpoint of lazy primary copy replication."""

    info = ProtocolInfo(
        name="lazy_primary",
        title="Lazy primary copy",
        figure="Figure 10",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX),
                PhaseStep(END),
                PhaseStep(AC, "propagation"),
            ),
        ),
        client_policy="primary",
        reads_anywhere=True,
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.propagation_delay = float(spec.propagation_delay)
        self._shipped_lsn: Dict[str, int] = {peer: 0 for peer in self.peers()}
        replica.node.on(APPLY, self._on_apply)
        replica.detector.on_suspect(self._on_suspect)
        replica.detector.on_restore(self._on_peer_restored)

    @property
    def is_primary(self) -> bool:
        return self.replica.system.directory.primary == self.replica.name

    # -- request path -------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        rid = request.request_id
        # Lazy primary copy commits locally and propagates afterwards by
        # design: a primary deposed during the lock waits below still
        # commits, and reconciliation absorbs the divergence — no
        # post-wait fencing to re-check.
        if not self.is_primary:  # repro: noqa R602
            self.respond(
                client, request, committed=False,
                reason=f"not primary (primary is {self.replica.system.directory.primary})",
            )
            return
        self.replica.node.spawn(self._execute(request, client), name=f"lp-{rid}")

    def _execute(self, request: Request, client: str):
        rid = request.request_id
        self.phase(rid, EX)
        try:
            values, updates = yield from run_transaction(
                self.tm, request, self.rng, txn_id=f"{rid}@primary"
            )
        except TransactionAborted as exc:
            self.respond(client, request, committed=False, reason=str(exc))
            return
        # END before AC: the client hears back as soon as the local commit
        # is durable; propagation happens afterwards.
        self.respond(client, request, committed=True, values=values)
        self.replica.node.after(self.propagation_delay, self._ship_tail, rid)

    # -- propagation ----------------------------------------------------------

    def _ship_tail(self, rid: Optional[str] = None) -> None:
        if not self.is_primary:
            return
        if rid is not None:
            self.phase(rid, AC, "propagation")
        for peer in self.peers():
            shipped = self._shipped_lsn.get(peer, 0)
            tail = self.tm.wal.tail(shipped)
            if not tail:
                continue
            self._shipped_lsn[peer] = shipped + len(tail)
            self.replica.node.send(
                peer, APPLY,
                from_lsn=shipped,
                entries=tail,
            )

    def _on_apply(self, message: Message) -> None:
        for updates in message["entries"]:
            self.tm.apply_updates(updates, log=False)
            # Remember propagated commits under their request id: if this
            # secondary is promoted, a client retry of a request the old
            # primary already committed *and shipped* is answered from the
            # cache.  (Unshipped commits are lost on failover — that is
            # the price of laziness the paper points out, and the reason
            # lazy techniques only promise convergence, not exactness.)
            self.replica.remember_reply(str(updates.txn_id).rsplit("@", 1)[0], [])

    # -- failover -----------------------------------------------------------

    def _on_suspect(self, peer: str) -> None:
        """Promote the lowest live secondary when the primary dies.

        Note the price of laziness the paper points out: updates the old
        primary committed but had not yet propagated are *lost* — the new
        primary starts from its own (possibly stale) copy.
        """
        directory = self.replica.system.directory
        if peer != directory.primary:
            return
        if self.replica.detector.trusted(self.group)[0] == self.replica.name:
            directory.set_primary(self.replica.name)

    # -- recovery -----------------------------------------------------------------

    def on_recover(self) -> None:
        """Pull the current primary's state after a restart.

        A recovered secondary missed every log shipment sent while it was
        down (the primary's shipping cursor moved on regardless), so it
        resynchronises by full state pull — the lazy analogue of restoring
        a replica from a backup before resuming log apply.
        """
        self.replica.node.spawn(
            self.catch_up([self.replica.system.directory.primary]),
            name=f"{self.replica.name}-resync",
        )

    def _on_peer_restored(self, peer: str) -> None:
        """Re-ship the whole log to a peer that was presumed dead.

        Shipments sent while the peer was down were dropped on the floor;
        rewinding its cursor replays them (idempotent thanks to the
        version check in ``write_versioned``)."""
        if self.is_primary and peer in self._shipped_lsn:
            self._shipped_lsn[peer] = 0
            self._ship_tail()
