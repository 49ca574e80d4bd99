"""Passive (primary-backup) replication (Section 3.3, Figure 3).

"Clients send their requests to a primary, which executes the requests and
sends update messages to the backups.  The backups do not execute the
invocation, but apply the changes produced by the invocation execution at
the primary."

Faithful points:

* **No Server Coordination phase** — the primary alone orders execution.
* The update is propagated with **VSCAST** (Section 3.3 explains FIFO
  alone cannot survive a primary failover; the view-synchronous broadcast
  orders a faulty primary's last updates against the new primary's).
* **END follows the backups' AC** — each backup acknowledges applying the
  update, and the primary answers once every other member of its view
  has acknowledged or has left the view.  An answered update is then
  held by every member of the view, so no failover can lose it; a
  primary excluded from the view never answers, and the client retries.
  A replica that comes back into the view takes the group's store and
  reply table in place of its own, so nothing it did outside the group
  survives the rejoin.
* Non-determinism is fine: only the primary executes; backups apply
  after-images.  ``random_token`` operations are safe here.
* **Failures are not transparent to clients** (Figure 5): if the primary
  crashes, the client times out, the membership installs a new view, the
  directory flips to the new primary (the first member of the new view)
  and the client re-submits.
* Exactly-once across failover: the primary's response values travel with
  the vscast update and each backup records them in its replica's
  ``reply_cache`` (the primary records them when it answers), so a
  backup promoted to primary answers re-submitted requests from that
  table instead of re-executing them.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ...errors import TransactionAborted
from ...groupcomm import View, ViewSyncGroup
from ..operations import Request
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, run_transaction

__all__ = ["PassiveReplication"]

ACK = "passive.ack"


class PassiveReplication(ReplicaProtocol):
    """Per-replica endpoint of primary-backup replication."""

    info = ProtocolInfo(
        name="passive",
        title="Passive (primary-backup) replication",
        figure="Figure 3",
        community="ds",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX),
                PhaseStep(AC, "vscast"),
                PhaseStep(END),
            ),
        ),
        client_policy="primary",
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        replica.node.on("passive.forward", self._on_forward)
        replica.transport.on(ACK, self._on_ack)
        # Updates this primary executed and vscast but has not answered:
        # request id -> (client, request, values, the members of the view
        # that have not yet acknowledged applying the update).
        self._unacked: Dict[str, Tuple[str, Request, List, Set[str]]] = {}
        self.view_group = ViewSyncGroup(
            replica.node,
            replica.transport,
            replica.detector,
            group,
            self._on_vs_deliver,
            on_view_change=self._on_view_change,
            on_excluded=self._on_excluded,
            get_state=self._state_snapshot,
            set_state=self._state_install,
            trace=replica.system.trace,
        )

    # -- membership --------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self.view_group.leading

    def _on_view_change(self, view: View) -> None:
        # All surviving members install the same view, so they agree on the
        # new primary; updating the shared directory models the name
        # service clients consult on retry.
        self.replica.system.directory.set_primary(view.members[0])
        # A member that left the view no longer owes an acknowledgement:
        # view synchrony delivered the update to everyone who stayed.
        for rid in list(self._unacked):
            self._unacked[rid][3].intersection_update(view.members)
            self._answer_if_held(rid)

    def _state_snapshot(self):
        # An update still waiting for acks is in this primary's store and,
        # by view synchrony, delivered to every survivor: its reply goes
        # with the state, so the joiner answers a retry of it from the
        # table.
        replies = dict(self.replica.reply_cache)
        for rid, (_, _, values, _) in self._unacked.items():
            replies.setdefault(rid, tuple(values))
        return {"store": self.store.digest(), "replies": tuple(replies.items())}

    def _on_excluded(self) -> None:
        # Left out of the view while alive (a wrong suspicion): nothing
        # waiting here is answered, and the replica asks to come back
        # with state transfer, the way a restarted one does.
        self._unacked.clear()
        self.view_group.join(self.peers())

    def _state_install(self, state) -> None:
        # Replace, not merge: what this replica did outside the group (as
        # a primary cut off from its backups) never reached the group, so
        # it must not survive the rejoin.
        if state is None:
            return
        self.store.restore({})
        self.store.install(state["store"])
        self.replica.reply_cache.clear()
        self.replica.reply_cache.update(state["replies"])

    # -- request path ------------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        rid = request.request_id
        cached = self.replica.cached_reply(rid)
        if cached is not None:
            # A forwarded re-submission (the base class answers the ones
            # that come straight from a client): the update already
            # reached us view-synchronously, so answer from the table.
            self.respond(client, request, committed=True, values=cached)
            return
        # A primary deposed during the lock waits still commits locally,
        # but the view-synchronous broadcast fences the update: a vscast
        # issued in the old view is never delivered in the new one, so
        # the role check needs no post-wait revalidation.
        if not self.is_primary:  # repro: noqa R602
            # Stale directory entry: forward to the current primary.
            primary = self.view_group.view.members[0]
            if primary != self.replica.name:
                self.replica.node.send(
                    primary, "passive.forward",
                    request=request, client=client,
                )
            return
        self.replica.node.spawn(
            self._execute(request, client), name=f"passive-{rid}"
        )

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
        self.phase(rid, AC, "vscast")
        self.view_group.vscast(
            "apply", request_id=rid, updates=updates, values=values
        )
        backups = set(self.view_group.view.members) - {self.replica.name}
        self._unacked[rid] = (client, request, values, backups)
        self._answer_if_held(rid)

    def _on_ack(self, src: str, payload: dict) -> None:
        rid = payload["request_id"]
        entry = self._unacked.get(rid)
        if entry is not None:
            entry[3].discard(src)
            self._answer_if_held(rid)

    def _answer_if_held(self, rid: str) -> None:
        """Answer the client once no member of the view still owes an ack."""
        client, request, values, waiting = self._unacked[rid]
        if waiting:
            return
        del self._unacked[rid]
        if self.view_group.member and not self.view_group.excluded:
            self.respond(client, request, committed=True, values=values)

    # -- backup path --------------------------------------------------------------

    def _on_vs_deliver(self, origin: str, mtype: str, body: dict) -> None:
        if mtype != "apply":
            return
        rid = body["request_id"]
        if origin == self.replica.name:
            # The primary records the reply when it answers, which waits
            # for the backups' acks.
            return
        if self.replica.cached_reply(rid) is None:
            # Backups record their part of the Agreement Coordination
            # phase and install the primary's after-images.
            self.replica.remember_reply(rid, body["values"])
            self.phase(rid, AC, "vscast")
            self.tm.apply_updates(body["updates"])
        # Applied now or before: either way this backup holds the update.
        self.replica.transport.send(origin, ACK, request_id=rid)

    def _on_client_request(self, message) -> None:
        # A retry of an update still waiting for its backups is answered
        # when they hold it, not from the reply table.
        if message["request"].request_id not in self._unacked:
            super()._on_client_request(message)

    def _on_forward(self, message) -> None:
        if message["request"].request_id not in self._unacked:
            self.handle_request(message["request"], message["client"])

    # -- recovery -----------------------------------------------------------------

    def on_crash(self) -> None:
        self._unacked.clear()

    def on_recover(self) -> None:
        """Re-join the group after a restart.

        The surviving members excluded this replica via a view change when
        it crashed, so membership does not come back for free: the
        restarted backup asks to join, and the lowest-ranked survivor
        transfers current state (store + reply table) with the INSTALL
        message — without this, a recovered backup would serve from a
        stale store forever.
        """
        self.view_group.join(self.peers())
