"""Group membership and View Synchronous Broadcast (VSCAST).

Section 3.1 of the paper defines VSCAST over a sequence of *views*
``v0(g), v1(g), ...`` of a group ``g``: whenever a member is suspected to
have crashed, or a process joins, a new view is installed, and

    if one process p in view ``vi(g)`` delivers message m before
    installing view ``vi+1(g)``, then no process installs ``vi+1(g)``
    before having first delivered m.

This module implements the primary-partition flavour used by passive and
semi-active replication:

* **Normal operation** — :meth:`ViewSyncGroup.vscast` reliably sends to
  the current view; receivers deliver immediately and record the message
  in the per-view log.
* **View change** — triggered by failure-detector suspicion of a member or
  by a join request.  All members exchange *flush* messages carrying their
  per-view logs, then run a consensus instance (Chandra–Toueg, among the
  old view's members) on the pair ``(new membership, union log)``.  Before
  installing the decided view every member delivers every message in the
  decided union log it has not delivered yet — which is exactly the view
  synchrony property above.
* **Joins** — a joiner contacts the group; the next view includes it, and
  the lowest-ranked surviving member transfers application state to it
  (``get_state``/``set_state`` hooks).

A correct process wrongly excluded from the view (aggressive failure
detection) observes ``excluded`` and must re-join; this is the cost of
primary-partition membership that Section 3.5's semi-passive discussion
alludes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import ReplicationError
from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .channels import ReliableTransport
from .consensus import Consensus

__all__ = ["View", "ViewSyncGroup"]

MSG = "vs.msg"
FLUSH = "vs.flush"
JOIN = "vs.join"
INSTALL = "vs.install"


@dataclass(frozen=True)
class View:
    """One installed group view: an id and its member list."""

    view_id: int
    members: Tuple[str, ...]

    def __repr__(self) -> str:
        return f"View({self.view_id}, {list(self.members)})"


class ViewSyncGroup:
    """Per-node endpoint of a view-synchronous process group.

    Parameters
    ----------
    node, transport, detector:
        Hosting node, reliable transport, failure detector.
    initial_members:
        Members of view 0.  Must be identical at every founding member.
    deliver:
        Upcall ``deliver(origin, mtype, body)`` for VSCAST messages.
    on_view_change:
        Optional listener ``on_view_change(view)`` called at each install.
    on_excluded:
        Optional listener ``on_excluded()`` called when a view this node
        took part in deciding leaves it out.
    get_state / set_state:
        Application state-transfer hooks used when a joiner is admitted.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        detector: FailureDetector,
        initial_members: List[str],
        deliver: Callable[[str, str, dict], None],
        on_view_change: Optional[Callable[[View], None]] = None,
        on_excluded: Optional[Callable[[], None]] = None,
        get_state: Optional[Callable[[], Any]] = None,
        set_state: Optional[Callable[[Any], None]] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.node = node
        self.transport = transport
        self.detector = detector
        self.deliver = deliver
        self.on_view_change = on_view_change
        self.on_excluded = on_excluded
        self.get_state = get_state
        self.set_state = set_state
        self.trace = trace

        self.member = node.name in initial_members
        self.excluded = False
        self.view = View(0, tuple(sorted(initial_members)))
        self._delivered_uids: Set[str] = set()
        self._view_log: Dict[str, Tuple[str, str, dict]] = {}
        self._changing = False
        self._flushes: Dict[str, Dict[str, tuple]] = {}
        self._pending_joins: Set[str] = set()
        self._queued_out: List[Tuple[str, dict]] = []
        self._future_msgs: Dict[int, List[dict]] = {}
        self._consensus_cache: Dict[int, Consensus] = {}

        transport.on(MSG, self._on_msg)
        transport.on(FLUSH, self._on_flush)
        transport.on(JOIN, self._on_join)
        transport.on(INSTALL, self._on_install)
        detector.on_suspect(self._on_suspicion)

    @property
    def leading(self) -> bool:
        """Is this node in the current view and ranked first in it?"""
        return (self.member and not self.excluded
                and self.view.members[0] == self.node.name)

    # -- sending ----------------------------------------------------------

    def vscast(self, mtype: str, **body: Any) -> None:
        """View-synchronously broadcast ``body`` to the current view."""
        if self.excluded or not self.member:
            raise ReplicationError(f"{self.node.name} is not a member of the group")
        if self._changing:
            self._queued_out.append((mtype, body))
            return
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        record = (self.node.name, mtype, body)
        # Deliver locally first so every vscast is in its sender's log and
        # therefore salvageable by the flush protocol.
        self._record_delivery(uid, record)
        for member in self.view.members:
            if member != self.node.name:
                self.transport.send(
                    member, MSG,
                    view=self.view.view_id, uid=uid,
                    origin=self.node.name, mtype=mtype, body=body,
                )

    def join(self, contacts: List[str]) -> None:
        """Ask the group (via ``contacts``) to admit this node."""
        self.excluded = False
        for contact in contacts:
            self.transport.send(contact, JOIN, name=self.node.name)

    # -- delivery -----------------------------------------------------------

    def _record_delivery(self, uid: str, record: Tuple[str, str, dict]) -> None:
        origin, mtype, body = record
        self._delivered_uids.add(uid)
        self._view_log[uid] = record
        if self.trace is not None:
            self.trace.record(
                "vscast", self.node.name,
                view=self.view.view_id, uid=uid, origin=origin, mtype=mtype,
            )
        self.deliver(origin, mtype, body)

    def _on_msg(self, src: str, payload: dict) -> None:
        if not self.member or self.excluded:
            return
        view_id = payload["view"]
        if view_id > self.view.view_id:
            self._future_msgs.setdefault(view_id, []).append(payload)
            return
        if view_id < self.view.view_id or self._changing:
            # Stale or mid-flush traffic: the flush/union-log machinery is
            # the only sanctioned path for these to reach the application.
            return
        uid = payload["uid"]
        if uid in self._delivered_uids:
            return
        self._record_delivery(uid, (payload["origin"], payload["mtype"], payload["body"]))

    # -- view-change triggers ---------------------------------------------------

    def _on_suspicion(self, peer: str) -> None:
        if not self.member or self.excluded:
            return
        if peer in self.view.members:
            if self._changing:
                self._check_flush_complete()
            else:
                self._start_flush()

    def _on_join(self, src: str, payload: dict) -> None:
        if not self.member or self.excluded:
            return
        name = payload["name"]
        if name in self.view.members or name in self._pending_joins:
            return
        self._pending_joins.add(name)
        # Gossip the join so every member's proposal includes the joiner;
        # otherwise consensus may pick a proposal that omits it and the
        # group would reconfigure forever.
        for member in self.view.members:
            if member != self.node.name:
                self.transport.send(member, JOIN, name=name)
        if not self._changing:
            self._start_flush()

    # -- flush + consensus -----------------------------------------------------------

    def _start_flush(self) -> None:
        self._changing = True
        log_wire = {
            uid: [origin, mtype, body]
            for uid, (origin, mtype, body) in self._view_log.items()
        }
        self._flushes.setdefault(self.node.name, {}).update(self._view_log)
        for member in self.view.members:
            if member != self.node.name:
                self.transport.send(
                    member, FLUSH, view=self.view.view_id, log=log_wire
                )
        self._check_flush_complete()

    def _on_flush(self, src: str, payload: dict) -> None:
        if not self.member or self.excluded:
            return
        if payload["view"] != self.view.view_id:
            return
        if not self._changing:
            # A peer started the view change before our own detector
            # noticed anything; join the flush.
            self._start_flush()
        self._flushes[src] = {
            uid: (entry[0], entry[1], entry[2]) for uid, entry in payload["log"].items()
        }
        self._check_flush_complete()

    def _check_flush_complete(self) -> None:
        if not self._changing:
            return
        survivors = self.detector.trusted(self.view.members)
        if any(member not in self._flushes for member in survivors):
            return
        union_log: Dict[str, tuple] = {}
        for member in survivors:
            union_log.update(self._flushes[member])
        joiners = sorted(self._pending_joins)
        proposal = {
            "members": sorted(set(survivors) | set(joiners)),
            "log": {
                uid: [origin, mtype, body]
                for uid, (origin, mtype, body) in union_log.items()
            },
        }
        self._view_consensus(self.view.view_id).propose(self.view.view_id, proposal)

    def _view_consensus(self, view_id: int) -> Consensus:
        consensus = self._consensus_cache.get(view_id)
        if consensus is None:
            consensus = Consensus(
                self.node,
                self.transport,
                list(self.view.members),
                self.detector,
                self._on_decide,
                trace=self.trace,
                channel_prefix=f"vs.v{view_id}",
            )
            self._consensus_cache[view_id] = consensus
        return consensus

    def _on_decide(self, view_id: Any, proposal: dict) -> None:
        if view_id != self.view.view_id:
            return
        members = proposal["members"]
        # View synchrony: deliver the decided union log before installing.
        for uid in sorted(proposal["log"]):
            if uid in self._delivered_uids:
                continue
            origin, mtype, body = proposal["log"][uid]
            self._record_delivery(uid, (origin, mtype, body))
        old_members = set(self.view.members)
        joiners = [m for m in members if m not in old_members]
        if self.node.name not in members:
            self.excluded = True
            self.member = False
            if self.trace is not None:
                self.trace.record("view", self.node.name, action="excluded", view=view_id + 1)
            if self.on_excluded is not None:
                self.on_excluded()
            return
        self._install(View(view_id + 1, tuple(members)))
        survivors_in_new = [m for m in members if m in old_members]
        if joiners and survivors_in_new and survivors_in_new[0] == self.node.name:
            state = self.get_state() if self.get_state is not None else None
            for joiner in joiners:
                self.transport.send(
                    joiner, INSTALL,
                    view=view_id + 1, members=list(members), state=state,
                )

    def _on_install(self, src: str, payload: dict) -> None:
        if self.member and payload["view"] <= self.view.view_id:
            return
        if self.set_state is not None:
            self.set_state(payload["state"])
        self.member = True
        self.excluded = False
        self._install(View(payload["view"], tuple(payload["members"])))

    def _install(self, view: View) -> None:
        self.view = view
        self._view_log = {}
        self._flushes = {}
        self._changing = False
        self._pending_joins -= set(view.members)
        # A member of the new view may already be suspected (the deciding
        # proposal came from a peer with a more optimistic detector); keep
        # reconfiguring until the view matches our own failure picture.
        if self._outdated(view):
            self.node.sim.call_soon(self._restart_if_needed)
        if self.trace is not None:
            self.trace.record(
                "view", self.node.name, action="install",
                view=view.view_id, members=",".join(view.members),
            )
        if self.on_view_change is not None:
            self.on_view_change(view)
        # Drain traffic that arrived for this view before we installed it.
        for payload in self._future_msgs.pop(view.view_id, []):
            self._on_msg(payload["origin"], payload)
        # Resend multicasts queued during the change.
        queued, self._queued_out = self._queued_out, []
        for mtype, body in queued:
            if self._outdated(view):
                self._queued_out.append((mtype, body))
            else:
                self.vscast(mtype, **body)

    def _outdated(self, view: View) -> bool:
        """Does ``view`` leave out a waiting joiner, or hold a member this
        node suspects?"""
        return bool(self._pending_joins) or (
            len(self.detector.trusted(view.members)) < len(view.members)
        )

    def _restart_if_needed(self) -> None:
        if (self.member and not self.excluded and not self._changing
                and self._outdated(self.view)):
            self._start_flush()

    def __repr__(self) -> str:
        flags = "changing" if self._changing else "stable"
        return f"<ViewSyncGroup@{self.node.name} {self.view!r} {flags}>"
