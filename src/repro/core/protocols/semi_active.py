"""Semi-active replication (Section 3.4, Figure 4).

The intermediate point between active and passive: requests are ordered
and executed everywhere (like active replication), but "each time replicas
have to make a non-deterministic decision, a process, called the leader,
makes the choice and sends it to the followers" — so determinism is *not*
required (Figure 5 places semi-active in the transparent/no-determinism
quadrant).

Mechanics:

* RE+SC: requests reach all replicas and are ordered by ABCAST, exactly as
  in active replication.
* EX: each replica runs a serial executor applying requests in delivery
  order.  Deterministic operations execute locally everywhere.
* AC: at every non-deterministic point (operations whose update function is
  in ``NON_DETERMINISTIC``, e.g. ``random_token``), the leader — the first
  member of the current group view — evaluates the choice and VSCASTs it;
  followers block their executor until the choice arrives.  "Phases EX and
  AC are repeated for each non deterministic choice."
* END: all replicas respond; the client keeps the first answer.

Leader failover: if the leader crashes mid-request, the view change
promotes the next member; on installing the new view the new leader
re-examines its executor and publishes the choice the group is blocked on
(view synchrony guarantees followers either all saw the old leader's
choice or none did, so the decision point is unambiguous).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...db import TransactionUpdates, UpdateRecord
from ...groupcomm import ConsensusAtomicBroadcast, SequencerAtomicBroadcast, View, ViewSyncGroup
from ..operations import NON_DETERMINISTIC, Request, apply_update
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep
from .base import InjectingProtocol, ProtocolInfo

__all__ = ["SemiActiveReplication"]


class SemiActiveReplication(InjectingProtocol):
    """Per-replica endpoint of semi-active (leader/follower) replication."""

    info = ProtocolInfo(
        name="semi_active",
        title="Semi-active replication",
        figure="Figure 4",
        community="ds",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE, "abcast"),
                PhaseStep(SC, "abcast"),
                PhaseStep(EX),
                PhaseStep(AC, "vscast"),
                PhaseStep(END),
            ),
            loop=(2, 3),  # once per non-deterministic choice
        ),
        client_policy="all",
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        if spec.abcast == "sequencer":
            self.abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_deliver,
                trace=replica.system.trace, channel_prefix="sa.ab",
            )
        else:
            self.abcast = ConsensusAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                self._on_deliver, trace=replica.system.trace,
                channel_prefix="sa.ab",
            )
        self.view_group = ViewSyncGroup(
            replica.node, replica.transport, replica.detector, group,
            self._on_vs_deliver, on_view_change=self._on_view_change,
            trace=replica.system.trace,
        )
        # Take over a suspected injector's pending requests immediately.
        replica.detector.on_suspect(lambda _peer: self._inject_all_pending())
        # Delivered and not yet answered, in delivery order: rid ->
        # (request, client).  The first entry is the one executing, and
        # it leaves only once its reply is in the replica's reply_cache.
        self._queue: Dict[str, tuple] = {}
        self._choices: Dict[Tuple[str, int], int] = {}
        self._choice_waiters: Dict[Tuple[str, int], object] = {}
        self._blocked_on: Optional[Tuple[str, int]] = None

    # -- leadership ----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.view_group.leading

    def _on_view_change(self, view: View) -> None:
        if self.is_leader and self._blocked_on is not None:
            # New leader: unblock the group by publishing the choice every
            # follower (including ourselves, until now) is waiting for.
            key = self._blocked_on
            if key not in self._choices:
                self._publish_choice(key)

    # -- request path ------------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        # A self call, not super(): the static analysers follow only the former.
        if request.request_id not in self._queue:
            self._await_order(request, client)

    # -- ordered execution -----------------------------------------------------------

    def _on_deliver(self, origin: str, mtype: str, body: dict) -> None:
        request = body["request"]
        rid = request.request_id
        if rid in self._queue or self.replica.cached_reply(rid) is not None:
            return  # a second injector's copy: queued, executing or answered
        self._awaiting_order.pop(rid, None)
        self.phase(rid, SC, "abcast")
        self._queue[rid] = (request, body["client"])
        if len(self._queue) == 1:
            self._pump()

    def _pump(self) -> None:
        """Start executing the head of the queue."""
        request, client = next(iter(self._queue.values()))
        self.replica.node.spawn(
            self._execute(request, client), name=f"sa-exec-{request.request_id}"
        )

    def _execute(self, request: Request, client: str):
        rid = request.request_id
        values = []
        records = []
        # Phase recording follows Figure 4: an EX span opens each stretch
        # of execution, an AC record marks each leader choice, and the
        # EX/AC pair repeats per non-deterministic point.
        needs_ex_record = True
        for index, op in enumerate(request.operations):
            if needs_ex_record:
                self.phase(rid, EX)
                needs_ex_record = False
            if op.kind == "read":
                values.append(self.store.read(op.item))
                continue
            if op.kind == "write":
                new_value = op.argument
            elif op.func in NON_DETERMINISTIC:
                choice = yield from self._resolve_choice(rid, index)
                needs_ex_record = True
                new_value = choice
            else:
                new_value = apply_update(
                    op.func, self.store.read(op.item), op.argument, self.rng
                )
            version = self.store.write(op.item, new_value)
            records.append(UpdateRecord(op.item, new_value, version))
            values.append(None if op.kind == "write" else new_value)
        self.respond(client, request, committed=True, values=values)
        del self._queue[rid]
        if self._queue:
            self._pump()

    # -- non-deterministic choices --------------------------------------------------------

    def _resolve_choice(self, rid: str, op_index: int):
        key = (rid, op_index)
        if key not in self._choices:
            if self.is_leader:
                self._publish_choice(key)
            else:
                self._blocked_on = key
                future = self.sim.future(label=f"choice:{key}")
                self._choice_waiters[key] = future
                yield future
                self._blocked_on = None
        self.phase(rid, AC, "vscast")
        return self._choices[key]

    def _publish_choice(self, key: Tuple[str, int]) -> None:
        value = self.rng.randrange(10**9)
        self.view_group.vscast("choice", rid=key[0], op_index=key[1], value=value)

    def _on_vs_deliver(self, origin: str, mtype: str, body: dict) -> None:
        if mtype != "choice":
            return
        key = (body["rid"], body["op_index"])
        if key in self._choices:
            return
        self._choices[key] = body["value"]
        waiter = self._choice_waiters.pop(key, None)
        if waiter is not None and not waiter.done:
            waiter.set_result(body["value"])
