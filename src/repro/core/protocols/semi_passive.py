"""Semi-passive replication (Section 3.5).

A passive-style technique — one process executes, the others apply its
updates — that needs **no view-synchronous membership**: "the Server
Coordination (phase 2) and the Agreement Coordination (phase 4) are part
of one single coordination protocol called Consensus with Deferred Initial
Values".

Mechanics:

* Clients address the group (failure transparency, Figure 5): the request
  reaches every replica and is queued.
* Replicas agree on a sequence of *slots*.  For slot *k* every replica
  participates in a :class:`~repro.groupcomm.DeferredConsensus` instance
  whose initial value is a **thunk**: "execute the oldest queued request
  and return (updates, results)".  Only the coordinator of a round runs
  the thunk — that replica plays the primary for this request.
* If the coordinator is suspected (even wrongly), the next round's
  coordinator executes the request itself and proposes its own updates.
  The cost of a wrong suspicion is one redundant execution — not a view
  change — which is why the paper says the technique tolerates
  "aggressive time-outs ... without incurring a too important cost for
  incorrect failure suspicions".
* On decision every replica applies the decided after-images and responds
  to the client; the client keeps the first response.
"""

from __future__ import annotations

from typing import Dict

from ...db.storage import DataStore
from ...groupcomm import DeferredConsensus, InOrder, ReliableBroadcast
from ..operations import Request
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, apply_request_to_store

__all__ = ["SemiPassiveReplication"]


class SemiPassiveReplication(ReplicaProtocol):
    """Per-replica endpoint of semi-passive replication."""

    info = ProtocolInfo(
        name="semi_passive",
        title="Semi-passive replication",
        figure="Section 3.5",
        community="ds",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX, "deferred"),
                PhaseStep(AC, "consensus-dv"),
                PhaseStep(END),
            ),
        ),
        client_policy="all",
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.consensus = DeferredConsensus(
            replica.node,
            replica.transport,
            group,
            replica.detector,
            self._on_decide,
            trace=replica.system.trace,
            channel_prefix="sp.ct",
        )
        # Requests are re-disseminated reliably among the replicas: the
        # consensus slot for a request only terminates once a majority has
        # it in hand, so a request that initially reached a minority (lost
        # messages, partitions) must eventually spread to everyone.
        self._spread = ReliableBroadcast(
            replica.node, replica.transport, group, self._on_spread,
            trace=replica.system.trace, channel="sp.req",
        )
        self._pending: Dict[str, tuple] = {}   # rid -> (request, client) FIFO
        self._coordinated = 0                  # slots executed here
        self._slots = InOrder()                # decided slots, applied in order

    # -- request path -----------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        if self._enqueue(request, client):
            self._spread.broadcast("req", request=request, client=client)

    def _on_spread(self, _origin: str, _mtype: str, body: dict) -> None:
        self._enqueue(body["request"], body["client"])

    def _enqueue(self, request: Request, client: str) -> bool:
        rid = request.request_id
        if rid in self._pending or self.replica.cached_reply(rid) is not None:
            return False
        self._pending[rid] = (request, client)
        self._maybe_propose()
        return True

    def _maybe_propose(self) -> None:
        slot = self._slots.claim() if self._pending else None
        if slot is not None:
            self.consensus.propose_deferred(slot, lambda: self._compute(slot))

    def _compute(self, slot: int) -> dict:
        """Coordinator-only: execute the oldest pending request.

        This is the deferred initial value — the whole point of the
        technique: execution happens at most at the (few) coordinators
        that actually run a round.
        """
        for rid in list(self._pending):
            if self.replica.cached_reply(rid) is None:
                break
            del self._pending[rid]
        if not self._pending:
            return {"empty": True}
        request, client = next(iter(self._pending.values()))
        self.phase(request.request_id, EX, "deferred")
        # Execute speculatively on a shadow of the store: if a different
        # coordinator's proposal wins this slot, our execution must leave
        # no trace.  The decided after-images are applied in _on_decide.
        shadow = DataStore(f"{self.replica.name}-shadow")
        shadow.restore(self.store.snapshot())
        values, updates = apply_request_to_store(shadow, request, self.rng)
        return {
            "empty": False,
            "request": request,
            "client": client,
            "values": values,
            "updates": updates.records,
            "executor": self.replica.name,
        }

    # -- decision path --------------------------------------------------------

    def _on_decide(self, slot: int, decision: dict) -> None:
        for ready in self._slots.put(slot, decision):
            self._apply_slot(ready)
        self._maybe_propose()

    def _apply_slot(self, decision: dict) -> None:
        if decision.get("empty"):
            return
        request = decision["request"]
        rid = request.request_id
        if self.replica.cached_reply(rid) is not None:
            return
        if decision["executor"] == self.replica.name:
            self._coordinated += 1
        self._pending.pop(rid, None)
        self.phase(rid, AC, "consensus-dv")
        # Everyone — the executor included — installs the *decided*
        # after-images; speculative executions happened on shadows.
        for record in decision["updates"]:
            self.store.write(record.item, record.value)
        self.respond(
            decision["client"], request, committed=True, values=decision["values"]
        )

    def executed_slots(self) -> int:
        """How many slots this replica executed as coordinator."""
        return self._coordinated
