"""Active replication — the state-machine approach (Section 3.2, Figure 2).

"All replicas receive and process the same sequence of client requests.
Consistency is guaranteed by assuming that, when provided with the same
input in the same order, replicas will produce the same output."

Mechanics reproduced here:

* The client addresses the *group* (policy ``"all"``): its request reaches
  every replica, merging the RE and SC phases into the atomic broadcast.
* Replicas order requests with ABCAST.  To avoid every replica injecting
  every request into the broadcast, the lowest live replica injects and
  the others arm a fallback timer — if the injector crashes, they inject
  themselves, preserving failure transparency.
* Execution is deterministic state-machine application in delivery order;
  there is **no Agreement Coordination phase** (Figure 2: "phase AC is not
  used"), since identical inputs in identical order yield identical state.
* Every replica responds; "the client typically only waits for the first
  answer (the others are ignored)".

The determinism requirement is real, not stylised: submit an operation
using the ``random_token`` update function and the replicas genuinely
diverge (each draws from its own RNG) — the failure mode that motivates
passive replication.
"""

from __future__ import annotations

from ...groupcomm import ConsensusAtomicBroadcast, SequencerAtomicBroadcast
from ..operations import Request
from ..phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep
from .base import InjectingProtocol, ProtocolInfo, apply_request_to_store

__all__ = ["ActiveReplication"]


class ActiveReplication(InjectingProtocol):
    """Per-replica endpoint of the active replication technique."""

    info = ProtocolInfo(
        name="active",
        title="Active replication",
        figure="Figure 2",
        community="ds",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE, "abcast"),
                PhaseStep(SC, "abcast", merged_with=RE),
                PhaseStep(EX),
                PhaseStep(END),
            ),
        ),
        client_policy="all",
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        if spec.abcast == "sequencer":
            self.abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_deliver,
                trace=replica.system.trace,
            )
        else:
            self.abcast = ConsensusAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                self._on_deliver, trace=replica.system.trace,
            )
        # If the replica responsible for injecting requests is suspected,
        # take over its pending work at detection time instead of waiting
        # for the fallback timer — keeps the crash fully masked.
        replica.detector.on_suspect(lambda _peer: self._inject_all_pending())

    # -- ordered delivery ----------------------------------------------------

    def _on_deliver(self, origin: str, mtype: str, body: dict) -> None:
        request = body["request"]
        rid = request.request_id
        if self.replica.cached_reply(rid) is not None:
            return  # a second replica also injected it; ignore duplicates
        self._awaiting_order.pop(rid, None)
        self.phase(rid, SC, "abcast")
        self.phase(rid, EX)
        values, _updates = apply_request_to_store(self.store, request, self.rng)
        # Every replica answers; the client keeps the first response.
        self.respond(body["client"], request, committed=True, values=values)
