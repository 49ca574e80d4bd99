"""Eager update everywhere based on atomic broadcast (Section 4.4.2,
Figure 9).

"The basic idea behind this approach is to use the total order guaranteed
by ABCAST to provide a hint to the transaction manager on how to order
conflicting operations.  Thus, the client submits its request to one
database server which then broadcasts the request to all other database
servers (note that in distributed systems, the client broadcasts the
request directly to all servers)."

Mechanics:

* RE: the client contacts one server — its local *delegate* (the
  database-style request phase, unlike active replication's group
  address).
* SC: the delegate ABCASTs the transaction; the total order *is* the
  server coordination.
* EX: every replica executes delivered transactions serially in delivery
  order (the conservative execution of [KA98]: conflicting operations run
  in ABCAST order everywhere, yielding one-copy serializability without
  locks across sites).  Determinism across replicas is obtained by
  seeding the execution RNG from the request id, so even "random" updates
  compute identically at all sites — the determinism assumption this
  technique inherits from active replication (Section 4.4.1 notes that
  with deterministic databases the 2PC vanishes and the protocol becomes
  functionally identical to active replication).
* **No AC phase** ("there is no coordination at this point").
* END: the delegate responds after its own delivery executes.

Read-only transactions execute locally at the delegate without
broadcasting.
"""

from __future__ import annotations

import random
import zlib

from ...groupcomm import ConsensusAtomicBroadcast, SequencerAtomicBroadcast
from ..operations import Request
from ..phases import END, EX, RE, SC, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, apply_request_to_store

__all__ = ["EagerUpdateEverywhereAbcast"]


class EagerUpdateEverywhereAbcast(ReplicaProtocol):
    """Per-replica endpoint of eager update everywhere via ABCAST."""

    info = ProtocolInfo(
        name="eager_ue_abcast",
        title="Eager update everywhere, atomic broadcast",
        figure="Figure 9",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(SC, "abcast"),
                PhaseStep(EX),
                PhaseStep(END),
            ),
        ),
        client_policy="local",
        reads_anywhere=True,
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        if spec.abcast == "sequencer":
            self.abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_deliver,
                trace=replica.system.trace, channel_prefix="ueab",
            )
        else:
            self.abcast = ConsensusAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                self._on_deliver, trace=replica.system.trace,
                channel_prefix="ueab",
            )

    # -- delegate side ------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        self.abcast.abcast(
            "txn", request=request, client=client,
            delegate=self.replica.name,
        )

    # -- everywhere: ordered execution -----------------------------------------

    def _on_deliver(self, origin: str, mtype: str, body: dict) -> None:
        request = body["request"]
        rid = request.request_id
        if self.replica.cached_reply(rid) is not None:
            return  # a retry that was broadcast again already ran here
        self.phase(rid, SC, "abcast")
        self.phase(rid, EX)
        # Deterministic execution: every replica derives the same RNG from
        # the request id (stable CRC, not the salted built-in hash), so
        # update functions compute identical values at every site and run.
        request_rng = random.Random(zlib.crc32(rid.encode()))
        values, _updates = apply_request_to_store(self.store, request, request_rng)
        # Execution is deterministic, so every replica can populate the
        # duplicate-reply cache with the same values: a client retry that
        # lands on a *different* replica (the delegate crashed) is answered
        # from cache instead of re-abcast — exactly-once across failover.
        self.replica.remember_reply(rid, values)
        if body["delegate"] == self.replica.name:
            # Only the delegate answers — the client knows one server.
            self.respond(body["client"], request, committed=True, values=values)
