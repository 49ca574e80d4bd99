"""Certification-based database replication (Section 5.4.2, Figure 14).

The optimistic member of the family: "it makes sense ... to use shadow
copies at one site to perform the operations and then, once the
transaction is completed, send all the changes in one single message.
... the agreement coordination phase ... involves deciding whether the
operations can be executed correctly ... a certification step during
which sites make sure they can execute transactions in the order
specified by the total order established by ABCAST."

Figure 16 classifies these techniques as the only update-everywhere ones
without an initial SC phase: "optimistic in the sense that they do the
processing without initial synchronisation, and abort transactions in
order to maintain consistency".

Mechanics:

* RE: the client contacts its local replica (the *delegate*).
* EX: the delegate executes the whole transaction on **shadow copies** —
  no locks, no communication — recording the readset (items + versions)
  and buffering the writeset.
* The (readset, writeset) pair is ABCAST to all replicas.
* AC = **certification**: each replica runs the identical deterministic
  test (:class:`~repro.db.Certifier`) in delivery order; passing
  writesets are applied, failing transactions abort everywhere without
  any extra message round.
* END: the delegate reports commit or abort to the client.
"""

from __future__ import annotations

import itertools
from typing import Dict, Set

from collections import deque

from ...db import Certifier
from ...groupcomm import (
    ConsensusAtomicBroadcast,
    OptimisticAtomicBroadcast,
    SequencerAtomicBroadcast,
)
from ..operations import Request
from ..phases import AC, END, EX, RE, PhaseDescriptor, PhaseStep
from .base import ProtocolInfo, ReplicaProtocol, optimistic_execute

__all__ = ["CertificationReplication"]


class CertificationReplication(ReplicaProtocol):
    """Per-replica endpoint of certification-based replication."""

    info = ProtocolInfo(
        name="certification",
        title="Certification-based replication",
        figure="Figure 14",
        community="db",
        descriptor=PhaseDescriptor(
            steps=(
                PhaseStep(RE),
                PhaseStep(EX, "shadow"),
                PhaseStep(AC, "abcast+certification"),
                PhaseStep(END),
            ),
        ),
        client_policy="local",
        reads_anywhere=True,
    )

    def __init__(self, replica, group, spec) -> None:
        super().__init__(replica, group, spec)
        self.certifier = Certifier(self.store, mode=spec.certification_mode)
        self.processing_time = float(spec.processing_time)
        self.optimistic = bool(spec.optimistic)
        if self.optimistic:
            self.abcast = OptimisticAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                opt_deliver=self._on_tentative,
                final_deliver=self._on_final_optimistic,
                flavour=spec.abcast, trace=replica.system.trace,
                channel_prefix="cert",
            )
        elif spec.abcast == "sequencer":
            self.abcast = SequencerAtomicBroadcast(
                replica.node, replica.transport, group, self._on_deliver,
                trace=replica.system.trace, channel_prefix="cert",
            )
        else:
            self.abcast = ConsensusAtomicBroadcast(
                replica.node, replica.transport, group, replica.detector,
                self._on_deliver, trace=replica.system.trace,
                channel_prefix="cert",
            )
        self._certified: Set[str] = set()
        self._local_values: Dict[str, list] = {}
        self._local_clients: Dict[str, str] = {}
        # Per-broadcast execution nonce: _certified is keyed by it so a
        # duplicated delivery of one broadcast certifies once, while a
        # client retry (a *new* optimistic execution of the same request
        # after an abort) gets a fresh certification instead of being
        # silently swallowed at every replica.  It dedups a broadcast,
        # not a request, so it is not the replica's reply_cache: an
        # aborted request has no entry there and must be certified again.
        self._exec_seq = itertools.count(1)
        # Speculative-processing pipeline (optimistic mode): work started
        # at tentative delivery, consumed at final delivery.
        self._spec_queue: deque = deque()
        self._spec_busy = False
        self._spec_finish_at: Dict[str, float] = {}

    # -- delegate side ----------------------------------------------------------

    def handle_request(self, request: Request, client: str) -> None:
        rid = request.request_id
        # EX on shadow copies, before any coordination (optimistic).
        self.phase(rid, EX, "shadow")
        values, readset, writeset, base_versions = optimistic_execute(
            self.store, request, self.rng
        )
        self._local_values[rid] = values
        self._local_clients[rid] = client
        self.abcast.abcast(
            "certify",
            request=request,
            readset=readset,
            writeset=writeset,
            base_versions=base_versions,
            delegate=self.replica.name,
            exec=f"{self.replica.name}:{next(self._exec_seq)}",
        )

    # -- everywhere: totally ordered certification ---------------------------------

    def _on_deliver(self, origin: str, mtype: str, body: dict) -> None:
        """Classic path: certify at final delivery, pay processing there."""
        self._certify_and_reply(body, extra_delay=self.processing_time)

    def _certify_and_reply(self, body: dict, extra_delay: float) -> None:
        request = body["request"]
        rid = request.request_id
        exec_id = body.get("exec", rid)
        if exec_id in self._certified:
            return
        self._certified.add(exec_id)
        cached = self.replica.cached_reply(rid)
        if cached is not None:
            # An earlier attempt of this request already committed; this
            # broadcast is a retry that raced the first commit's delivery.
            # Certifying it against the already-applied writeset would
            # double-apply, so replay the commit instead.
            if body["delegate"] == self.replica.name:
                client = self._local_clients.pop(rid, None)
                self._local_values.pop(rid, None)
                if client is not None:
                    self.respond(client, request, committed=True, values=cached)
            return
        self.phase(rid, AC, "certification")
        outcome = self.certifier.certify(
            body["readset"], body["writeset"], base_versions=body["base_versions"]
        )
        if outcome.committed:
            # Cache the commit at *every* replica, not just the delegate:
            # a retry after the delegate crashed must not re-run the
            # optimistic execution against the already-applied writeset
            # (it would certify cleanly and double-apply).  Non-delegates
            # never saw the read values, so they cache an empty value list
            # — the retrying client still gets its committed verdict.
            self.replica.remember_reply(rid, self._local_values.get(rid, []))
        if body["delegate"] != self.replica.name:
            return
        client = self._local_clients.pop(rid, None)
        values = self._local_values.pop(rid, [])
        if client is None:
            return

        def reply() -> None:
            if outcome.committed:
                self.respond(client, request, committed=True, values=values)
            else:
                self.respond(
                    client, request, committed=False,
                    reason=f"certification conflict on {outcome.conflicts}",
                )

        if extra_delay > 0:
            self.replica.node.after(extra_delay, reply)
        else:
            reply()

    # -- optimistic path ([KPAS99a]) -------------------------------------------------

    def _on_tentative(self, origin: str, mtype: str, body: dict) -> None:
        """Start the certification work as soon as the message arrives."""
        if self.processing_time <= 0:
            return
        rid = body["request"].request_id
        self._spec_queue.append(rid)
        self._pump_speculation()

    def _pump_speculation(self) -> None:
        if self._spec_busy or not self._spec_queue:
            return
        self._spec_busy = True
        rid = self._spec_queue.popleft()
        self._spec_finish_at[rid] = self.sim.now + self.processing_time

        def work():
            yield self.sim.timeout(self.processing_time)
            self._spec_busy = False
            self._pump_speculation()

        self.replica.node.spawn(work(), name=f"cert-spec-{rid}")

    def _on_final_optimistic(self, origin: str, mtype: str, body: dict,
                             matched: bool) -> None:
        rid = body["request"].request_id
        # Valid speculation continues where it stands: the reply only
        # waits for the *remaining* work, i.e. the part of the processing
        # the ordering latency did not manage to hide.  A mismatch means
        # the speculative work is worthless and the full cost is paid.
        if matched and rid in self._spec_finish_at:
            remaining = max(0.0, self._spec_finish_at[rid] - self.sim.now)
        else:
            remaining = self.processing_time
        self._certify_and_reply(body, extra_delay=remaining)
