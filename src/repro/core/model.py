"""The abstract replication protocol of Figure 1.

Section 2.2 introduces replication through a protocol that is pure
structure: a client submits an operation, the servers coordinate, execute,
coordinate again, and respond.  This module makes that abstraction
runnable — :class:`AbstractReplicationProtocol` walks the five phases over
a real simulated network with pluggable per-phase behaviour, and is what
the Figure 1 benchmark executes and renders.

It is also the reference implementation the concrete techniques are
measured against: each of them is this walk with phases merged, reordered,
skipped or looped.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net import ConstantLatency, Network, Node
from ..sim import Simulator, TraceLog
from .phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep, PhaseTracer

__all__ = ["AbstractReplicationProtocol", "GENERIC_DESCRIPTOR"]

# Bound on each SC/AC coordination round-trip.  The walk runs over a
# ConstantLatency(1.0) network, so a healthy round completes in ~2 time
# units; a peer that takes 30 has crashed under the crash-stop model and
# waiting longer cannot help (Section 2.2 assumes fail-stop servers).
COORDINATION_TIMEOUT = 30.0

GENERIC_DESCRIPTOR = PhaseDescriptor(
    steps=(
        PhaseStep(RE),
        PhaseStep(SC),
        PhaseStep(EX),
        PhaseStep(AC),
        PhaseStep(END),
    ),
)


class AbstractReplicationProtocol:
    """An executable rendering of the paper's five-phase functional model.

    Builds one client and ``replicas`` server nodes, then runs the generic
    protocol for a single update:

    1. **RE** — the client sends the operation to replica 1.
    2. **SC** — replica 1 exchanges a coordination round with the others.
    3. **EX** — every replica executes (applies the update locally).
    4. **AC** — a second coordination round (everyone acknowledges).
    5. **END** — replica 1 responds to the client.

    The per-phase hooks let experiments skip or merge phases to produce
    each derived shape of Figure 15.
    """

    def __init__(
        self,
        replicas: int = 3,
        seed: int = 0,
        skip_phases: Optional[List[str]] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.trace = TraceLog(self.sim)
        self.tracer = PhaseTracer(self.trace)
        self.network = Network(self.sim, latency=ConstantLatency(1.0))
        self.skip = set(skip_phases or [])
        self.client = Node(self.sim, self.network, "client")
        self.replicas = [
            Node(self.sim, self.network, f"replica{i + 1}") for i in range(replicas)
        ]
        self.state: Dict[str, Dict[str, object]] = {
            node.name: {} for node in self.replicas
        }
        self._wire()

    def _wire(self) -> None:
        self.client.on("response", self._on_response)
        for node in self.replicas:
            node.on("request", self._make_handler(node))
            node.on("coordinate", self._make_coordinate_handler(node))
        self._response_future = None
        # Duplicate-reply cache for the abstract walk: request ids that
        # already completed the five phases.  A retried request is answered
        # with a fresh END response instead of a second RE..AC walk, the
        # same exactly-once contract the concrete techniques implement.
        self._responded: set = set()

    # -- the walk ---------------------------------------------------------

    def run_update(self, item: str, value: object, request_id: str = "req-1") -> float:
        """Execute one five-phase update; returns the client latency."""
        self._response_future = self.sim.future(label="client-response")
        start = self.sim.now
        self.tracer.record("client", request_id, RE)
        self.client.send(
            self.replicas[0].name, "request",
            request_id=request_id, item=item, value=value,
        )
        self.sim.run_until_done(self._response_future)
        return self.sim.now - start

    def _make_handler(self, node: Node) -> Callable:
        def handle(message) -> None:
            if message["request_id"] in self._responded:
                node.send("client", "response", request_id=message["request_id"])
                return
            node.spawn(self._serve(node, message), name=f"{node.name}-serve")
        return handle

    def _serve(self, node: Node, message):
        request_id = message["request_id"]
        item, value = message["item"], message["value"]
        contact = node.name
        others = [n.name for n in self.replicas if n.name != contact]
        self.tracer.record(contact, request_id, RE)
        # Phase 2: server coordination (one round-trip to every replica).
        if SC not in self.skip:
            self.tracer.record(contact, request_id, SC)
            yield self.sim.all_of(
                [node.call(peer, "coordinate", phase=SC, request_id=request_id,
                           item=item, value=value,
                           timeout=COORDINATION_TIMEOUT) for peer in others]
            )
        # Phase 3: execution at every replica (coordination shipped state).
        self.tracer.record(contact, request_id, EX)
        self.state[contact][item] = value
        if SC in self.skip:
            # Without prior coordination the contact must ship the
            # operation now so the others can execute/apply it.
            for peer in others:
                node.send(peer, "coordinate", phase=EX, request_id=request_id,
                          item=item, value=value)
        # Phase 4: agreement coordination (second round-trip).
        if AC not in self.skip:
            self.tracer.record(contact, request_id, AC)
            yield self.sim.all_of(
                [node.call(peer, "coordinate", phase=AC, request_id=request_id,
                           item=item, value=value,
                           timeout=COORDINATION_TIMEOUT) for peer in others]
            )
        # Phase 5: response.
        self.tracer.record(contact, request_id, END)
        self._responded.add(request_id)
        node.send("client", "response", request_id=request_id)

    def _make_coordinate_handler(self, node: Node) -> Callable:
        def handle(message) -> None:
            phase = message["phase"]
            self.tracer.record(node.name, message["request_id"], phase)
            if phase in (SC, EX):
                self.state[node.name][message["item"]] = message["value"]
            node.reply(message, ack=True)
        return handle

    def _on_response(self, message) -> None:
        self.tracer.record("client", message["request_id"], END)
        if self._response_future is not None and not self._response_future.done:
            self._response_future.set_result(message["request_id"])

    # -- observation --------------------------------------------------------

    def consistent(self) -> bool:
        states = {tuple(sorted(s.items())) for s in self.state.values()}
        return len(states) == 1

    def contact_sequence(self, request_id: str = "req-1") -> List[str]:
        return self.tracer.observed_sequence(request_id, source=self.replicas[0].name)
