"""Chandra–Toueg consensus with an unreliable failure detector.

Section 2.1 of the paper explains why distributed systems go to this
trouble: in the asynchronous model crash detection is unreliable, yet
non-blocking replication needs the replicas to agree.  The rotating-
coordinator algorithm of Chandra and Toueg solves consensus with a
majority of correct processes and an eventually-strong failure detector —
exactly the machinery hidden inside the ABCAST and VSCAST primitives the
paper builds on.

Algorithm sketch (per instance, per round ``r`` with coordinator
``group[r mod n]``):

1. every process sends its current *estimate* (with the round that last
   adopted it) to the coordinator;
2. the coordinator gathers a majority of estimates, picks the one with the
   highest adoption round, and proposes it to all;
3. each process either *acks* the proposal (adopting it) or, upon
   suspecting the coordinator, *nacks* and moves to the next round;
4. a coordinator that gathers a majority of acks reliably broadcasts the
   decision; the broadcast's agreement property makes the decision final
   everywhere.

Safety holds regardless of failure-detector behaviour; liveness needs the
detector to eventually stop suspecting some correct process.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import ProcessInterrupted
from ..failures import FailureDetector
from ..net import Node
from ..sim import Future, TraceLog
from .channels import ReliableTransport
from .rbcast import ReliableBroadcast

__all__ = ["Consensus"]

ESTIMATE = "ct.estimate"
PROPOSE = "ct.propose"
REPLY = "ct.reply"
DECIDE_CHANNEL = "ct.decide"


class _Instance:
    """Book-keeping for one consensus instance at one process."""

    def __init__(self) -> None:
        self.round = 0
        self.estimate: Any = None
        self.estimate_ts = -1
        self.proposed = False
        self.decided = False
        self.decision: Any = None
        # round -> accumulated protocol state
        self.estimates: Dict[int, List[Tuple[int, str, Any]]] = {}
        self.proposals: Dict[int, Any] = {}
        self.replies: Dict[int, List[bool]] = {}
        # waiters, keyed by round
        self.estimate_waiters: Dict[int, Future] = {}
        self.proposal_waiters: Dict[int, Future] = {}
        self.reply_waiters: Dict[int, Future] = {}
        self.decided_future: Optional[Future] = None


class Consensus:
    """Per-node multi-instance Chandra–Toueg consensus endpoint.

    Parameters
    ----------
    node, transport, group:
        Hosting node, its reliable transport, and the static member list.
    detector:
        The node's failure detector (provides coordinator suspicion).
    on_decide:
        Upcall ``on_decide(instance, value)``, invoked exactly once per
        instance at every member that delivers the decision.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        detector: FailureDetector,
        on_decide: Callable[[Any, Any], None],
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "ct",
    ) -> None:
        self.node = node
        self.transport = transport
        self.group = list(group)
        self.detector = detector
        self.on_decide = on_decide
        self.trace = trace
        self._instances: Dict[Any, _Instance] = {}
        p = channel_prefix
        self._types = {
            "estimate": f"{p}.estimate",
            "propose": f"{p}.propose",
            "reply": f"{p}.reply",
        }
        transport.on(self._types["estimate"], self._on_estimate)
        transport.on(self._types["propose"], self._on_propose)
        transport.on(self._types["reply"], self._on_reply)
        self._decider = ReliableBroadcast(
            node, transport, group, self._on_decide_msg, channel=f"{p}.decide"
        )

    @property
    def majority(self) -> int:
        return len(self.group) // 2 + 1

    # -- public API --------------------------------------------------------

    def propose(self, instance: Any, value: Any) -> Future:
        """Propose ``value`` for ``instance``; returns a decision future.

        Proposing twice for the same instance is a no-op (the first value
        stands); the same decision future is returned.
        """
        state = self._state(instance)
        if state.decided_future is None:
            state.decided_future = self.node.sim.future(label=f"decide:{instance}")
        if state.proposed:
            return state.decided_future
        state.proposed = True
        state.estimate = value
        state.estimate_ts = 0
        if not state.decided:
            self.node.spawn(self._run(instance, state), name=f"{self.node.name}-ct-{instance}")
        return state.decided_future

    def decision_of(self, instance: Any) -> Optional[Any]:
        """The decided value, or None if this instance is still open."""
        state = self._instances.get(instance)
        if state is None or not state.decided:
            return None
        return state.decision

    # -- the round loop -------------------------------------------------------

    def _run(self, instance: Any, state: _Instance):
        sim = self.node.sim
        try:
            while not state.decided:
                r = state.round
                coordinator = self.group[r % len(self.group)]
                self.transport.send(
                    coordinator,
                    self._types["estimate"],
                    instance=instance,
                    round=r,
                    ts=state.estimate_ts,
                    value=state.estimate,
                )
                if coordinator == self.node.name:
                    outcome = yield self._race(state, self._await_estimates(state, r))
                    if outcome is _DECIDED:
                        break
                    proposal = self._choose_estimate(instance, outcome)
                    for member in self.group:
                        self.transport.send(
                            member,
                            self._types["propose"],
                            instance=instance,
                            round=r,
                            value=proposal,
                        )
                # Phase 3: adopt the proposal or give up on the coordinator.
                proposal = self._await_proposal(state, r)
                suspicion, listener = self._suspicion(coordinator)
                try:
                    waited = yield self._race(
                        state,
                        sim.any_of(
                            [proposal, suspicion], label=f"phase3:{instance}:{r}"
                        ),
                    )
                finally:
                    # Decided either way, or the node crashed: the detector
                    # keeps one listener per live round, not per round run.
                    self.detector.off_suspect(listener)
                if waited is _DECIDED:
                    break
                index, _value = waited
                if index == 0:
                    state.estimate = state.proposals[r]
                    state.estimate_ts = r
                    ack = True
                else:
                    ack = False
                self.transport.send(
                    coordinator,
                    self._types["reply"],
                    instance=instance,
                    round=r,
                    ack=ack,
                )
                if coordinator == self.node.name:
                    outcome = yield self._race(state, self._await_replies(state, r))
                    if outcome is _DECIDED:
                        break
                    if all(outcome):
                        self._decider.broadcast(
                            "decide", instance=instance, value=state.estimate
                        )
                state.round = r + 1
        except ProcessInterrupted:
            return  # node crashed; instance dies with it

    def _choose_estimate(self, instance: Any, estimates: List[Tuple[int, str, Any]]) -> Any:
        """Pick the estimate adopted most recently; break ties by name.

        Overridden by :class:`~repro.groupcomm.deferred.DeferredConsensus`
        to compute the initial value lazily at the coordinator.
        """
        best_ts, _src, value = max(estimates, key=lambda e: (e[0], e[1]))
        del best_ts
        return value

    # -- waiters --------------------------------------------------------------

    def _race(self, state: _Instance, future: Future) -> Future:
        """Race a protocol future against this instance's decision."""
        sim = self.node.sim
        combined = sim.future(label="race")
        def on_either(index_value):
            index, value = index_value
            combined.try_set_result(_DECIDED if index == 1 else value)
        inner = sim.any_of([future, state.decided_future])
        inner.add_callback(lambda f: on_either(f.result))
        return combined

    def _await_estimates(self, state: _Instance, r: int) -> Future:
        future = self.node.sim.future(label=f"estimates:{r}")
        have = state.estimates.get(r, [])
        if len(have) >= self.majority:
            future.set_result(list(have))
        else:
            state.estimate_waiters[r] = future
        return future

    def _await_proposal(self, state: _Instance, r: int) -> Future:
        future = self.node.sim.future(label=f"proposal:{r}")
        if r in state.proposals:
            future.set_result(state.proposals[r])
        else:
            state.proposal_waiters[r] = future
        return future

    def _await_replies(self, state: _Instance, r: int) -> Future:
        future = self.node.sim.future(label=f"replies:{r}")
        have = state.replies.get(r, [])
        if len(have) >= self.majority:
            future.set_result(list(have))
        else:
            state.reply_waiters[r] = future
        return future

    # -- message handlers ---------------------------------------------------------

    def _state(self, instance: Any) -> _Instance:
        state = self._instances.get(instance)
        if state is None:
            state = _Instance()
            self._instances[instance] = state
        if state.decided_future is None:
            state.decided_future = self.node.sim.future(label=f"decide:{instance}")
        return state

    def _on_estimate(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        r = payload["round"]
        bucket = state.estimates.setdefault(r, [])
        bucket.append((payload["ts"], src, payload["value"]))
        waiter = state.estimate_waiters.get(r)
        if waiter is not None and len(bucket) >= self.majority and not waiter.done:
            del state.estimate_waiters[r]
            waiter.set_result(list(bucket))

    def _on_propose(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        r = payload["round"]
        state.proposals[r] = payload["value"]
        waiter = state.proposal_waiters.pop(r, None)
        if waiter is not None and not waiter.done:
            waiter.set_result(payload["value"])

    def _on_reply(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        r = payload["round"]
        bucket = state.replies.setdefault(r, [])
        bucket.append(payload["ack"])
        waiter = state.reply_waiters.get(r)
        if waiter is not None and len(bucket) >= self.majority and not waiter.done:
            del state.reply_waiters[r]
            waiter.set_result(list(bucket))

    def _on_decide_msg(self, origin: str, mtype: str, body: dict) -> None:
        state = self._state(body["instance"])
        if state.decided:
            return
        state.decided = True
        state.decision = body["value"]
        if self.trace is not None:
            self.trace.record(
                "consensus", self.node.name,
                instance=body["instance"], value=repr(body["value"]), round=state.round,
            )
        if not state.decided_future.done:
            state.decided_future.set_result(body["value"])
        self.on_decide(body["instance"], body["value"])

    def _suspicion(self, peer: str) -> Tuple[Future, Callable[[str], None]]:
        """Future resolving when the failure detector suspects ``peer``.

        Also returns the detector listener feeding it, which the caller
        hands to ``off_suspect`` once it stops waiting.
        """
        future = self.node.sim.future(label=f"suspect:{peer}")
        def listener(name: str) -> None:
            if name == peer:
                future.try_set_result(peer)
        if self.detector.is_suspected(peer):
            future.set_result(peer)
        else:
            self.detector.on_suspect(listener)
        return future, listener


class _DecidedSentinel:
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DECIDED>"


_DECIDED = _DecidedSentinel()
