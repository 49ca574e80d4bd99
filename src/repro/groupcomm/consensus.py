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
   adopted it, -1 for its own initial value) to the coordinator;
2. the coordinator gathers a majority of estimates, picks the one with the
   highest adoption round, and proposes it to all;
3. each process either *acks* the proposal (adopting it) or, upon
   suspecting the coordinator, *nacks* and moves to the next round;
4. a coordinator that gathers a majority of acks reliably broadcasts the
   decision; the broadcast's agreement property makes the decision final
   everywhere.

Round 0 skips step 1: its coordinator proposes its own initial value at
once.  Before round 0 nothing has been adopted, so every estimate it could
gather is an initial value with adoption round -1, and proposing its own
is as safe as proposing any of them.  A value decided in round 0 was
adopted by a majority in round 0; every later majority of estimates holds
one of those, and it outranks every initial value.  A fault-free instance
thus ends after two communication steps (propose, ack) plus the
decision's broadcast.

Safety holds regardless of failure-detector behaviour; liveness needs the
detector to eventually stop suspecting some correct process.

A process keeps book-keeping only for instances it has not decided.  When
the decision arrives, the instance's estimates, proposals, replies and
waiters are dropped and only the key is remembered as decided, so a late
``estimate``/``propose``/``reply`` or a second ``decide`` for it is
discarded instead of opening the instance again.  A process that missed a
decision learns it from the decision's reliable broadcast, never from a
peer's consensus state.

A crash ends a process's round loops but not its book-keeping, and the
transport still delivers what the loops sent before it.  One retry
interval after recovering, a process resumes each instance it proposed for
that retransmission has not decided by then, in the round it stopped in:
a peer may be waiting on it as that round's coordinator, and it is no
longer suspected.  A resumed loop does not send again what it sent in
that round before the crash.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import ProcessInterrupted
from ..failures import FailureDetector
from ..net import Node
from ..sim import Future, Process, TraceLog
from .channels import ReliableTransport
from .rbcast import ReliableBroadcast

__all__ = ["Consensus", "ALREADY_DECIDED"]

ESTIMATE = "ct.estimate"
PROPOSE = "ct.propose"
REPLY = "ct.reply"
DECIDE_CHANNEL = "ct.decide"


class _Instance:
    """Book-keeping for one undecided consensus instance at one process."""

    def __init__(self, decided_future: Future) -> None:
        self.round = 0
        self.estimate: Any = None
        # The round the estimate was adopted in; -1 until one is adopted,
        # so a value adopted in round 0 (and maybe decided) outranks every
        # value never adopted.
        self.estimate_ts = -1
        self.loop: Optional[Process] = None  # the round loop, once proposed
        # the last round each of this process's messages went out in
        self.estimate_sent = -1
        self.proposal_sent = -1
        self.reply_sent = -1
        # round -> accumulated protocol state
        self.estimates: Dict[int, List[Tuple[int, str, Any]]] = {}
        self.proposals: Dict[int, Any] = {}
        self.replies: Dict[int, List[bool]] = {}
        # waiters, keyed by round
        self.estimate_waiters: Dict[int, Future] = {}
        self.proposal_waiters: Dict[int, Future] = {}
        self.reply_waiters: Dict[int, Future] = {}
        self.decided_future = decided_future


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
        instance at every member that delivers the decision, after the
        instance's state has been dropped; the value is not kept.
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
        self._instances: Dict[Any, _Instance] = {}  # undecided only
        self._decided: Set[Any] = set()
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
        node.add_recover_hook(self._on_recover)

    @property
    def majority(self) -> int:
        return len(self.group) // 2 + 1

    # -- public API --------------------------------------------------------

    def propose(self, instance: Any, value: Any) -> Future:
        """Propose ``value`` for ``instance``; returns a decision future.

        Proposing twice for the same instance is a no-op (the first value
        stands); the same decision future is returned.  Proposing for an
        instance this process has already decided opens nothing: the
        returned future is already resolved with :data:`ALREADY_DECIDED`,
        since the value itself went out through ``on_decide`` and is not
        kept.
        """
        state = self._state(instance)
        if state is None:
            future = self.node.sim.future(label=f"decide:{instance}")
            future.set_result(ALREADY_DECIDED)
            return future
        if state.loop is None:
            state.estimate = value
            state.loop = self.node.spawn(
                self._run(instance, state), name=f"{self.node.name}-ct-{instance}"
            )
        return state.decided_future

    def _on_recover(self) -> None:
        self.node.after(self.transport.retry_interval, self._resume)

    def _resume(self) -> None:
        """Restart the round loops a crash ended, for instances still open."""
        for instance, state in self._instances.items():
            if state.loop is not None and state.loop.done:
                state.loop = self.node.spawn(
                    self._run(instance, state), name=f"{self.node.name}-ct-{instance}"
                )

    # -- the round loop -------------------------------------------------------

    def _run(self, instance: Any, state: _Instance):
        sim = self.node.sim
        try:
            while not state.decided_future.done:
                r = state.round
                coordinator = self.group[r % len(self.group)]
                # A resumed loop skips the sends it made in this round
                # before the crash: a second estimate or reply from one
                # process would count twice towards a majority, and a
                # second proposal could differ from the first.
                if r > 0 and state.estimate_sent < r:
                    state.estimate_sent = r
                    self.transport.send(
                        coordinator,
                        self._types["estimate"],
                        instance=instance,
                        round=r,
                        ts=state.estimate_ts,
                        value=state.estimate,
                    )
                if coordinator == self.node.name and state.proposal_sent < r:
                    if r == 0:
                        # Round 0 has no phase 1: every estimate is still
                        # an initial value, so a majority of them could
                        # not outrank the coordinator's own.
                        estimates = [(state.estimate_ts, self.node.name, state.estimate)]
                    else:
                        estimates = yield self._race(
                            state, self._await_estimates(state, r)
                        )
                        if estimates is _DECIDED:
                            break
                    proposal = self._choose_estimate(instance, estimates)
                    state.proposal_sent = r
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
                if state.reply_sent < r:
                    state.reply_sent = r
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
            return  # node crashed; _resume restarts the loop after recovery

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

    def _state(self, instance: Any) -> Optional[_Instance]:
        """The open instance's book-keeping, made on first contact.

        None once the instance is decided here: late traffic for it is
        dropped, and nothing is made again.
        """
        state = self._instances.get(instance)
        if state is None:
            if instance in self._decided:
                return None
            state = _Instance(self.node.sim.future(label=f"decide:{instance}"))
            self._instances[instance] = state
        return state

    def _on_estimate(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        if state is None:
            return
        r = payload["round"]
        bucket = state.estimates.setdefault(r, [])
        bucket.append((payload["ts"], src, payload["value"]))
        waiter = state.estimate_waiters.get(r)
        if waiter is not None and len(bucket) >= self.majority and not waiter.done:
            del state.estimate_waiters[r]
            waiter.set_result(list(bucket))

    def _on_propose(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        if state is None:
            return
        r = payload["round"]
        state.proposals[r] = payload["value"]
        waiter = state.proposal_waiters.pop(r, None)
        if waiter is not None and not waiter.done:
            waiter.set_result(payload["value"])

    def _on_reply(self, src: str, payload: dict) -> None:
        state = self._state(payload["instance"])
        if state is None:
            return
        r = payload["round"]
        bucket = state.replies.setdefault(r, [])
        bucket.append(payload["ack"])
        waiter = state.reply_waiters.get(r)
        if waiter is not None and len(bucket) >= self.majority and not waiter.done:
            del state.reply_waiters[r]
            waiter.set_result(list(bucket))

    def _on_decide_msg(self, origin: str, mtype: str, body: dict) -> None:
        instance = body["instance"]
        if instance in self._decided:
            return  # a later round's coordinator decided it too
        self._decided.add(instance)
        # The instance's state goes here; its round loop, if one runs,
        # still holds it and ends when the decision future resolves.
        state = self._instances.pop(instance, None)
        if self.trace is not None:
            self.trace.record(
                "consensus", self.node.name,
                instance=instance, round=state.round if state is not None else 0,
            )
        if state is not None:
            state.decided_future.set_result(body["value"])
        self.on_decide(instance, body["value"])

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


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


_DECIDED = _Sentinel("DECIDED")  # a round's wait lost the race to the decision
ALREADY_DECIDED = _Sentinel("ALREADY_DECIDED")  # what ``propose`` resolves to late
