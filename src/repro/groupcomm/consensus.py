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
   everywhere.  A coordinator whose majority held a nack moves to the
   next round, and sends that round's estimate to every member, not
   only to the next coordinator.

Round 0 skips step 1: its coordinator proposes its own initial value at
once.  Before round 0 nothing has been adopted, so every estimate it could
gather is an initial value with adoption round -1, and proposing its own
is as safe as proposing any of them.  A value decided in round 0 was
adopted by a majority in round 0; every later majority of estimates holds
one of those, and it outranks every initial value.  A fault-free instance
thus ends after two communication steps (propose, ack) plus the
decision's broadcast.

A process that acked round ``r``, and a coordinator that broadcast the
decision, do not move on at once: they wait for the decision, a
suspicion of round ``r``'s coordinator, or a message of a later round.
A fault-free instance thus sends no estimate at all.  The one case an
acker cannot tell from a slow decision is a majority that held a nack;
the coordinator's estimate to every member is then the later round's
message that wakes it.

A process that has not proposed for an instance joins it when a
proposal or an estimate for it arrives, with an unset estimate.  It acks
what it is proposed and its estimate counts towards a majority, but a
coordinator proposes only a set value: if every estimate it holds is
unset, its own included, it waits for one, from ``propose`` or a later
estimate.  An unset estimate never outranks a set one, and any set one
is safe to propose where nothing was adopted.

Safety holds regardless of failure-detector behaviour; liveness needs the
detector to eventually stop suspecting some correct process.

A process keeps book-keeping only for instances it has not decided.  When
the decision arrives, the instance's estimates, proposals and replies are
dropped and only the key is remembered as decided, so a late
``estimate``/``propose``/``reply`` or a second ``decide`` for it is
discarded instead of opening the instance again.  A process that missed a
decision learns it from the decision's reliable broadcast, never from a
peer's consensus state.

A process runs an instance's rounds as steps, not as a simulated process.
The instance records where its round stands: about to send, waiting for
a majority of estimates, waiting for the proposal or a suspicion of the
coordinator, waiting for a majority of replies, or settled (acked, or
broadcast the decision).  ``propose``, each arriving estimate, proposal
and reply, a suspicion of the coordinator and a restart advance it as
far as what is in hand allows.  A crash stops an instance's rounds where
they stand but keeps its book-keeping, and the transport still delivers
what was sent before it.  One retry interval after recovering, a process
restarts each instance it proposed for or joined that retransmission has
not decided by then, in the round it stopped in: a peer may be waiting
on it as that round's coordinator, and it is no longer suspected.  A
restarted round does not send again what it sent before the crash: no
second estimate, proposal, reply or decision.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .channels import ReliableTransport
from .rbcast import ReliableBroadcast

__all__ = ["Consensus"]

# Where an instance stands at one process.  Its rounds run in the last
# five; the first two take no step.
_IDLE = 0       # neither proposed for nor joined here
_STOPPED = 1    # stopped by a crash, or ended by the decision
_SEND = 2       # about to send the round's estimate and proposal
_ESTIMATES = 3  # coordinator: waiting for a majority of estimates
_PROPOSAL = 4   # waiting for the proposal or a suspicion of the coordinator
_REPLIES = 5    # coordinator: waiting for a majority of replies
_SETTLED = 6    # acked, or broadcast the decision: waiting for the decision,
                # a suspicion of the coordinator or a message of a later round


class _Unset:
    """The estimate of a process that joined an instance without a value,
    or has not computed its value yet."""

    __slots__ = ()

    def __reduce__(self) -> str:
        # Copies are the one instance: a duplicated packet's deep copy of
        # an estimate must still read as unset in ``_choose_estimate``.
        return "_UNSET"


_UNSET = _Unset()


class _Instance:
    """Book-keeping for one undecided consensus instance at one process."""

    def __init__(self) -> None:
        self.round = 0
        self.stage = _IDLE
        self.estimate: Any = _UNSET
        # The round the estimate was adopted in; -1 until one is adopted,
        # so a value adopted in round 0 (and maybe decided) outranks every
        # value never adopted.
        self.estimate_ts = -1
        # the highest round of any estimate, proposal or reply received
        self.heard = -1
        # The step advancing the rounds (bound by ``_start``), and the
        # detector listener of a round waiting for its proposal.
        self.step: Callable[[], None]
        self.listener: Optional[Callable[[str], None]] = None
        # the last round each of this process's messages went out in
        self.estimate_sent = -1
        self.proposal_sent = -1
        self.reply_sent = -1
        self.decision_sent = -1
        # round -> accumulated protocol state
        self.estimates: Dict[int, List[Tuple[int, str, Any]]] = {}
        self.proposals: Dict[int, Any] = {}
        self.replies: Dict[int, List[bool]] = {}


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

    def propose(self, instance: Any, value: Any) -> None:
        """Propose ``value`` for ``instance``; the decision comes through
        ``on_decide``.

        Proposing twice for the same instance is a no-op (the first value
        stands), and so is proposing for an instance already decided here:
        nothing is opened and nothing sent.  An instance joined without a
        value takes ``value`` unless it has adopted one.
        """
        state = self._state(instance)
        if state is None or state.estimate is not _UNSET:
            return
        state.estimate = value
        if state.stage == _IDLE:
            self._start(instance, state)
        elif state.stage == _ESTIMATES:
            state.step()  # a coordinator waiting for a value to propose

    def _start(self, instance: Any, state: _Instance) -> None:
        """(Re)start the rounds one event from now, as a spawned process
        would, and run every step under the span current now."""
        state.stage = _SEND
        state.step = self.node.bind(self._advance, instance, state)
        self.node.sim.call_soon(state.step)

    def _on_recover(self) -> None:
        # The crash stopped every instance's rounds where they stood.
        for state in self._instances.values():
            if state.stage >= _SEND:
                state.stage = _STOPPED
                self._unwatch(state)
        self.node.after(self.transport.retry_interval, self._resume)

    def _resume(self) -> None:
        """Restart the rounds a crash stopped, for instances still open."""
        for instance, state in self._instances.items():
            if state.stage == _STOPPED:
                self._start(instance, state)

    # -- the rounds -----------------------------------------------------------

    def _advance(self, instance: Any, state: _Instance) -> None:
        """Take every step of the rounds that what is in hand allows.

        A crashed process takes none; a start scheduled just before its
        crash still fires.
        """
        while not self.node.crashed:
            r = state.round
            coordinator = self.group[r % len(self.group)]
            stage = state.stage
            if stage == _SEND:
                # A restarted round skips the sends it made before the
                # crash: a second estimate or reply from one process would
                # count twice towards a majority, and a second proposal
                # could differ from the first.
                if r > 0 and state.estimate_sent < r:
                    self._send_estimate(instance, state, [coordinator])
                if coordinator == self.node.name and state.proposal_sent < r:
                    state.stage = _ESTIMATES
                else:
                    state.stage = _PROPOSAL
            elif stage == _ESTIMATES:
                # Round 0 has no phase 1: every estimate is still an
                # initial value, so a majority of them could not outrank
                # the coordinator's own.  In a later round the
                # coordinator's own estimate is in the majority already,
                # unless it was unset then.
                estimates = state.estimates.get(r, [])
                if r > 0 and len(estimates) < self.majority:
                    return
                proposal = self._choose_estimate(
                    instance, estimates + [(state.estimate_ts, self.node.name, state.estimate)]
                )
                if proposal is _UNSET:
                    return  # every estimate is unset: wait for a value
                state.proposal_sent = r
                for member in self.group:
                    self.transport.send(
                        member, self._types["propose"],
                        instance=instance, round=r, value=proposal,
                    )
                state.stage = _PROPOSAL
            elif stage == _PROPOSAL:
                # Phase 3: adopt the proposal or give up on the
                # coordinator; a proposal in hand wins over a suspicion.
                ack = r in state.proposals
                if ack:
                    state.estimate = state.proposals[r]
                    state.estimate_ts = r
                elif not self.detector.is_suspected(coordinator):
                    # A coordinator waits for its own proposal, one event
                    # away, with no watch: it never suspects itself.
                    if coordinator != self.node.name:
                        self._watch(state, coordinator)
                    return
                if state.reply_sent < r:
                    state.reply_sent = r
                    self.transport.send(
                        coordinator, self._types["reply"],
                        instance=instance, round=r, ack=ack,
                    )
                if coordinator == self.node.name:
                    self._unwatch(state)
                    state.stage = _REPLIES
                elif ack:
                    # The listener stays: a suspicion of the coordinator
                    # still ends the wait.
                    state.stage = _SETTLED
                else:
                    self._unwatch(state)
                    state.round = r + 1
                    state.stage = _SEND
            elif stage == _REPLIES:
                replies = state.replies.get(r, [])
                if len(replies) < self.majority:
                    return
                if all(replies):
                    if state.decision_sent < r:
                        state.decision_sent = r
                        self._decider.broadcast(
                            "decide", instance=instance, value=state.estimate
                        )
                    state.stage = _SETTLED
                else:
                    # This round's ackers wait for a message of a later
                    # round: the next round's estimate goes to every
                    # member, not only to the next coordinator.
                    state.round = r + 1
                    state.stage = _SEND
                    self._send_estimate(
                        instance, state,
                        [m for m in self.group if m != self.node.name],
                    )
            elif stage == _SETTLED:
                if state.heard <= r and not self.detector.is_suspected(coordinator):
                    if state.listener is None and coordinator != self.node.name:
                        self._watch(state, coordinator)
                    return
                self._unwatch(state)
                state.round = r + 1
                state.stage = _SEND
            else:
                return  # idle, or stopped

    def _send_estimate(self, instance: Any, state: _Instance, members: List[str]) -> None:
        """Send the estimate for the instance's current round, once."""
        r = state.round
        state.estimate_sent = r
        for member in members:
            self.transport.send(
                member, self._types["estimate"], instance=instance,
                round=r, ts=state.estimate_ts, value=state.estimate,
            )

    def _choose_estimate(self, instance: Any, estimates: List[Tuple[int, str, Any]]) -> Any:
        """Pick the set estimate adopted most recently; break ties by name.

        ``_UNSET`` if every estimate is unset.  Overridden by
        :class:`~repro.groupcomm.deferred.DeferredConsensus` to compute
        the initial value lazily at the coordinator.
        """
        concrete = [e for e in estimates if e[2] is not _UNSET]
        if not concrete:
            return _UNSET
        return max(concrete, key=lambda e: (e[0], e[1]))[2]

    def _watch(self, state: _Instance, coordinator: str) -> None:
        """Step the round when the detector suspects its coordinator; the
        listener goes when the wait ends, so the detector holds one per
        waiting round, not one per round run."""
        def listener(name: str) -> None:
            if name == coordinator and state.listener is listener:
                state.step()

        state.listener = listener
        self.detector.on_suspect(listener)

    def _unwatch(self, state: _Instance) -> None:
        if state.listener is not None:
            self.detector.off_suspect(state.listener)
            state.listener = None

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
            state = _Instance()
            self._instances[instance] = state
        return state

    def _on_estimate(self, src: str, payload: dict) -> None:
        instance = payload["instance"]
        state = self._state(instance)
        if state is None:
            return
        r = payload["round"]
        state.estimates.setdefault(r, []).append((payload["ts"], src, payload["value"]))
        self._arrived(instance, state, r, _ESTIMATES, join=True)

    def _on_propose(self, src: str, payload: dict) -> None:
        instance = payload["instance"]
        state = self._state(instance)
        if state is None:
            return
        r = payload["round"]
        state.proposals[r] = payload["value"]
        self._arrived(instance, state, r, _PROPOSAL, join=True)

    def _on_reply(self, src: str, payload: dict) -> None:
        instance = payload["instance"]
        state = self._state(instance)
        if state is None:
            return
        r = payload["round"]
        state.replies.setdefault(r, []).append(payload["ack"])
        self._arrived(instance, state, r, _REPLIES, join=False)

    def _arrived(self, instance: Any, state: _Instance, r: int, stage: int, join: bool) -> None:
        """Step the instance if round ``r``'s message of the kind ``stage``
        waits for moves it on; an estimate or a proposal for an instance
        this process has not proposed for makes it join, with an unset
        estimate."""
        state.heard = max(state.heard, r)
        if state.stage == _IDLE:
            if join:
                self._start(instance, state)
        elif state.round == r and state.stage == stage or (
            state.stage == _SETTLED and state.round < r
        ):
            state.step()

    def _on_decide_msg(self, origin: str, mtype: str, body: dict) -> None:
        instance = body["instance"]
        if instance in self._decided:
            return  # a later round's coordinator decided it too
        self._decided.add(instance)
        state = self._instances.pop(instance, None)
        if self.trace is not None:
            self.trace.record(
                "consensus", self.node.name,
                instance=instance, round=state.round if state is not None else 0,
            )
        if state is not None:
            state.stage = _STOPPED
            self._unwatch(state)
        self.on_decide(instance, body["value"])
