"""Two-phase commit (2PC): the database Agreement Coordination mechanism.

In the paper's analysis, the AC phase of eager database replication "usually
corresponds to a Two Phase Commit Protocol" (Section 2.2): ordering
operations is not enough, because "in a database, there can be many reasons
why an operation succeeds at one site and not at another".  2PC lets every
site veto.

This implementation is deliberately *blocking*, as the paper notes database
protocols are: a participant that voted yes waits for the coordinator's
decision and holds its locks; if the coordinator crashes, the participant
stays blocked until an operator-like recovery step (``resolve_in_doubt``)
is invoked.  The failover benchmark measures exactly this cost.

Message loss, however, must not look like a coordinator crash: a dropped
DECISION would otherwise leave one participant holding locks (and a stale
store) forever while everyone else committed.  Participants therefore run
the classic termination protocol — an in-doubt participant periodically
asks the coordinator for the outcome (``2pc.status``), the first time
``DECISION_TIMEOUT`` after its yes vote.  The coordinator
journals every decision in the same simulated event as the first decision
send, so a journal miss (``known=False``) only ever means the round is
still in flight and a real DECISION is coming; the participant keeps
waiting.  A coordinator that is down simply doesn't answer — the
participant stays blocked until it recovers, which is the blocking
behaviour the paper ascribes to 2PC.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..errors import NodeCrashed
from ..net import Message, Node
from ..sim import Future, TraceLog

__all__ = ["TwoPhaseCoordinator", "TwoPhaseParticipant"]

PREPARE = "2pc.prepare"
DECISION = "2pc.decision"
STATUS = "2pc.status"

# How long an in-doubt participant waits before asking the coordinator's
# decision journal, and how long it waits for that answer.
DECISION_TIMEOUT = 30.0

# How long the coordinator waits for the participants' votes before it
# aborts the round.
VOTE_TIMEOUT = 50.0


class TwoPhaseCoordinator:
    """Coordinator side of 2PC, one instance per node.

    :meth:`run` drives one commit round as a simulated sub-protocol and
    returns a future resolving to True (committed) or False (aborted).
    """

    def __init__(
        self,
        node: Node,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.node = node
        self.trace = trace
        self.rounds = 0
        self.committed = 0
        self.aborted = 0
        # Decision journal: written in the same event as the first
        # decision send, so an absent entry means no commit ever left this
        # coordinator (the presumed-abort invariant behind _on_status).
        self.decided: Dict[Any, bool] = {}
        node.on(STATUS, self._on_status)

    def run(self, txn_id: Any, participants: List[str], local_vote: bool = True) -> Future:
        """Run 2PC for ``txn_id`` across ``participants`` (remote sites).

        ``local_vote`` is the coordinator's own vote.  The returned future
        resolves with the global decision.
        """
        result = self.node.sim.future(label=f"2pc:{txn_id}")
        self.node.spawn(self._run(txn_id, list(participants), local_vote, result))
        return result

    def _run(self, txn_id: Any, participants: List[str], local_vote: bool, result: Future):
        self.rounds += 1
        votes_ok = local_vote
        if votes_ok and participants:
            calls = [
                self.node.call(p, PREPARE, timeout=VOTE_TIMEOUT, txn=txn_id)
                for p in participants
            ]
            try:
                replies = yield self.node.sim.all_of(calls)
                votes_ok = all(reply["vote"] for reply in replies)
            except (TimeoutError, NodeCrashed):
                votes_ok = False
        decision = bool(votes_ok)
        if self.trace is not None:
            self.trace.record(
                "2pc", self.node.name, txn=txn_id,
                decision="commit" if decision else "abort",
            )
        self.decided[txn_id] = decision
        for participant in participants:
            self.node.send(participant, DECISION, txn=txn_id, commit=decision)
        if decision:
            self.committed += 1
        else:
            self.aborted += 1
        result.set_result(decision)
        return decision

    def _on_status(self, message: Message) -> None:
        """Answer an in-doubt participant's termination-protocol query.

        ``known=False`` means the round is still collecting votes (even a
        coordinator crash journals an abort on its way down, because the
        :class:`~repro.errors.NodeCrashed` interrupt lands at the vote
        wait); the participant keeps waiting for the real DECISION.
        """
        txn_id = message["txn"]
        self.node.reply(
            message,
            known=txn_id in self.decided,
            commit=self.decided.get(txn_id, False),
        )


class TwoPhaseParticipant:
    """Participant side of 2PC, one instance per node.

    ``on_prepare(txn_id, coordinator) -> bool`` computes the local vote
    (``coordinator`` is the node that sent the PREPARE, so protocols can
    fence rounds from a coordinator that lost its role — e.g. a deposed
    primary); voting yes puts the transaction *in doubt* until the
    decision arrives.  ``on_decision(txn_id, commit)`` applies the
    outcome.

    Watches fall due in vote order, so a participant keeps them in one
    :class:`~repro.net.DueQueue`, not one process per vote; a transaction
    still in doubt at its due instant is chased by a termination process
    started then.
    """

    def __init__(
        self,
        node: Node,
        on_prepare: Callable[[Any, str], bool],
        on_decision: Callable[[Any, bool], None],
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.node = node
        self.on_prepare = on_prepare
        self.on_decision = on_decision
        self.trace = trace
        self.in_doubt: Dict[Any, float] = {}
        self.terminations = 0
        # A crash cancels the watches, as it interrupted the processes
        # that once slept here.
        self._watches = node.due_queue(DECISION_TIMEOUT, self.in_doubt.__contains__)
        node.on(PREPARE, self._on_prepare_msg)
        node.on(DECISION, self._on_decision_msg)

    def _on_prepare_msg(self, message: Message) -> None:
        txn_id = message["txn"]
        vote = bool(self.on_prepare(txn_id, message.src))
        if vote and txn_id not in self.in_doubt:
            self.in_doubt[txn_id] = self.node.sim.now
            # The chase runs under this handler's span.
            self._watches.defer(txn_id, self.node.bind(self._chase, message.src))
        self.node.reply(message, vote=vote)

    def _chase(self, coordinator: str, txn_id: Any) -> None:
        self.node.spawn(
            self._terminate(txn_id, coordinator), name=f"2pc-indoubt-{txn_id}"
        )

    def _terminate(self, txn_id: Any, coordinator: str):
        """Cooperative termination: chase a decision that never arrived.

        Started once ``txn_id`` has been in doubt for ``DECISION_TIMEOUT``:
        asks the coordinator's decision journal at once, then again every
        ``DECISION_TIMEOUT`` while the transaction stays in doubt.  A dead
        coordinator doesn't answer (the call times out) and the
        participant stays blocked — only *message loss* is repaired here,
        not coordinator failure.
        """
        sim = self.node.sim
        while True:
            try:
                reply = yield self.node.call(
                    coordinator, STATUS, timeout=DECISION_TIMEOUT,
                    txn=txn_id,
                )
            except (TimeoutError, NodeCrashed):
                reply = None
            if txn_id not in self.in_doubt:
                return
            if reply is not None and reply["known"]:
                self.terminations += 1
                if self.trace is not None:
                    self.trace.record(
                        "2pc", self.node.name, txn=txn_id,
                        decision="commit" if reply["commit"] else "abort",
                        via="termination",
                    )
                self.in_doubt.pop(txn_id, None)
                self.on_decision(txn_id, reply["commit"])
                return
            yield sim.timeout(DECISION_TIMEOUT)
            if txn_id not in self.in_doubt:
                return

    def _on_decision_msg(self, message: Message) -> None:
        txn_id = message["txn"]
        self.in_doubt.pop(txn_id, None)
        self.on_decision(txn_id, message["commit"])

    def resolve_in_doubt(self, commit: bool = False) -> List[Any]:
        """Operator intervention: settle all in-doubt transactions.

        The paper (Section 2.1): database protocols "may admit, in some
        cases, operator intervention to solve abnormal cases ... a way to
        circumvent blocking".  Returns the transactions resolved.
        """
        stuck = list(self.in_doubt)
        for txn_id in stuck:
            self.in_doubt.pop(txn_id, None)
            self.on_decision(txn_id, commit)
        return stuck

    def blocked_for(self, txn_id: Any) -> Optional[float]:
        """How long ``txn_id`` has been in doubt, or None."""
        since = self.in_doubt.get(txn_id)
        return None if since is None else self.node.sim.now - since

    def __repr__(self) -> str:
        return f"<TwoPhaseParticipant@{self.node.name} in_doubt={len(self.in_doubt)}>"
