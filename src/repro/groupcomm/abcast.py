"""Atomic broadcast (ABCAST): totally ordered, reliable delivery.

The paper's Section 3.1 definition: if one member of the group delivers
*m*, all non-crashed members eventually deliver *m* (atomicity), and any
two members delivering *m* and *m'* deliver them in the same order (total
order).

Two classic implementations are provided:

* :class:`SequencerAtomicBroadcast` — a fixed member assigns a global
  sequence number to every message; everyone delivers in sequence order.
  Two message hops, minimal cost, but the total order is only maintained
  while the sequencer stays up.  Used for failure-free experiments.
* :class:`ConsensusAtomicBroadcast` — the Chandra–Toueg reduction of
  atomic broadcast to a series of consensus instances on message batches.
  Tolerates a minority of crashes and unreliable failure detection; this is
  the primitive behind active replication's failure transparency.  Each
  message is sent once to every member, except by round 0's coordinator:
  its own messages ride in its proposals, and are sent to the others only
  if a decision leaves them out.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .channels import InOrder, ReliableTransport
from .consensus import Consensus
from .rbcast import ReliableBroadcast

__all__ = ["SequencerAtomicBroadcast", "ConsensusAtomicBroadcast"]


class SequencerAtomicBroadcast:
    """Fixed-sequencer ABCAST endpoint.

    ``abcast`` forwards the message to the sequencer (the first group
    member); the sequencer stamps it with the next global sequence number
    and reliably broadcasts the stamped message; members deliver stamped
    messages in sequence order via a hold-back queue.

    The sequencer is a single point of order: this implementation is the
    lightweight option for experiments without sequencer crashes (the
    paper's failure-free comparisons).  Use
    :class:`ConsensusAtomicBroadcast` when crashes must be masked.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        deliver: Callable[[str, str, dict], None],
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "seqab",
    ) -> None:
        self.node = node
        self.transport = transport
        self.group = list(group)
        self.deliver = deliver
        self.trace = trace
        self.sequencer = self.group[0]
        self._req_type = f"{channel_prefix}.req"
        self._next_seq = 0        # sequencer-side counter
        self._order = InOrder()   # member-side hold-back
        transport.on(self._req_type, self._on_request)
        self._order_rb = ReliableBroadcast(
            node, transport, group, self._on_order, channel=f"{channel_prefix}.order"
        )

    def abcast(self, mtype: str, **body: Any) -> str:
        """Atomically broadcast ``body`` to the group; returns the uid."""
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        self.transport.send(
            self.sequencer, self._req_type,
            uid=uid, origin=self.node.name, m=mtype, body=body,
        )
        return uid

    def _on_request(self, src: str, payload: dict) -> None:
        if self.node.name != self.sequencer:
            return  # stale request to a non-sequencer; ignore
        seq = self._next_seq
        self._next_seq += 1
        self._order_rb.broadcast(
            "order", seq=seq,
            uid=payload["uid"], origin=payload["origin"],
            m=payload["m"], body=payload["body"],
        )

    def _on_order(self, _origin: str, _mtype: str, body: dict) -> None:
        held = (body["origin"], body["m"], body["body"])
        for origin, mtype, inner in self._order.put(body["seq"], held):
            if self.trace is not None:
                self.trace.record(
                    "abcast", self.node.name,
                    seq=self._order.next - 1, origin=origin, mtype=mtype,
                )
            self.deliver(origin, mtype, inner)

    def __repr__(self) -> str:
        return f"<SequencerAtomicBroadcast@{self.node.name} seq={self.sequencer}>"


class ConsensusAtomicBroadcast:
    """Fault-tolerant ABCAST via reduction to consensus.

    Messages are first disseminated with one reliable send to each member;
    members then agree, one consensus instance per batch, on the set of
    messages forming the next slice of the total order.  Within a decided
    batch, messages are delivered in deterministic uid order.  Decisions
    are applied in instance order, so the delivery sequence is identical
    everywhere.

    Dissemination is not relayed.  A member A-delivers only from a
    decided batch, the batch carries each message's body, and the
    decision's reliable broadcast (which relays) brings it to every
    correct member.  A correct origin's frames reach every member through
    the transport; a crashed origin's message is either in a decided
    batch, and so delivered everywhere, or delivered nowhere.  Atomicity
    comes from the decision broadcast, not from relaying the
    dissemination.

    Round 0's coordinator (``group[0]``) sends no frame for its own
    messages: the next proposal it makes carries them, and the members
    join that instance when the proposal arrives.  Only if it applies a
    decision for an instance it proposed in, and the decision leaves out
    one of those messages (its round 0 failed), does it send that message
    to every other member, once, as any other origin would.  Each batch
    entry records whether a frame was sent for it, so a member expects a
    frame only for an entry that has one.

    Tolerates crashes of any minority of the group, including mid-broadcast
    sender crashes, and works with the unreliable failure detector (wrong
    suspicions cost extra rounds, never safety).

    State is kept only for what is not settled yet: disseminated messages
    waiting to be ordered, decisions waiting for the ones before them, and
    the uids ordered before the frame sent for them reached this node
    (until it does; a uid whose crashed origin's frame to this node was
    lost stays there).  No uid is in two decided batches — see
    :meth:`_on_decide` — so delivered uids need not be remembered.
    """

    def __init__(
        self,
        node: Node,
        transport: ReliableTransport,
        group: List[str],
        detector: FailureDetector,
        deliver: Callable[[str, str, dict], None],
        trace: Optional[TraceLog] = None,
        channel_prefix: str = "ctab",
    ) -> None:
        self.node = node
        self.transport = transport
        self.group = list(group)
        self.deliver = deliver
        self.trace = trace
        # uid -> (origin, mtype, body, spread): spread is False for the
        # round-0 coordinator's own messages it has sent no frame for.
        self._unordered: Dict[str, Tuple[str, str, dict, bool]] = {}
        # Ordered (and delivered) before their dissemination arrived here.
        self._delivered: Set[str] = set()
        # The instance this node last proposed for, and the unsent uids
        # its batch carried.
        self._proposed: Tuple[int, List[str]] = (-1, [])
        self._delivered_count = 0
        self._decided = InOrder()   # decided batches, applied in instance order
        self._msg_type = f"{channel_prefix}.msg"
        transport.on(self._msg_type, self._on_disseminate)
        self._consensus = Consensus(
            node, transport, group, detector, self._on_decide,
            trace=trace, channel_prefix=f"{channel_prefix}.ct",
        )

    def abcast(self, mtype: str, **body: Any) -> str:
        """Atomically broadcast ``body`` to the group; returns the uid."""
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        # Round 0's coordinator keeps its own message: its next proposal
        # carries it.
        members = [self.node.name] if self.node.name == self.group[0] else self.group
        self.transport.send_to_group(members, self._msg_type, uid=uid, m=mtype, body=body)
        return uid

    # -- stage 1: dissemination ------------------------------------------------

    def _on_disseminate(self, origin: str, payload: dict) -> None:
        uid = payload["uid"]
        if uid in self._delivered:
            # The transport delivers each frame once, and only the origin
            # sends one: this is the last this node hears of it.
            self._delivered.discard(uid)
            return
        spread = not origin == self.node.name == self.group[0]
        self._unordered[uid] = (origin, payload["m"], payload["body"], spread)
        self._maybe_propose()

    def _spread(self, uid: str) -> None:
        """Send this node's unsent message to every other member."""
        origin, mtype, body, _ = self._unordered[uid]
        self._unordered[uid] = (origin, mtype, body, True)
        others = [member for member in self.group if member != self.node.name]
        self.transport.send_to_group(others, self._msg_type, uid=uid, m=mtype, body=body)

    # -- stage 2: ordering -------------------------------------------------------

    def _maybe_propose(self) -> None:
        # Consensus keeps the first proposal per instance: claim it once.
        instance = self._decided.claim() if self._unordered else None
        if instance is None:
            return
        batch = [[uid, *entry] for uid, entry in sorted(self._unordered.items())]
        self._proposed = (instance, [uid for uid, *_, spread in batch if not spread])
        self._consensus.propose(instance, batch)

    def _on_decide(self, instance: int, batch: list) -> None:
        """Deliver decided batches in instance order.

        No uid is in two decided batches, so none is delivered twice: a
        decided batch is some member's proposal, and a member proposes
        instance j only with the cursor at j, from messages not in any
        batch below j (applying a batch takes its uids out of
        ``_unordered``, and ``_delivered`` keeps a uid ordered ahead of its
        dissemination out of it).
        """
        for ready in self._decided.put(instance, batch):
            position = self._decided.next - 1
            for uid, origin, mtype, body, spread in ready:
                if self._unordered.pop(uid, None) is None and spread:
                    self._delivered.add(uid)
                self._delivered_count += 1
                if self.trace is not None:
                    self.trace.record(
                        "abcast", self.node.name,
                        instance=position, uid=uid, mtype=mtype,
                    )
                self.deliver(origin, mtype, body)
            proposed, unsent = self._proposed
            if proposed == position:
                # The decision left out messages only this node's
                # proposal carried: send them now, for any member to
                # propose.
                for uid in unsent:
                    if uid in self._unordered:
                        self._spread(uid)
        self._maybe_propose()

    def __repr__(self) -> str:
        return (
            f"<ConsensusAtomicBroadcast@{self.node.name} "
            f"delivered={self._delivered_count} unordered={len(self._unordered)}>"
        )
