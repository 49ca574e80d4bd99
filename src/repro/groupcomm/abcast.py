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
  the primitive behind active replication's failure transparency.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..failures import FailureDetector
from ..net import Node
from ..sim import TraceLog
from .channels import ReliableTransport
from .consensus import Consensus
from .rbcast import ReliableBroadcast

__all__ = ["InOrder", "SequencerAtomicBroadcast", "ConsensusAtomicBroadcast"]


class InOrder:
    """The hold-back cursor: positions (sequence numbers, consensus
    instances, slots) decided in any order, acted on in position order."""

    __slots__ = ("next", "_held", "_claimed")

    def __init__(self) -> None:
        self.next = 0          # position of the next value to release
        self._held: Dict[int, Any] = {}
        self._claimed = -1

    def put(self, position: int, value: Any) -> Iterator[Any]:
        """Hold ``value``, then yield every held value whose turn has come.

        A position already released or held is dropped.  The cursor moves
        past each value before yielding it: its position is ``next - 1``.
        """
        if position < self.next or position in self._held:
            return
        self._held[position] = value
        while self.next in self._held:
            value = self._held.pop(self.next)
            self.next += 1
            yield value

    def claim(self) -> Optional[int]:
        """The cursor's position, to propose for: once, then None."""
        fresh = self._claimed != self.next
        self._claimed = self.next
        return self.next if fresh else None


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

    Messages are first disseminated with reliable broadcast; members then
    agree, one consensus instance per batch, on the set of messages forming
    the next slice of the total order.  Within a decided batch, messages
    are delivered in deterministic uid order.  Decisions are applied in
    instance order, so the delivery sequence is identical everywhere.

    Tolerates crashes of any minority of the group, including mid-broadcast
    sender crashes, and works with the unreliable failure detector (wrong
    suspicions cost extra rounds, never safety).

    State is kept only for what is not settled yet: disseminated messages
    waiting to be ordered, decisions waiting for the ones before them, and
    the uids ordered before their dissemination reached this node (until
    it does).  No uid is in two decided batches — see :meth:`_on_decide`
    — so delivered uids need not be remembered.
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
        self._unordered: Dict[str, Tuple[str, str, dict]] = {}
        # Ordered (and delivered) before their dissemination arrived here.
        self._delivered: Set[str] = set()
        self._delivered_count = 0
        self._decided = InOrder()   # decided batches, applied in instance order
        self._rb = ReliableBroadcast(
            node, transport, group, self._on_disseminate, channel=f"{channel_prefix}.msg"
        )
        self._consensus = Consensus(
            node, transport, group, detector, self._on_decide,
            trace=trace, channel_prefix=f"{channel_prefix}.ct",
        )

    def abcast(self, mtype: str, **body: Any) -> str:
        """Atomically broadcast ``body`` to the group; returns the uid."""
        uid = f"{self.node.name}#{self.node.fresh_uid()}"
        self._rb.broadcast("msg", uid=uid, origin=self.node.name, m=mtype, body=body)
        return uid

    # -- stage 1: dissemination ------------------------------------------------

    def _on_disseminate(self, _origin: str, _mtype: str, body: dict) -> None:
        uid = body["uid"]
        if uid in self._delivered:
            # Reliable broadcast delivers each uid once per node: this is
            # the last this node hears of it.
            self._delivered.discard(uid)
            return
        self._unordered[uid] = (body["origin"], body["m"], body["body"])
        self._maybe_propose()

    # -- stage 2: ordering -------------------------------------------------------

    def _maybe_propose(self) -> None:
        # Consensus keeps the first proposal per instance: claim it once.
        instance = self._decided.claim() if self._unordered else None
        if instance is None:
            return
        batch = [
            [uid, origin, mtype, body]
            for uid, (origin, mtype, body) in sorted(self._unordered.items())
        ]
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
            for uid, origin, mtype, body in ready:
                if self._unordered.pop(uid, None) is None:
                    self._delivered.add(uid)
                self._delivered_count += 1
                if self.trace is not None:
                    self.trace.record(
                        "abcast", self.node.name,
                        instance=self._decided.next - 1, uid=uid, mtype=mtype,
                    )
                self.deliver(origin, mtype, body)
        self._maybe_propose()

    def __repr__(self) -> str:
        return (
            f"<ConsensusAtomicBroadcast@{self.node.name} "
            f"delivered={self._delivered_count} unordered={len(self._unordered)}>"
        )
