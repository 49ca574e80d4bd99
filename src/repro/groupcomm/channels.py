"""Reliable point-to-point channels (retransmission + deduplication).

The raw :class:`~repro.net.Network` may lose messages.  Quasi-reliable
channels — "if neither endpoint crashes, every message sent is eventually
delivered, exactly once, in FIFO order" — are the lowest abstraction the
paper's group-communication primitives assume.  :class:`ReliableTransport`
builds them with positive acknowledgements, retransmission and
receiver-side sequence tracking.

Retransmission state is per *peer*: one window of unacked frames and one
retry timer per destination, which retransmits only the oldest frame — a
*probe* — so a silent peer costs one frame per ``retry_interval``, not
one per frame waiting for it.  The backlog is resent in one pass once the
peer is known to be back: when a probe's ack arrives (links are FIFO, so
whatever was sent before the probe and is still unacked was lost) or when
the owner says so (:meth:`ReliableTransport.resend_unacked`).

Acks are cumulative: one ``rt.ack`` carries the highest sequence number
delivered in order from that source, and the sender drops every frame up
to it.  A frame that arrives in order is acked a quarter of
``retry_interval`` later, together with whatever else arrives in order
meanwhile; a frame out of order, a duplicate or a retransmission is
acked at once, so a probe's ack is as prompt as ever.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, Optional

from ..net import Message, Node
from ..sim import Timer

__all__ = ["InOrder", "ReliableTransport"]

DATA = "rt.data"
ACK = "rt.ack"


class InOrder:
    """The hold-back cursor: positions (frame and broadcast sequence
    numbers, consensus instances, slots) that arrive or are decided in any
    order, acted on in position order."""

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


class _Unacked:
    """A frame awaiting its ack, with its last transmit time and transmit count."""

    __slots__ = ("frame", "sent_at", "transmits")

    def __init__(self, frame: dict) -> None:
        self.frame = frame
        self.sent_at = 0.0
        self.transmits = 0


class ReliableTransport:
    """Per-node reliable-channel endpoint.

    Upper layers register an *upcall* per inner message type with
    :meth:`on`, and send with :meth:`send`.  While a peer has unacked
    frames the oldest is retransmitted every ``retry_interval``, and once
    the peer answers whatever else was lost is resent at once; duplicates
    created by retransmission are suppressed with per-sender sequence
    numbers, and delivery to the upcall is in per-sender FIFO order.

    One transport instance per node; all reliable upper layers share it.
    ``transmits`` counts the DATA frames it put on the wire, first
    transmissions and repeats, and ``retransmits`` the repeats alone.
    Acks are cumulative and, for frames that arrive in order, delayed by
    ``retry_interval / 4`` to cover every such frame of the interval.
    """

    def __init__(self, node: Node, retry_interval: float = 5.0) -> None:
        self.node = node
        self.retry_interval = retry_interval
        self._upcalls: Dict[str, Callable[[str, dict], None]] = {}
        self._undelivered: Dict[str, list] = {}
        self._next_seq: Dict[str, int] = {}          # per destination
        # Per destination: the unacked frames by seq, oldest first, their
        # one retry timer, and when the backlog was last resent.
        self._windows: Dict[str, Dict[int, _Unacked]] = defaultdict(dict)
        self._retry_timers: Dict[str, Timer] = {}
        self._last_pass: Dict[str, float] = {}
        self._from: Dict[str, InOrder] = defaultdict(InOrder)  # per source
        self._ack_timers: Dict[str, Timer] = {}                # per source
        self.transmits = 0
        self.retransmits = 0
        node.on(DATA, self._on_data)
        node.on(ACK, self._on_ack)
        # A crash cancels the node's timers; without them a frame lost
        # before it would hold the receiver's FIFO queue back for ever.
        node.add_recover_hook(self._on_recover)

    def on(self, inner_type: str, upcall: Callable[[str, dict], None]) -> None:
        """Register ``upcall(src, payload)`` for reliable messages of a type.

        Messages of a type that arrived before registration are buffered
        and drained (in arrival order) as soon as the upcall appears; this
        lets components be created lazily (e.g. one consensus endpoint per
        group view) without losing early traffic.
        """
        if inner_type in self._upcalls:
            raise ValueError(f"{self.node.name}: duplicate reliable upcall {inner_type!r}")
        self._upcalls[inner_type] = upcall
        for src, payload in self._undelivered.pop(inner_type, []):
            self.node.sim.call_soon(self._upcall, inner_type, src, payload)

    def send(self, dst: str, inner_type: str, **payload: Any) -> None:
        """Reliably send ``payload`` to ``dst`` (exactly-once, FIFO)."""
        if dst == self.node.name:
            # Local delivery short-circuits the network entirely.
            self.node.sim.call_soon(self._deliver_local, inner_type, payload)
            return
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        frame = {"seq": seq, "inner_type": inner_type, "body": payload}
        self._windows[dst][seq] = _Unacked(frame)
        self._transmit(dst, seq)
        self._arm(dst, self.retry_interval)

    def resend_unacked(self, dst: str, before: float = float("inf")) -> None:
        """Retransmit the unacked frames to ``dst`` last sent before ``before``.

        For when ``dst`` is known to be reachable again.
        """
        self._last_pass[dst] = self.node.sim.now
        for seq, entry in self._windows[dst].items():
            if entry.sent_at < before:
                self._transmit(dst, seq)

    def send_to_group(self, members: list, inner_type: str, **payload: Any) -> None:
        """Reliable point-to-point send to every member (incl. self)."""
        for member in members:
            self.send(member, inner_type, **payload)

    # -- internals ---------------------------------------------------------

    def _deliver_local(self, inner_type: str, payload: dict) -> None:
        if self.node.crashed:
            return
        self._upcall(inner_type, self.node.name, payload)

    def _transmit(self, dst: str, seq: int) -> None:
        """Put one DATA frame on the wire (first transmission or repeat)."""
        entry = self._windows[dst][seq]
        entry.sent_at = self.node.sim.now
        entry.transmits += 1
        self.transmits += 1
        if entry.transmits > 1:
            self.retransmits += 1
            entry.frame["again"] = True  # a repeat is acked at once
        self.node.send(dst, DATA, **entry.frame)

    def _arm(self, dst: str, delay: float) -> None:
        timer = self._retry_timers.get(dst)
        if timer is None or timer.cancelled:  # never armed, fired, or lost to a crash
            self._retry_timers[dst] = self.node.after(delay, self._on_retry, dst)

    def _on_recover(self) -> None:
        for dst, window in self._windows.items():
            if window:
                self._arm(dst, self.retry_interval)

    def _on_retry(self, dst: str) -> None:
        window = self._windows[dst]
        if not window:
            return  # nothing to watch: the next send arms a new timer
        seq, oldest = next(iter(window.items()))
        wait = oldest.sent_at + self.retry_interval - self.node.sim.now
        if wait <= 0:
            self._transmit(dst, seq)  # the probe
            wait = self.retry_interval
        self._arm(dst, wait)

    def _on_data(self, message: Message) -> None:
        src = message.src
        seq = message["seq"]
        cursor = self._from[src]
        repeat = seq < cursor.next or "again" in message.payload
        in_order = seq == cursor.next and not repeat
        released = list(cursor.put(seq, message))
        # The ack is settled on arrival, before any upcall runs.  A frame
        # ahead of a gap gets none of its own: an ack says `next - 1`,
        # which that frame does not move.
        if repeat:
            self._ack(src)
        elif in_order:
            timer = self._ack_timers.get(src)
            if timer is None or timer.cancelled:  # none pending, fired, or lost to a crash
                self._ack_timers[src] = self.node.after(
                    self.retry_interval / 4, self._ack, src
                )
        for frame in released:
            self._upcall(frame["inner_type"], src, frame["body"])

    def _ack(self, src: str) -> None:
        """Ack everything delivered in order from ``src`` so far."""
        timer = self._ack_timers.pop(src, None)
        if timer is not None:
            timer.cancel()  # this ack covers what the pending one would
        self.node.send(src, ACK, seq=self._from[src].next - 1)

    def _on_ack(self, message: Message) -> None:
        src = message.src
        window = self._windows[src]
        # Acks only ever drop a prefix, so the window is one run of seqs.
        first = next(iter(window), message["seq"] + 1)
        repeated = -1.0
        for seq in range(first, message["seq"] + 1):
            entry = window.pop(seq)
            if entry.transmits > 1:
                repeated = max(repeated, entry.sent_at)
        # A retransmission got through, so the peer is back, and FIFO
        # links would have brought the ack of anything sent earlier with
        # it: what is still unacked from before it was lost.  One pass per
        # silence — the frames a pass resends carry the time of the pass.
        if repeated > self._last_pass.get(src, -1.0):
            self.resend_unacked(src, before=repeated)

    def _upcall(self, inner_type: str, src: str, payload: dict) -> None:
        upcall = self._upcalls.get(inner_type)
        if upcall is None:
            self._undelivered.setdefault(inner_type, []).append((src, payload))
            return
        upcall(src, payload)

    def __repr__(self) -> str:
        unacked = sum(len(window) for window in self._windows.values())
        return f"<ReliableTransport@{self.node.name} unacked={unacked}>"
