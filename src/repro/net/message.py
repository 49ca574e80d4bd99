"""Network message representation.

Messages are small typed envelopes: a ``type`` string used for handler
dispatch plus a free-form payload dictionary.  Protocol layers agree on the
payload keys for each message type; keeping the payload schemaless avoids a
combinatorial explosion of dataclasses across the dozen protocols in the
library while the ``type`` field keeps dispatch explicit.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["Message"]


class Message:
    """An envelope travelling between two nodes.

    Attributes
    ----------
    msg_id:
        Identifier assigned by the :class:`~repro.net.network.Network`
        that sends the message (unique within one network).
    src, dst:
        Names of the sending and receiving nodes.
    type:
        Dispatch key, e.g. ``"abcast.deliver"`` or ``"2pc.vote_request"``.
    payload:
        Message body.  Accessible via mapping syntax: ``msg["key"]``.
    send_time:
        Simulated time at which the message entered the network.
    reply_to:
        Correlation id for request/reply exchanges (see ``Node.call``).
    span_id:
        Observability metadata: id of the flight span an observer opened
        for this envelope (``None`` when the run is not observed).  It
        piggybacks on the envelope — not the payload — so observed and
        unobserved runs put identical bytes on the simulated wire.
    deadline:
        Absolute simulated time after which the sender no longer cares
        about this request (``None`` when the sender set no budget).  Like
        ``span_id`` it rides on the envelope, not the payload: a deadline
        is routing/service metadata, not protocol state, and servers use
        it to shed work for requests the client has already abandoned.
    """

    __slots__ = (
        "msg_id", "src", "dst", "type", "payload", "send_time", "reply_to",
        "span_id", "deadline",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        type: str,
        payload: Optional[Dict[str, Any]] = None,
        send_time: float = 0.0,
        reply_to: Optional[int] = None,
        msg_id: int = 0,
    ) -> None:
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.type = type
        self.payload = payload if payload is not None else {}
        self.send_time = send_time
        self.reply_to = reply_to
        self.span_id: Optional[int] = None
        self.deadline: Optional[float] = None

    def __getitem__(self, key: str) -> Any:
        return self.payload[key]

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.src}->{self.dst} "
            f"{self.type} {self.payload!r}>"
        )
