"""Heartbeat-based unreliable failure detector.

Section 2.1 of the paper observes that in the asynchronous model crash
detection is necessarily *incorrect* at times: a slow process may be
suspected although it has not crashed.  This detector reproduces that
behaviour faithfully:

* every monitored node emits heartbeats each ``interval``;
* a peer is **suspected** when no heartbeat arrived for ``timeout``;
* a heartbeat from a suspected peer **rehabilitates** it and increases
  that peer's timeout by :data:`TIMEOUT_BACKOFF` — the classic
  eventually-perfect (diamond-P style) construction, strong enough to
  stand in for the eventually-strong detector that Chandra–Toueg
  consensus requires.

Small timeouts give fast crash detection but frequent wrong suspicions —
exactly the trade-off the paper's semi-passive discussion (Section 3.5)
refers to with "aggressive time-outs".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set

from ..net import Message, Node
from ..sim import TraceLog

__all__ = ["FailureDetector"]

HEARTBEAT = "fd.heartbeat"

# Added to a peer's timeout at each wrong suspicion of it, so suspicions
# of live peers eventually stop.
TIMEOUT_BACKOFF = 10.0


class FailureDetector:
    """Per-node failure-detector module.

    Parameters
    ----------
    node:
        The hosting node.  The detector registers its message handler and
        periodic timers on it, so it dies with the node.
    peers:
        Names of the nodes to monitor (may include ``node.name``; the local
        node is never suspected).
    interval:
        Heartbeat emission period.
    timeout:
        Initial silence threshold before suspecting a peer.
    """

    def __init__(
        self,
        node: Node,
        peers: List[str],
        interval: float = 5.0,
        timeout: float = 20.0,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.node = node
        self.peers = [p for p in peers if p != node.name]
        self.interval = interval
        self.trace = trace
        self.suspected: Set[str] = set()
        self.wrong_suspicions = 0
        self._timeouts: Dict[str, float] = {p: timeout for p in self.peers}
        self._last_heard: Dict[str, float] = {p: node.sim.now for p in self.peers}
        self._suspect_listeners: List[Callable[[str], None]] = []
        self._restore_listeners: List[Callable[[str], None]] = []
        node.on(HEARTBEAT, self._on_heartbeat)
        node.every(interval, self._emit)
        node.every(interval, self._check)
        node.add_recover_hook(self._restart)

    # -- observation API --------------------------------------------------

    def is_suspected(self, peer: str) -> bool:
        return peer in self.suspected

    def trusted(self, members: Iterable[str]) -> List[str]:
        """``members`` that are not suspected, in their order.  The own
        node is never suspected, so it is kept wherever it is listed."""
        return [member for member in members if member not in self.suspected]

    def on_suspect(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(peer)`` whenever a peer becomes suspected."""
        self._suspect_listeners.append(listener)

    def off_suspect(self, listener: Callable[[str], None]) -> None:
        """Stop calling ``listener`` (a no-op when it is not registered).

        For waits that end: consensus watches its coordinator for one
        round at a time and must not leave a listener behind per round.
        """
        try:
            self._suspect_listeners.remove(listener)
        except ValueError:
            pass

    def on_restore(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(peer)`` when a suspected peer proves alive."""
        self._restore_listeners.append(listener)

    # -- internals ------------------------------------------------------------

    def _emit(self) -> None:
        for peer in self.peers:
            self.node.send(peer, HEARTBEAT)

    def _on_heartbeat(self, message: Message) -> None:
        peer = message.src
        self._last_heard[peer] = self.node.sim.now
        if peer in self.suspected:
            self.suspected.discard(peer)
            self.wrong_suspicions += 1
            self._timeouts[peer] = self._timeouts.get(peer, 0.0) + TIMEOUT_BACKOFF
            if self.trace is not None:
                self.trace.record("fd", self.node.name, action="restore", peer=peer)
            for listener in self._restore_listeners:
                listener(peer)

    def _restart(self) -> None:
        """Re-arm heartbeats after the hosting node recovers.

        The crash cancelled both periodic timers, and the stale
        ``last_heard`` entries would instantly (and wrongly) suspect every
        peer, so the horizon is reset to the recovery instant.
        """
        now = self.node.sim.now
        for peer in self.peers:
            self._last_heard[peer] = now
        self.suspected.clear()
        self.node.every(self.interval, self._emit)
        self.node.every(self.interval, self._check)
        self._emit()

    def _check(self) -> None:
        now = self.node.sim.now
        for peer in self.peers:
            if peer in self.suspected:
                continue
            if now - self._last_heard[peer] > self._timeouts[peer]:
                self.suspected.add(peer)
                if self.trace is not None:
                    self.trace.record("fd", self.node.name, action="suspect", peer=peer)
                # A snapshot: a listener may off_suspect() itself or a
                # later one while the loop runs.
                for listener in tuple(self._suspect_listeners):
                    listener(peer)

    def __repr__(self) -> str:
        return (
            f"<FailureDetector@{self.node.name} suspected={sorted(self.suspected)} "
            f"wrong={self.wrong_suspicions}>"
        )
