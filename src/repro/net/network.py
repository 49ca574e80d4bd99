"""The simulated network fabric.

The :class:`Network` connects named nodes, delivers messages after a
latency sampled from a :class:`~repro.net.latency.LatencyModel`, and
implements the fault model needed by the paper's discussion:

* **Crash-stop nodes** — messages to or from a crashed node vanish.
* **Partitions** — the node set can be split into groups; cross-group
  messages are dropped until :meth:`heal` is called.
* **Message loss** — an optional uniform drop probability, used to test
  that the reliable channels in :mod:`repro.groupcomm` mask losses.
* **FIFO links** — each directed link delivers in send order (TCP-like),
  which Section 3.3 of the paper assumes for primary-backup
  communication.  Only a jitter fault reorders a link.

The network also keeps per-message-type counters: the message-overhead
benchmark (Section 6's promised performance study) reads protocol cost
directly from these.
"""

from __future__ import annotations

import copy
import itertools
from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, TYPE_CHECKING

from ..errors import NetworkError, SimulationError
from ..sim import Simulator
from .latency import ConstantLatency, LatencyModel
from .message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import Node

__all__ = ["Network", "NetworkStats"]


class NetworkStats:
    """Counters describing network usage during a run.

    Conservation invariant (checked by the robustness property tests):
    every envelope that enters the fabric leaves it exactly once, so
    ``delivered + dropped_loss + dropped_partition + dropped_crash +
    dropped_fault == sent + duplicated`` — fault-plane duplicates are
    extra envelopes and are counted on the right-hand side.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_partition = 0
        self.dropped_crash = 0
        self.dropped_fault = 0
        self.duplicated = 0
        self.by_type: Counter = Counter()

    def messages_matching(self, prefix: str) -> int:
        """Total sends whose message type starts with ``prefix``."""
        return sum(count for mtype, count in self.by_type.items() if mtype.startswith(prefix))

    def __repr__(self) -> str:
        return (
            f"<NetworkStats sent={self.sent} delivered={self.delivered} "
            f"lost={self.dropped_loss} partitioned={self.dropped_partition} "
            f"crashed={self.dropped_crash}>"
        )


class Network:
    """Message fabric connecting all nodes of a simulation.

    Parameters
    ----------
    sim:
        The simulator providing the clock, RNG and event queue.
    latency:
        Latency model for all links; defaults to one time unit per hop.
    loss_rate:
        Probability in ``[0, 1)`` that any individual message is silently
        dropped.  Reliable channels recover from this via retransmission.
    obs:
        Optional observer (duck-typed, see :mod:`repro.obs`): opens a
        flight span per send and closes it at delivery or drop.  The
        network never imports the observability layer — ``obs`` sits
        above ``net`` in the import DAG.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        obs: Optional[Any] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        self.loss_rate = loss_rate
        self.obs = obs
        self.stats = NetworkStats()
        self._nodes: Dict[str, "Node"] = {}
        self._partition: Optional[List[FrozenSet[str]]] = None
        # node name -> partition-group index, rebuilt on partition()/heal():
        # turns the per-message _same_side check into two dict lookups
        # instead of a scan over every group.
        self._group_of: Optional[Dict[str, int]] = None
        self._last_arrival: Dict[tuple, float] = {}
        self._message_ids = itertools.count(1)
        # Fault plane (chaos campaigns): per-node link misbehaviour, keyed
        # by node name.  All randomness draws from the dedicated
        # ``net.faults`` stream so arming a fault never perturbs the
        # latency/loss draws of the base run under the same seed.
        self._fault_drop: Dict[str, float] = {}
        self._fault_dup: Dict[str, float] = {}
        self._fault_jitter: Dict[str, float] = {}
        self._fault_slow: Dict[str, float] = {}
        self._have_faults = False
        self._faults_rng: Optional[Any] = None

    # -- membership -----------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Attach a node; called by the :class:`Node` constructor."""
        if node.name in self._nodes:
            raise SimulationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node

    def node(self, name: str) -> "Node":
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    # -- partitions ------------------------------------------------------------

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network into isolated groups.

        Nodes not named in any group form an implicit final group.
        Messages between different groups are dropped until :meth:`heal`.
        """
        named = [frozenset(group) for group in groups]
        seen = set().union(*named) if named else set()
        rest = frozenset(name for name in self._nodes if name not in seen)
        self._partition = named + ([rest] if rest else [])
        group_of: Dict[str, int] = {}
        for index, group in enumerate(self._partition):
            for name in sorted(group):
                if name not in group_of:  # first group wins, like the old scan
                    group_of[name] = index
        self._group_of = group_of

    def heal(self) -> None:
        """Remove any active partition."""
        self._partition = None
        self._group_of = None

    # -- fault plane -----------------------------------------------------------

    _FAULT_KINDS = ("drop", "duplicate", "jitter", "slow")

    def set_fault(self, node: str, kind: str, value: float) -> None:
        """Arm a link fault on every link touching ``node``.

        Kinds:

        * ``"drop"`` — probability in ``[0, 1)`` that a message to or from
          the node is silently discarded (gray packet loss beyond what the
          reliable channels were tuned for).
        * ``"duplicate"`` — probability in ``[0, 1)`` that a delivered
          message is followed by a second, independently delayed copy of
          the same envelope (same ``msg_id``: receivers must deduplicate).
        * ``"jitter"`` — extra delay bound: each message gains a uniform
          ``[0, value]`` delay *after* the FIFO clamp, so a jittered link
          can reorder (the reordering fault of the campaign DSL).
        * ``"slow"`` — latency multiplier ``>= 1`` on the node's links
          (a gray-failure slow replica: alive, just late).
        """
        self.node(node)  # validate at arm time, not at first send
        if kind not in self._FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; expected one of {self._FAULT_KINDS}")
        if kind in ("drop", "duplicate") and not 0.0 <= value < 1.0:
            raise ValueError(f"{kind} probability must be in [0, 1), got {value}")
        if kind == "jitter" and not value >= 0.0:
            raise ValueError(f"jitter bound must be >= 0, got {value}")
        if kind == "slow" and not value >= 1.0:
            raise ValueError(f"slow factor must be >= 1, got {value}")
        table = getattr(self, f"_fault_{'dup' if kind == 'duplicate' else kind}")
        table[node] = value
        self._have_faults = True
        if self._faults_rng is None:
            self._faults_rng = self.sim.stream("net.faults")

    def clear_faults(self, node: Optional[str] = None) -> None:
        """Disarm faults for ``node``, or all faults when ``node`` is None."""
        for table in (self._fault_drop, self._fault_dup, self._fault_jitter, self._fault_slow):
            if node is None:
                table.clear()
            else:
                table.pop(node, None)
        self._have_faults = any(
            (self._fault_drop, self._fault_dup, self._fault_jitter, self._fault_slow)
        )

    def _same_side(self, a: str, b: str) -> bool:
        group_of = self._group_of
        if group_of is None:
            return True
        group = group_of.get(a)
        # A node absent from the map (registered after partition()) is
        # isolated, matching the old whole-group scan.
        return group is not None and group == group_of.get(b)

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        type: str,
        payload: Optional[dict] = None,
        reply_to: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Message:
        """Send one message; returns the envelope (delivery not guaranteed).

        ``deadline`` stamps the envelope with an absolute give-up time
        (see :class:`Message`); it is metadata, not payload.
        """
        message = Message(
            src=src,
            dst=dst,
            type=type,
            payload=payload,
            send_time=self.sim.now,
            reply_to=reply_to,
            msg_id=next(self._message_ids),
        )
        message.deadline = deadline
        self.stats.sent += 1
        self.stats.by_type[type] += 1
        if self.obs is not None:
            self.obs.on_message_send(message)
        self._route(message)
        return message

    def broadcast(
        self,
        src: str,
        dsts: Iterable[str],
        type: str,
        payload: Optional[dict] = None,
    ) -> List[Message]:
        """Point-to-point send to each destination (no extra semantics).

        Each destination gets its own deep copy of the payload, so a
        receiver mutating it cannot reach its siblings or the caller.
        (Protocols send payloads by reference through :meth:`send`.)
        """
        return [
            self.send(src, dst, type, payload=copy.deepcopy(payload)) for dst in dsts
        ]

    def _route(self, message: Message) -> None:
        sender = self._nodes.get(message.src)
        if sender is not None and sender.crashed:
            self.stats.dropped_crash += 1
            self._drop(message, "crash")
            return
        if message.dst not in self._nodes:
            # Close the flight span the observer just opened; the raise
            # below would otherwise leave it dangling forever.
            self._drop(message, "no-route")
            raise NetworkError(f"unknown destination {message.dst!r}")
        if self._group_of is not None and not self._same_side(message.src, message.dst):
            self.stats.dropped_partition += 1
            self._drop(message, "partition")
            return
        if self.loss_rate > 0.0 and self.sim.rng.random() < self.loss_rate:
            self.stats.dropped_loss += 1
            self._drop(message, "loss")
            return
        latency = self.latency
        if type(latency) is ConstantLatency:
            delay = latency.delay  # draws nothing, like its sample()
        else:
            delay = latency.sample(self.sim.rng, message.src, message.dst)
        if self._have_faults:
            dropped, delay, extra = self._apply_faults(message, delay)
            if dropped:
                return
        else:
            extra = 0.0
        # Each link is FIFO: no message arrives before one sent earlier.
        link = (message.src, message.dst)
        arrival = max(self.sim.now + delay, self._last_arrival.get(link, 0.0))
        self._last_arrival[link] = arrival
        # Jitter lands *after* the FIFO clamp: a jittered link may reorder.
        self.sim.schedule_at(arrival + extra, self._deliver, message)

    def _apply_faults(self, message: Message, delay: float) -> tuple:
        """Apply armed link faults; returns ``(dropped, delay, extra)``."""
        rng = self._faults_rng
        src, dst = message.src, message.dst
        drop = max(self._fault_drop.get(src, 0.0), self._fault_drop.get(dst, 0.0))
        if drop > 0.0 and rng.random() < drop:
            self.stats.dropped_fault += 1
            self._drop(message, "fault")
            return True, delay, 0.0
        slow = max(self._fault_slow.get(src, 1.0), self._fault_slow.get(dst, 1.0))
        if slow > 1.0:
            delay *= slow
        jitter = self._fault_jitter.get(src, 0.0) + self._fault_jitter.get(dst, 0.0)
        extra = rng.uniform(0.0, jitter) if jitter > 0.0 else 0.0
        dup = max(self._fault_dup.get(src, 0.0), self._fault_dup.get(dst, 0.0))
        if dup > 0.0 and rng.random() < dup:
            self._duplicate(message, delay)
        return False, delay, extra

    def _duplicate(self, message: Message, delay: float) -> None:
        """Inject a second, independently delayed copy of ``message``.

        The copy keeps the original ``msg_id`` — it models the *same*
        packet arriving twice, which is exactly what idempotency keys and
        the duplicate-reply cache exist to absorb — but gets its own
        payload tree so the two receivers' dispatches cannot alias.  The
        copy is unobserved (``span_id`` stays None): the observer opened
        one flight span for one logical send.
        """
        ghost = Message(
            src=message.src,
            dst=message.dst,
            type=message.type,
            payload=copy.deepcopy(message.payload),
            send_time=message.send_time,
            reply_to=message.reply_to,
            msg_id=message.msg_id,
        )
        ghost.deadline = message.deadline
        self.stats.duplicated += 1
        lag = self._faults_rng.uniform(0.0, delay if delay > 0.0 else 1.0)
        self.sim.schedule_at(self.sim.now + delay + lag, self._deliver, ghost)

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None or node.crashed:
            self.stats.dropped_crash += 1
            self._drop(message, "crash")
            return
        if self._group_of is not None and not self._same_side(message.src, message.dst):
            # Partition formed while the message was in flight.
            self.stats.dropped_partition += 1
            self._drop(message, "partition")
            return
        self.stats.delivered += 1
        if self.obs is not None:
            self.obs.on_message_deliver(message)
        node._dispatch(message)

    def _drop(self, message: Message, cause: str) -> None:
        if self.obs is not None:
            self.obs.on_message_drop(message, cause)

    def __repr__(self) -> str:
        return f"<Network nodes={len(self._nodes)} {self.stats!r}>"
