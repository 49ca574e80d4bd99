"""System builder: wire replicas, clients and a protocol into a simulation.

:class:`ReplicatedSystem` is the library's main entry point.  It builds the
substrate stack (simulator, network, failure detectors, transaction
managers), instantiates the chosen replication technique on every replica,
and hands out uniform clients — so the same workload can be swept across
all of the paper's techniques, which is exactly what the Section 6
performance-study benchmarks do.

>>> from repro import ReplicatedSystem, Operation
>>> system = ReplicatedSystem("active", replicas=3, seed=7)
>>> result = system.execute([Operation.write("x", 1)])
>>> result.committed
True
"""

from __future__ import annotations

import itertools
import random
import zlib
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..db import TransactionManager
from ..errors import ReplicationError
from ..failures import FailureDetector, FailureInjector
from ..groupcomm import ReliableTransport
from ..net import Message, Network, Node
from ..obs import Observer
from ..sim import Future, Simulator, TraceLog
from .admission import AdmissionController
from .operations import Operation, Request, Result, ResultStore
from .phases import PhaseTracer, RE
from .protocols import REGISTRY
from .protocols.base import CLIENT_REQUEST, CLIENT_RESPONSE, ProtocolInfo
from .sessions import TransactionSession
from .spec import RunSpec

__all__ = ["Directory", "ReplicaNode", "BlockingPolicy", "ClientNode",
           "ReplicatedSystem", "WAIT", "RESEND", "GIVE_UP"]

# How long a transaction waits for a lock at a site before it aborts.
# Every site's own bound; eager_ue_locking's remote lock requests carry
# their own, its ``LOCK_TIMEOUT``.
SITE_LOCK_TIMEOUT = 60.0


class Directory:
    """Naming service: which replicas exist and which is the primary.

    The paper assumes clients can locate the (current) primary — after a
    failover "a human operator can reconfigure the system" (Section 4.3
    footnote) or the group membership does it (Section 3.3).  Both paths
    end up updating this directory.
    """

    def __init__(self, members: List[str]) -> None:
        self.members = list(members)
        self.primary = members[0]
        self.changes = 0

    def set_primary(self, name: str) -> None:
        if name not in self.members:
            raise ReplicationError(f"{name} is not a group member")
        if name != self.primary:
            self.primary = name
            self.changes += 1

    def __repr__(self) -> str:
        return f"<Directory primary={self.primary} members={self.members}>"


class _HostNode(Node):
    """Network node that forwards crash/recover events to its owner."""

    def __init__(self, sim, network, name, owner) -> None:
        self._owner = owner
        super().__init__(sim, network, name)

    def on_crash(self) -> None:
        self._owner._host_crashed()

    def on_recover(self) -> None:
        self._owner._host_recovered()


class ReplicaNode:
    """One replica: node + transaction manager + groupcomm endpoints.

    The protocol instance lives in ``self.protocol`` and registers its
    message handlers against ``self.node``.
    """

    def __init__(self, system: "ReplicatedSystem", name: str) -> None:
        self.system = system
        self.name = name
        self.node = _HostNode(system.sim, system.net, name, self)
        self.tm = TransactionManager(
            system.sim, site=name, lock_timeout=SITE_LOCK_TIMEOUT, obs=system.observer
        )
        self.transport = ReliableTransport(self.node)
        self.detector = FailureDetector(
            self.node,
            system.replica_names,
            interval=system.spec.fd_interval,
            timeout=system.spec.fd_timeout,
            trace=system.trace,
        )
        self.detector.on_restore(self.transport.resend_unacked)
        # Per-replica RNG: non-deterministic operations draw from it, so
        # two replicas executing the same request can legitimately diverge
        # (the scenario motivating passive/semi-active replication).
        # crc32, not hash(): str hashing is salted per process, which would
        # give two invocations of the same seed different replica streams.
        self.rng = random.Random(
            system.spec.seed * 10007 + zlib.crc32(name.encode("utf-8")) % 99991
        )
        self.tracer = system.tracer
        self.protocol = None  # set by ReplicatedSystem
        # The exactly-once table, and the only record of what this replica
        # already did: request id -> values of the committed reply.  A
        # retried request whose id is here is answered from the table
        # instead of re-executed, which is what makes client retries
        # exactly-once (aborts are not kept: retrying them should rerun).
        # Protocols that order requests drop a second delivery of an id
        # that is here, and passive backups fill it from the primary's
        # updates, so a promoted primary answers a retry from it too.
        # Survives crashes deliberately — it models durable server state,
        # like the applied-transaction log a recovering replica replays.
        # Kept for the life of the run, so the values are a tuple: one of
        # plain values is nothing the cyclic collector has to walk.
        self.reply_cache: Dict[str, Tuple[Any, ...]] = {}

    def remember_reply(self, request_id: str, values: Sequence[Any]) -> None:
        """Record the committed reply for ``request_id`` (first write wins)."""
        if request_id not in self.reply_cache:
            self.reply_cache[request_id] = tuple(values)

    def cached_reply(self, request_id: str) -> Optional[Tuple[Any, ...]]:
        """The committed values previously replied for ``request_id``, if any."""
        return self.reply_cache.get(request_id)

    @property
    def crashed(self) -> bool:
        return self.node.crashed

    def _host_crashed(self) -> None:
        if self.system.observer is not None:
            # Close this host's open phase spans as errors before the
            # teardown below makes the work they narrate unreachable.
            self.system.observer.on_node_crash(self.name)
        self.tm.abort_all_active("node crashed")
        # The lock table is volatile: locks granted to *remote*
        # transactions (not covered by abort_all_active) must not survive
        # a restart, or a dropped abort decision wedges them forever.
        self.tm.locks.reset()
        if self.protocol is not None:
            # The in-flight request journal is volatile state: whatever was
            # executing died with the node, so retries must be re-admitted.
            self.protocol._serving.clear()
            self.protocol.on_crash()

    def _host_recovered(self) -> None:
        if self.protocol is not None:
            self.protocol.on_recover()

    def __repr__(self) -> str:
        return f"<ReplicaNode {self.name} {'crashed' if self.crashed else 'up'}>"


# What a retry policy may answer when an attempt went silent (each paired
# with an argument): keep waiting and ask again in ``seconds``; resend the
# same request id after ``seconds``; or give up with ``reason``.
WAIT, RESEND, GIVE_UP = "wait", "resend", "give_up"


class BlockingPolicy:
    """The paper's blocking database client (Section 4.1) as a retry policy.

    A live server that still is the right target is never re-sent to; a
    dead or deposed one is re-resolved, at most ``max_retries`` times.

    A retry policy is duck-typed — ``repro.resilience`` supplies the other
    one.  It carries two values, ``timeout`` (how long an attempt may stay
    silent before :meth:`on_silence` is asked; ``None``: never) and
    ``budget`` (a per-request deadline budget the edge stamps on every
    submit and arms no attempt timer past; ``None``: the client blocks),
    and answers three questions.
    """

    budget = None

    def __init__(self, timeout: Optional[float], max_retries: int) -> None:
        self.timeout = timeout
        self.max_retries = max_retries

    def allow(self, replica: str) -> bool:
        """May ``replica`` be tried now?"""
        return True

    def on_silence(self, client: "ClientNode", entry: dict) -> Tuple[str, Any]:
        """An attempt went silent: ``(WAIT | RESEND, seconds)`` or
        ``(GIVE_UP, reason)``."""
        system = client.system
        # A client can tell a dead server from a slow one (its connection
        # breaks), so re-submission — which risks executing the request
        # twice — only happens when the contacted server actually failed
        # or a failover moved the primary elsewhere.  A merely slow server
        # (lock queues, blocking 2PC) keeps the client waiting: the
        # blocking behaviour the paper says databases accept.
        if client.policy != "all":
            target = entry["last_targets"][0]
            if (
                not system.replicas[target].crashed
                and client._targets(entry)[0] == target
            ):
                return WAIT, self.timeout
        entry["retries"] += 1
        if entry["retries"] > self.max_retries:
            return GIVE_UP, "client gave up"
        if system.observer is not None:
            system.observer.metrics.inc("requests.resubmitted")
        return RESEND, 0.0

    def on_reply(self, entry: dict, message: Message) -> Optional[Tuple[str, Any]]:
        """A reply came back: ``None`` reports it, an :meth:`on_silence`
        answer retries the same request id instead."""
        return None


class ClientNode:
    """A client of the replicated service: the one client edge.

    ``submit`` returns a future resolving to a :class:`Result`.  Routing
    follows the protocol's client policy:

    * ``"all"`` — send to every replica, keep the first response (the
      distributed-systems style; masks replica failures entirely).
    * ``"primary"`` — send to the directory's current primary (the
      database hot-standby style; failures are visible as latency);
      read-only requests go the ``"local"`` way where the technique lets
      any site serve them.
    * ``"local"`` — stick to one home replica and reconnect to the next
      live one when it is down or the retry policy refuses it, as
      Section 4.1 describes.

    What happens when a replica is silent, down or answers with an abort
    is the ``retry`` policy's decision (see :class:`BlockingPolicy`).
    """

    def __init__(
        self,
        system: "ReplicatedSystem",
        name: str,
        home: str,
        retry: Any,
    ) -> None:
        self.system = system
        self.name = name
        self.policy = system.info.client_policy
        self.home = home
        self.retry = retry
        self.timeout = retry.timeout
        self.node = Node(system.sim, system.net, name)
        self.node.on(CLIENT_RESPONSE, self._on_response)
        self._pending: Dict[str, dict] = {}
        self._sequence = itertools.count(1)
        self.results = ResultStore()

    # -- public API -----------------------------------------------------------

    def submit(
        self,
        operations: Union[Operation, Iterable[Operation]],
        deadline: Optional[float] = None,
    ) -> Future:
        """Submit a request; returns a future resolving to a Result.

        ``deadline`` is an absolute simulated time after which the caller
        no longer wants the answer; it rides the message envelope so
        replicas can shed expired work, and the system's admission
        controller (when configured) refuses arrivals already past it.
        A retry policy with a ``budget`` caps it at that much from now.
        """
        if isinstance(operations, Operation):
            operations = [operations]
        request = Request.make(
            tuple(operations), client=self.name, sequence=next(self._sequence)
        )
        now = self.system.sim.now
        budget = self.retry.budget
        if budget is not None and (deadline is None or deadline > now + budget):
            deadline = now + budget
        future = self.system.sim.future(label=f"result:{request.request_id}")
        entry = {
            "request": request,
            "future": future,
            "submitted_at": now,
            "retries": 0,
            "timer": None,
            "deadline": deadline,
        }
        self._pending[request.request_id] = entry
        if self.system.observer is not None:
            self.system.observer.on_request_submit(request.request_id, self.name)
        if self.system.admission is not None:
            self.system.admission.submit(self, entry)
        else:
            self._dispatch(entry)
        return future

    def session(self, server: Optional[str] = None) -> TransactionSession:
        """Open an interactive transaction session (Section 5).

        The server defaults to the technique's natural contact point: the
        current primary for primary-copy techniques, this client's home
        replica otherwise.
        """
        if not self.system.info.supports_sessions:
            raise ReplicationError(
                f"{self.system.spec.technique} does not support interactive "
                "sessions (no per-operation coordination loop)"
            )
        if server is None:
            server = (
                self.system.directory.primary
                if self.policy == "primary"
                else self.home
            )
        return TransactionSession(self, server)

    # -- routing ----------------------------------------------------------------

    def _routes_home(self, entry: dict) -> bool:
        """Does this request go to the client's home replica?"""
        if self.policy == "primary":
            return entry["request"].read_only and self.system.info.reads_anywhere
        return self.policy == "local"

    def _targets(self, entry: dict) -> List[str]:
        """The replicas to try now; empty when the policy refuses them all."""
        allow = self.retry.allow
        if self.policy == "all":
            return [name for name in self.system.replica_names if allow(name)]
        if not self._routes_home(entry):
            primary = self.system.directory.primary
            return [primary] if allow(primary) else []
        if not allow(self.home):
            # The policy has given up on the home replica.  Any replica
            # accepts a request routed this way, so the client reconnects to
            # the next live one the policy lets through; the reconnect is
            # sticky.
            candidate = self.system.next_live_replica(self.home, allow)
            if candidate == self.home:
                return []
            self.home = candidate
        return [self.home]

    def _dispatch(self, entry: dict) -> None:
        request = entry["request"]
        if (
            (entry["retries"] or self.retry.budget is not None)
            and self.system.replicas[self.home].crashed
            and self._routes_home(entry)
        ):
            # Reconnect (Section 4.1): the connection to a crashed home is
            # broken, so the client fails over to the next live replica
            # (primaries are re-resolved from the directory).  A blocking
            # client finds out when an attempt has gone silent; one on a
            # deadline budget does not spend a timeout on it.
            self.home = self.system.next_live_replica(self.home)
        targets = entry["last_targets"] = self._targets(entry)
        if not targets:
            # Nobody may be tried: this attempt is silent from the start.
            self._on_timeout(request.request_id)
            return
        deadline = entry["deadline"]
        observer = self.system.observer
        if observer is not None:
            # Dispatch inside the root span's context so the outgoing
            # client.request flights become its children.
            with observer.request_context(request.request_id):
                self._send_request(targets, request, deadline=deadline)
        else:
            self._send_request(targets, request, deadline=deadline)
        wait = self.timeout
        if wait is not None:
            if self.retry.budget is not None:
                wait = min(wait, max(deadline - self.system.sim.now, 0.0))
            entry["timer"] = self.node.after(wait, self._on_timeout, request.request_id)

    def _send_request(self, targets: List[str], request: Request,
                      deadline: Optional[float] = None) -> None:
        for target in targets:
            if deadline is None:
                self.node.send(target, CLIENT_REQUEST, request=request)
            else:
                # Deadlines ride the envelope, not the payload: routing
                # metadata, not part of the request (see Message.deadline).
                self.system.net.send(
                    self.name,
                    target,
                    CLIENT_REQUEST,
                    payload={"request": request},
                    deadline=deadline,
                )

    # -- outcomes ---------------------------------------------------------------

    def _on_timeout(self, request_id: str) -> None:
        entry = self._pending.get(request_id)
        if entry is not None:
            self._act(entry, *self.retry.on_silence(self, entry))

    def _act(self, entry: dict, verdict: str, argument: Any) -> None:
        """Carry out a retry policy's answer on the entry's one timer."""
        if entry["timer"] is not None:
            entry["timer"].cancel()
        if verdict == WAIT:
            entry["timer"] = self.node.after(
                argument, self._on_timeout, entry["request"].request_id
            )
        elif verdict == GIVE_UP:
            self._settle(entry, False, [], argument, "")
        elif argument > 0:
            # Settling the entry cancels this timer, so it only ever fires
            # for a request that is still pending.
            entry["timer"] = self.node.after(argument, self._dispatch, entry)
        else:
            self._dispatch(entry)

    def _on_response(self, message: Message) -> None:
        entry = self._pending.get(message["request_id"])
        if entry is None:
            return  # duplicate response (e.g. active replication's n replies)
        again = self.retry.on_reply(entry, message)
        if again is not None:
            self._act(entry, *again)
            return
        self._settle(entry, message["committed"], message["values"],
                     message["reason"], message["server"])

    def _settle(self, entry: dict, committed, values, reason, server) -> None:
        """Resolve the request: with a server's reply, or with an abort no
        server sent (shed at admission, or the retry policy gave up)."""
        del self._pending[entry["request"].request_id]
        if entry["timer"] is not None:
            entry["timer"].cancel()
        result = Result(
            request_id=entry["request"].request_id,
            committed=committed,
            values=values,
            reason=reason,
            submitted_at=entry["submitted_at"],
            completed_at=self.system.sim.now,
            server=server,
            retries=entry["retries"],
            operations=entry["request"].operations,
        )
        self.results.append(result)
        if self.system.observer is not None:
            self.system.observer.on_request_complete(
                result.request_id, committed, reason=reason, retries=result.retries
            )
        entry["future"].set_result(result)

    def __repr__(self) -> str:
        return f"<ClientNode {self.name} policy={self.policy} home={self.home}>"


class ReplicatedSystem:
    """A complete replicated service running one technique.

    Built from one :class:`~repro.core.spec.RunSpec` (``system.spec``),
    or from a technique name plus RunSpec's fields as keywords:
    ``ReplicatedSystem("active", replicas=3)`` is
    ``ReplicatedSystem(RunSpec("active", replicas=3))``; keywords given
    beside a spec override its fields.  With ``spec.observe``, metrics
    accumulate in ``system.observer.metrics``.
    """

    def __init__(self, spec: Union[RunSpec, str], **fields: Any) -> None:
        if isinstance(spec, str):
            spec = RunSpec(spec, **fields)
        elif fields:
            spec = replace(spec, **fields)
        self.spec = spec
        self.protocol_cls = REGISTRY[spec.technique]
        self.info: ProtocolInfo = self.protocol_cls.info
        self.sim = Simulator(seed=spec.seed)
        self.observer: Optional[Observer] = Observer(self.sim) if spec.observe else None
        self.trace = TraceLog(self.sim, max_events=spec.trace_max_events,
                              obs=self.observer)
        if self.observer is not None:
            self.observer.trace_log = self.trace
            # Windowed telemetry: sample gauges (breaker states, derived
            # end-of-run values) at every bucket boundary.  The tick hook
            # fires inline from the event loop without scheduling events,
            # so observation stays neutral to the run.
            self.observer.attach_sampler(self.sim)
        self.tracer = PhaseTracer(self.trace)
        self.net = Network(self.sim, latency=spec.latency, obs=self.observer)
        self.injector = FailureInjector(self.sim, self.net, trace=self.trace)
        self.replica_names = [f"r{i}" for i in range(spec.replicas)]
        self.directory = Directory(self.replica_names)
        # Admission control at the system edge (open-loop workloads): when
        # absent, submits dispatch directly and nothing changes in the
        # event schedule of existing closed-loop runs.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self, spec.admission_rate)
            if spec.admission_rate > 0 else None
        )

        self.replicas: Dict[str, ReplicaNode] = {}
        for name in self.replica_names:
            self.replicas[name] = ReplicaNode(self, name)
        for name, replica in self.replicas.items():
            replica.protocol = self.protocol_cls(replica, self.replica_names, spec)

        client_timeout = spec.client_timeout
        if client_timeout is None and self.info.client_policy != "all":
            client_timeout = 120.0
        blocking = BlockingPolicy(client_timeout, spec.max_client_retries)
        self.clients: List[ClientNode] = []
        for i in range(spec.clients):
            home = self.replica_names[i % spec.replicas]
            self.clients.append(ClientNode(self, f"c{i}", home, blocking))

    # -- convenience -----------------------------------------------------------

    def client(self, index: int = 0) -> ClientNode:
        return self.clients[index]

    def submit(
        self, operations: Union[Operation, Iterable[Operation]], client: int = 0
    ) -> Future:
        """Submit through a client; phases begin with the RE record."""
        return self.clients[client].submit(operations)

    def execute(
        self,
        operations: Union[Operation, Iterable[Operation]],
        client: int = 0,
        max_events: int = 10_000_000,
    ) -> Result:
        """Submit and run the simulation until the result is known."""
        future = self.submit(operations, client=client)
        return self.sim.run_until_done(future, max_events=max_events)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def settle(self, extra_time: float = 500.0) -> None:
        """Run past all pending activity (lazy propagation, view changes)."""
        self.sim.run(until=self.sim.now + extra_time)

    # -- replica access -----------------------------------------------------------

    def replica(self, name: str) -> ReplicaNode:
        return self.replicas[name]

    def protocol_at(self, name: str):
        return self.replicas[name].protocol

    def store_of(self, name: str):
        return self.replicas[name].tm.store

    def next_live_replica(
        self, after: str, allow: Optional[Callable[[str], bool]] = None
    ) -> str:
        """The first live replica (that ``allow`` lets through) in ring
        order after ``after``; ``after`` itself when there is none."""
        names = self.replica_names
        start = (names.index(after) + 1) % len(names) if after in names else 0
        for offset in range(len(names)):
            candidate = names[(start + offset) % len(names)]
            if not self.replicas[candidate].crashed and (
                allow is None or allow(candidate)
            ):
                return candidate
        return after

    def live_replicas(self) -> List[str]:
        return [n for n in self.replica_names if not self.replicas[n].crashed]

    # -- convergence oracle ------------------------------------------------------

    def converged(self, values_only: bool = True, live_only: bool = True) -> bool:
        """Do all (live) replicas hold identical data?"""
        names = self.live_replicas() if live_only else self.replica_names
        if not names:
            return True
        digests = {
            name: (
                self.store_of(name).values_digest()
                if values_only
                else self.store_of(name).digest()
            )
            for name in names
        }
        return len(set(digests.values())) == 1

    def divergent_replicas(self) -> Dict[str, tuple]:
        """Per-live-replica value digests (debugging aid)."""
        return {name: self.store_of(name).values_digest() for name in self.live_replicas()}

    def __repr__(self) -> str:
        return (
            f"<ReplicatedSystem {self.spec.technique} replicas={len(self.replicas)} "
            f"clients={len(self.clients)} t={self.sim.now:.1f}>"
        )
