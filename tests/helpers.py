"""Shared test fixtures: prewired groups of nodes with the full stack."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.core import ReplicatedSystem, RunSpec
from repro.failures import FailureDetector
from repro.net import ConstantLatency, Network, Node, UniformLatency
from repro.groupcomm import ReliableTransport
from repro.sim import Simulator, TraceLog
from repro.workload import WorkloadGenerator, WorkloadSpec
from repro.workload.openloop import ArrivalSpec, OpenLoopEngine


class GroupHarness:
    """N plain nodes wired with reliable transports and failure detectors.

    Tests attach whatever group-communication layer they exercise on top,
    via the per-node ``transports`` and ``detectors`` maps.  Each node also
    gets a ``delivered`` list that layer upcalls can append to.
    """

    def __init__(
        self,
        n: int,
        seed: int = 1,
        loss_rate: float = 0.0,
        jitter: bool = False,
        fd_interval: float = 2.0,
        fd_timeout: float = 8.0,
        retry_interval: float = 5.0,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.trace = TraceLog(self.sim)
        latency = UniformLatency(0.5, 1.5) if jitter else ConstantLatency(1.0)
        self.net = Network(self.sim, latency=latency, loss_rate=loss_rate)
        self.names: List[str] = [f"n{i}" for i in range(n)]
        self.nodes: Dict[str, Node] = {}
        self.transports: Dict[str, ReliableTransport] = {}
        self.detectors: Dict[str, FailureDetector] = {}
        self.delivered: Dict[str, list] = {}
        for name in self.names:
            node = Node(self.sim, self.net, name)
            self.nodes[name] = node
            self.transports[name] = ReliableTransport(node, retry_interval=retry_interval)
            self.detectors[name] = FailureDetector(
                node, self.names, interval=fd_interval, timeout=fd_timeout
            )
            self.delivered[name] = []

    def sink(self, name: str):
        """An upcall recording ``(origin, mtype, body)`` deliveries."""
        def deliver(origin: str, mtype: str, body: dict) -> None:
            self.delivered[name].append((origin, mtype, body))
        return deliver

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def alive(self) -> List[str]:
        return [n for n in self.names if not self.nodes[n].crashed]


def contended_run(spec: RunSpec, ops_per_transaction: int = 3):
    """Multi-operation transactions on a hot set against the system
    ``spec`` describes (the tests use four client edges), open loop, run
    to drain.

    Three operations per transaction unless told otherwise, 70 % writes,
    70 % of accesses on 4 of 20 items, one arrival per time unit for 300:
    transactions hold locks while they wait for the next one, so upgrades,
    local deadlocks and victim aborts all occur — what one-operation
    workloads never exercise.
    Raises ``SimulationError`` if a client is never answered (heartbeats
    keep the event queue alive, so the run hits the event cap).
    """
    system = ReplicatedSystem(spec)
    generator = WorkloadGenerator(
        WorkloadSpec(items=20, hot_fraction=0.2, hot_access_probability=0.7,
                     ops_per_transaction=ops_per_transaction, read_fraction=0.3),
        seed=spec.seed,
    )
    arrival = ArrivalSpec(process="poisson", rate=1.0, duration=300.0, clients=1000)
    engine = OpenLoopEngine(system, generator, arrival)
    summary = engine.run(settle=300, max_events=400_000)
    return system, engine, summary


def contended_digest(technique: str, seed: int) -> str:
    """Committed count and a sha256 over every result, ``net.stats`` and the
    stores of :func:`contended_run`."""
    system, engine, summary = contended_run(RunSpec(technique, clients=4, seed=seed))
    stats = system.net.stats
    digest = hashlib.sha256()
    digest.update(repr([
        (r.request_id, r.committed, r.reason, r.values, r.submitted_at,
         r.completed_at, r.server, r.retries)
        for r in engine.results
    ]).encode())
    digest.update(repr([
        stats.sent, stats.delivered, stats.dropped_loss, stats.dropped_partition,
        stats.dropped_crash, stats.dropped_fault, stats.duplicated,
        sorted(stats.by_type.items()),
    ]).encode())
    for name in system.replica_names:
        digest.update(repr(system.store_of(name).values_digest()).encode())
    return f"{summary.committed} {digest.hexdigest()}"
