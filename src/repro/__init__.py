"""repro — an executable reproduction of Wiesmann et al.,
"Understanding Replication in Databases and Distributed Systems"
(ICDCS 2000).

The library builds, from scratch, every replication technique the paper
surveys — active, passive, semi-active and semi-passive replication from
the distributed-systems community; eager/lazy x primary-copy/
update-everywhere (distributed locking, atomic broadcast and
certification variants) from the database community — on top of fully
implemented substrates: a deterministic discrete-event simulator, a
lossy/partitionable network, heartbeat failure detection, a group
communication stack (reliable broadcast, Chandra-Toueg
consensus, atomic broadcast, view synchrony) and a transactional storage
engine (strict 2PL, WAL, 2PC, certification, reconciliation).

Quickstart::

    from repro import ReplicatedSystem, Operation

    system = ReplicatedSystem("passive", replicas=3, seed=42)
    result = system.execute([Operation.update("balance", "add", 100)])
    assert result.committed

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-figure reproduction index.
"""

from .core import (
    AC,
    DB_TECHNIQUES,
    DS_TECHNIQUES,
    END,
    EX,
    RE,
    REGISTRY,
    SC,
    Operation,
    PhaseDescriptor,
    PhaseStep,
    PhaseTracer,
    ReplicatedSystem,
    Request,
    Result,
    RunSpec,
)
from .errors import (
    ConsistencyViolation,
    NetworkError,
    NodeCrashed,
    ReplicationError,
    ReproError,
    SimulationError,
    TransactionAborted,
)
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReplicatedSystem",
    "RunSpec",
    "Operation",
    "Request",
    "Result",
    "Simulator",
    "REGISTRY",
    "DS_TECHNIQUES",
    "DB_TECHNIQUES",
    "RE",
    "SC",
    "EX",
    "AC",
    "END",
    "PhaseStep",
    "PhaseDescriptor",
    "PhaseTracer",
    "ReproError",
    "SimulationError",
    "NodeCrashed",
    "NetworkError",
    "TransactionAborted",
    "ReplicationError",
    "ConsistencyViolation",
]
