"""The paper's contribution: the five-phase functional model, the
replication technique suite, and the derived classifications."""

from .admission import AdmissionController
from .operations import Operation, Request, Result
from .phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep, PhaseTracer
from .protocols import DB_TECHNIQUES, DS_TECHNIQUES, REGISTRY
from .spec import RunSpec
from .system import ClientNode, Directory, ReplicaNode, ReplicatedSystem

__all__ = [
    "AdmissionController",
    "Operation",
    "Request",
    "Result",
    "RE",
    "SC",
    "EX",
    "AC",
    "END",
    "PhaseStep",
    "PhaseDescriptor",
    "PhaseTracer",
    "REGISTRY",
    "DS_TECHNIQUES",
    "DB_TECHNIQUES",
    "ReplicatedSystem",
    "RunSpec",
    "ReplicaNode",
    "ClientNode",
    "Directory",
]
