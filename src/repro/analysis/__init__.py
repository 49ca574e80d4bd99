"""Consistency oracles and metrics for replicated executions."""

from .convergence import StalenessProbe
from .history import History, Invocation, history_from_results
from .linearizability import LinearizabilityReport, check_linearizable
from .metrics import LatencyStats, WorkloadSummary, messages_per_request, summarize
from .sequential import check_sequentially_consistent
from .serializability import (
    check_one_copy_serializable,
    counter_check,
    expected_counters,
    serialization_graph,
)

__all__ = [
    "History",
    "Invocation",
    "history_from_results",
    "check_linearizable",
    "check_sequentially_consistent",
    "LinearizabilityReport",
    "counter_check",
    "expected_counters",
    "serialization_graph",
    "check_one_copy_serializable",
    "StalenessProbe",
    "LatencyStats",
    "WorkloadSummary",
    "summarize",
    "messages_per_request",
]
