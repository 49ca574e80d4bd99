"""Workload metrics: latency, throughput, aborts, message overhead.

The Section 6 performance-study benchmarks report their numbers through
these helpers so every experiment prints comparable rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from ..core.operations import Result
from ..net import NetworkStats
from ..obs.metrics import percentile

__all__ = ["LatencyStats", "WorkloadSummary", "summarize", "messages_per_request"]


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of a set of latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @staticmethod
    def of(values: Iterable[float]) -> "LatencyStats":
        data = sorted(values)
        if not data:
            return LatencyStats(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return LatencyStats(
            count=len(data),
            mean=sum(data) / len(data),
            p50=percentile(data, 0.50),
            p95=percentile(data, 0.95),
            p99=percentile(data, 0.99),
            maximum=data[-1],
        )

    def __repr__(self) -> str:
        return (
            f"<LatencyStats n={self.count} mean={self.mean:.2f} "
            f"p50={self.p50:.2f} p95={self.p95:.2f} p99={self.p99:.2f} "
            f"max={self.maximum:.2f}>"
        )


@dataclass(frozen=True)
class WorkloadSummary:
    """Everything a benchmark row needs about one run.

    ``requests``/``aborted``/``latency`` describe *logical* requests (one
    row per final client result).  The open-loop accounting rides next to
    them: ``offered`` counts arrivals presented at the system edge,
    ``shed`` the arrivals refused by admission control before reaching a
    replica, and ``attempts`` every physical submission including
    client-level resubmissions of aborted transactions — so ``retries``
    and :attr:`attempt_abort_rate` do not under-report when a closed
    population hides aborts by resubmitting.
    """

    requests: int
    committed: int
    aborted: int
    latency: LatencyStats
    duration: float
    retries: int
    offered: int = 0
    shed: int = 0
    attempts: int = 0

    @property
    def abort_rate(self) -> float:
        """Aborts among *final* results (driver retries already folded)."""
        return self.aborted / self.requests if self.requests else 0.0

    @property
    def attempt_aborts(self) -> int:
        """Aborted attempts, counting every resubmitted intermediate one."""
        return self.aborted + max(0, self.attempts - self.requests)

    @property
    def attempt_abort_rate(self) -> float:
        """Abort probability of a single submission (what the server saw)."""
        return self.attempt_aborts / self.attempts if self.attempts else 0.0

    @property
    def throughput(self) -> float:
        """Committed requests per time unit."""
        return self.committed / self.duration if self.duration > 0 else 0.0

    @property
    def goodput(self) -> float:
        """Alias of :attr:`throughput` in the open-loop vocabulary."""
        return self.throughput

    @property
    def offered_load(self) -> float:
        """Arrivals per time unit presented at the system edge."""
        return self.offered / self.duration if self.duration > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        """Fraction of offered arrivals refused by admission control."""
        return self.shed / self.offered if self.offered else 0.0

    def row(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "committed": self.committed,
            "abort_rate": round(self.abort_rate, 4),
            "mean_latency": round(self.latency.mean, 3),
            "p50_latency": round(self.latency.p50, 3),
            "p95_latency": round(self.latency.p95, 3),
            "p99_latency": round(self.latency.p99, 3),
            "throughput": round(self.throughput, 4),
            "retries": self.retries,
            "offered": self.offered,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 4),
            "attempts": self.attempts,
            "attempt_abort_rate": round(self.attempt_abort_rate, 4),
        }


def summarize(
    results: Iterable[Result],
    duration: Optional[float] = None,
    extra_attempts: Iterable[Result] = (),
    offered: Optional[int] = None,
    shed: int = 0,
) -> WorkloadSummary:
    """Aggregate a list of client results into a summary.

    ``extra_attempts`` holds the intermediate aborted attempts a
    closed population resubmitted (each one counts as a retry *and* an
    attempt — previously they vanished from the summary entirely).
    ``offered``/``shed`` carry the open-loop edge accounting; ``offered``
    defaults to the number of results, the closed-loop identity.

    Each result is read once and dropped, so summarizing a
    :class:`~repro.core.operations.ResultStore` builds one ``Result`` at
    a time, not all of them at once.
    """
    requests = retries = 0
    latencies: List[float] = []
    first_submitted = math.inf
    last_completed = -math.inf
    for result in results:
        requests += 1
        retries += result.retries
        if result.committed:
            latencies.append(result.latency)
        if result.submitted_at < first_submitted:
            first_submitted = result.submitted_at
        if result.completed_at > last_completed:
            last_completed = result.completed_at
    extras = 0
    for result in extra_attempts:
        extras += 1
        retries += result.retries + 1
    if duration is None:
        duration = last_completed - first_submitted if requests else 0.0
    return WorkloadSummary(
        requests=requests,
        committed=len(latencies),
        aborted=requests - len(latencies),
        latency=LatencyStats.of(latencies),
        duration=duration,
        retries=retries,
        offered=requests if offered is None else offered,
        shed=shed,
        attempts=requests + extras,
    )


def messages_per_request(stats: NetworkStats, requests: int,
                         exclude_prefixes: Iterable[str] = ("fd.",)) -> float:
    """Protocol messages sent per client request.

    Failure-detector heartbeats are excluded by default: they are constant
    background cost, not per-request overhead, and would swamp the
    comparison the paper's message-cost discussion is about.
    """
    if requests <= 0:
        return 0.0
    excluded = sum(
        count
        for mtype, count in stats.by_type.items()
        if any(mtype.startswith(prefix) for prefix in exclude_prefixes)
    )
    return (stats.sent - excluded) / requests
