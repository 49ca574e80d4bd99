"""Resilient client edge and composable chaos campaigns.

This package is the repo's robustness layer: a
production-style client stub — deterministic retry with backoff and
jitter, per-request deadline budgets, per-node circuit breakers,
idempotency keys with server-side duplicate-reply caching — plus a
campaign engine that composes the fault plane (crash, partition, drop,
duplicate, jitter, slow) into named chaos scenarios and asserts each
replication technique's declared guarantee under them.

See ``docs/resilience.md`` for the knobs and the guarantee table, and
``python -m repro chaos`` / ``make chaos`` for the campaign matrix.
"""

from .breaker import CircuitBreaker
from .campaign import (
    CAMPAIGNS,
    CampaignReport,
    ChaosCampaign,
    FaultAction,
    run_campaign,
    run_matrix,
)
from .edge import RetryingPolicy, retrying_client
from .retry import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "RetryPolicy",
    "RetryingPolicy",
    "retrying_client",
    "FaultAction",
    "ChaosCampaign",
    "CampaignReport",
    "CAMPAIGNS",
    "run_campaign",
    "run_matrix",
]
