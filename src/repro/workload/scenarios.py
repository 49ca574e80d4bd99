"""Canned workload scenarios.

Named, documented parameter sets used across examples, tests and
benchmarks, so experiments reference a scenario by intent rather than by
raw numbers.
"""

from __future__ import annotations

from typing import List

from ..core.operations import Operation
from .generator import WorkloadSpec

__all__ = [
    "uniform_updates",
    "read_mostly",
    "hotspot",
    "bank_transfer",
    "SCENARIOS",
]


def uniform_updates(items: int = 16) -> WorkloadSpec:
    """All-update traffic spread uniformly; the convergence stress test."""
    return WorkloadSpec(items=items, read_fraction=0.0, ops_per_transaction=1)


def read_mostly(items: int = 32, read_fraction: float = 0.9) -> WorkloadSpec:
    """The web-ish mix that motivates replication for locality (§4)."""
    return WorkloadSpec(items=items, read_fraction=read_fraction,
                        ops_per_transaction=1)


def hotspot(items: int = 100, hot_items: int = 2,
            hot_probability: float = 0.8) -> WorkloadSpec:
    """Most traffic hits a tiny hot set: the conflict generator that
    separates blocking (locking) from aborting (certification)."""
    return WorkloadSpec(
        items=items,
        read_fraction=0.0,
        ops_per_transaction=2,
        hot_fraction=hot_items / items,
        hot_access_probability=hot_probability,
    )


def bank_transfer(source: str, target: str, amount: int) -> List[Operation]:
    """A classic two-item transaction: debit one account, credit another.

    The multi-operation shape of Section 5 — exercised by the Figure 12/13
    benchmarks and the serializability tests (either both ops commit or
    neither does).
    """
    return [
        Operation.update(source, "add", -amount),
        Operation.update(target, "add", amount),
    ]


SCENARIOS = {
    "uniform_updates": uniform_updates,
    "read_mostly": read_mostly,
    "hotspot": hotspot,
}
