"""Workload generation.

Parameterises the "different workloads" axis of the performance study the
paper announces in Section 6: read/write mix, transaction size, data-set
size and access skew (hot spots drive conflict rates, which is what
separates locking from certification behaviour).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.operations import Operation

__all__ = ["WorkloadSpec", "WorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a synthetic workload.

    ``hot_fraction``/``hot_access_probability`` implement a simple two-
    level skew: a ``hot_fraction`` of the items receives
    ``hot_access_probability`` of the accesses.  Items are named
    ``item0`` .. ``item<items-1>``; an update applies ``update_func``
    with argument 1.
    """

    items: int = 20
    read_fraction: float = 0.5
    ops_per_transaction: int = 1
    update_func: str = "add"
    hot_fraction: float = 0.0
    hot_access_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.read_fraction <= 1:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.items < 1 or self.ops_per_transaction < 1:
            raise ValueError("items and ops_per_transaction must be >= 1")
        # Skew knobs are probabilities/fractions: out-of-range values used
        # to be accepted silently and produced inverted skew (hot set
        # larger than the item space) or crashing weights downstream.
        # ``not (x <= 1)`` style also rejects NaN, which passes ``x > 1``.
        if not 0 <= self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 0 <= self.hot_access_probability <= 1:
            raise ValueError("hot_access_probability must be in [0, 1]")


class WorkloadGenerator:
    """Draws transactions matching a :class:`WorkloadSpec`.

    Deterministic given the seed/rng, so two techniques benchmarked with
    the same seed see byte-identical workloads.  Operations are frozen, so
    every draw of the same (kind, item) hands out the same one, from
    tables built here.
    """

    def __init__(self, spec: WorkloadSpec, rng: Optional[random.Random] = None,
                 seed: int = 0) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(seed)
        self._names = [f"item{i}" for i in range(spec.items)]
        self._reads = [Operation.read(name) for name in self._names]
        self._updates = [
            Operation.update(name, spec.update_func, 1) for name in self._names
        ]
        # Half-up rounding, not ``int()`` truncation: ``0.29 * 100`` is
        # 28.999... in binary floating point, and truncating it silently
        # shrinks the hot set below the spec'd share (28 instead of 29).
        if spec.hot_fraction > 0:
            self.hot_set_size = max(1, int(spec.items * spec.hot_fraction + 0.5))
        else:
            self.hot_set_size = 0

    # -- item selection ---------------------------------------------------

    def pick_item(self) -> str:
        return self._names[self._pick()]

    def _pick(self) -> int:
        spec = self.spec
        if self.hot_set_size > 0 and self.rng.random() < spec.hot_access_probability:
            return self.rng.randrange(self.hot_set_size)
        return self.rng.randrange(spec.items)

    # -- transaction drawing -------------------------------------------------

    def next_transaction(self) -> List[Operation]:
        """One transaction: ``ops_per_transaction`` operations."""
        ops = []
        for _ in range(self.spec.ops_per_transaction):
            index = self._pick()
            if self.rng.random() < self.spec.read_fraction:
                ops.append(self._reads[index])
            else:
                ops.append(self._updates[index])
        return ops
