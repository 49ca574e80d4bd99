"""Message latency models.

A latency model maps a (source, destination) pair to a delivery delay.
Models are sampled with the simulator's seeded RNG, so runs remain
deterministic.  All delays are in abstract simulated time units; the
benchmarks interpret one unit as one millisecond.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "PerLinkLatency",
]


class LatencyModel:
    """Base class: subclasses implement :meth:`sample`."""

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        raise NotImplementedError


class _ByValue(LatencyModel):
    """A model fixed by its constructor arguments, compared and hashed by
    them: two run specifications naming equal models are equal."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(vars(self).items())))


class ConstantLatency(_ByValue):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0) -> None:
        if delay < 0:
            raise ValueError(f"latency must be non-negative, got {delay}")
        self.delay = delay

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(_ByValue):
    """Delay drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(_ByValue):
    """``base`` plus an exponential tail with the given ``mean``.

    Models a LAN with occasional queueing: most messages arrive near
    ``base`` but a long tail exists.  ``cap`` bounds the tail so a single
    unlucky sample cannot stall a whole benchmark.
    """

    def __init__(self, base: float = 0.5, mean: float = 0.5, cap: float = 50.0) -> None:
        if base < 0 or mean <= 0 or cap <= 0:
            raise ValueError("base >= 0, mean > 0 and cap > 0 required")
        self.base = base
        self.mean = mean
        self.cap = cap

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        return self.base + min(rng.expovariate(1.0 / self.mean), self.cap)

    def __repr__(self) -> str:
        return f"ExponentialLatency(base={self.base}, mean={self.mean})"


class PerLinkLatency(LatencyModel):
    """Different models per directed link, with a default fallback.

    Useful for WAN topologies where some replica pairs are remote: the
    lazy-replication benchmarks use this to model a mobile client syncing
    over a slow link.
    """

    def __init__(self, default: LatencyModel) -> None:
        self.default = default
        self._links: Dict[Tuple[str, str], LatencyModel] = {}

    def set_link(self, src: str, dst: str, model: LatencyModel, symmetric: bool = True) -> None:
        """Override the latency model for ``src -> dst`` (and back)."""
        self._links[(src, dst)] = model
        if symmetric:
            self._links[(dst, src)] = model

    def sample(self, rng: random.Random, src: str, dst: str) -> float:
        model = self._links.get((src, dst), self.default)
        return model.sample(rng, src, dst)

    def __repr__(self) -> str:
        return f"PerLinkLatency(default={self.default!r}, overrides={len(self._links)})"
