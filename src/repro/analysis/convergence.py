"""Replica-state convergence and staleness measurement.

Weak-consistency techniques (Figure 16's lazy rows) promise convergence
only *eventually*; these helpers measure both the end state and the
inconsistency window on the way there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["StalenessProbe"]


class StalenessProbe:
    """Periodically samples one item at every replica.

    Drives nothing itself: call :meth:`sample` on a schedule (the lazy
    benchmarks hook it to a simulator timer).  ``staleness_of(replica)``
    then reports for how long that replica lagged the freshest copy —
    the "inconsistency window" of lazy replication.
    """

    def __init__(self, system, item: str) -> None:
        self.system = system
        self.item = item
        self.samples: List[Tuple[float, Dict[str, Any]]] = []

    def sample(self) -> None:
        snapshot = {
            name: self.system.store_of(name).read(self.item)
            for name in self.system.live_replicas()
        }
        self.samples.append((self.system.sim.now, snapshot))

    def every(self, interval: float, until: float) -> None:
        """Schedule samples every ``interval`` up to time ``until``."""
        t = self.system.sim.now + interval
        while t <= until:
            self.system.sim.schedule_at(t, self.sample)
            t += interval

    def stale_fraction(self) -> float:
        """Fraction of samples in which some replica lagged another."""
        if not self.samples:
            return 0.0
        stale = sum(
            1 for _t, snap in self.samples if len({repr(v) for v in snap.values()}) > 1
        )
        return stale / len(self.samples)

    def max_staleness_duration(self) -> float:
        """Longest contiguous run of divergent samples, in time units."""
        longest = 0.0
        run_start: Optional[float] = None
        for t, snap in self.samples:
            divergent = len({repr(v) for v in snap.values()}) > 1
            if divergent and run_start is None:
                run_start = t
            elif not divergent and run_start is not None:
                longest = max(longest, t - run_start)
                run_start = None
        if run_start is not None and self.samples:
            longest = max(longest, self.samples[-1][0] - run_start)
        return longest
