"""Reconciliation for lazy update-everywhere replication.

Section 4.6: with lazy update everywhere, "the copies on the different
site might not only be stale but inconsistent.  Reconciliation is needed
to decide which updates are the winners and which transactions must be
undone.  There are some reconciliation schemes around, however, most of
them are on a per object basis."

This module provides exactly those per-object schemes:

* :class:`LastWriterWins` — a write carries a ``(commit_time, site)`` stamp;
  the lexicographically largest stamp wins.  Deterministic at every site,
  hence convergent.
* :class:`SitePriority` — writes from higher-priority sites win ties and
  conflicts (the "primary wins" rule some commercial systems use).

Both track which transactions *lost* (were overwritten), i.e. the
transactions that "must be undone" — the lazy benchmarks report this count
as the price of weak consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from .storage import DataStore

__all__ = ["Stamp", "LastWriterWins", "SitePriority"]


@dataclass(frozen=True)
class Stamp:
    """Total-order stamp for a write.

    Ordered by :attr:`sort_key`, ``(commit time, site name, per-site
    sequence)``.  The
    sequence number breaks ties between commits a site performs at the
    same instant, making the order total — without it, two same-time
    same-site writes would be incomparable and sites could diverge.
    """

    time: float
    site: str
    txn_id: Any = None
    seq: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.site, self.seq)

    def as_wire(self) -> list:
        return [self.time, self.site, self.txn_id, self.seq]

    @staticmethod
    def from_wire(data: list) -> "Stamp":
        return Stamp(time=data[0], site=data[1], txn_id=data[2], seq=data[3])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stamp):
            return NotImplemented
        return self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash(self.sort_key)


class LastWriterWins:
    """Per-item last-writer-wins reconciliation.

    :meth:`consider` is fed every write (local commits and incoming remote
    propagations) and installs it into the store iff its stamp beats the
    current winner's.  Applied at every site over the same set of writes —
    in any arrival order — all stores converge to identical values.
    """

    def __init__(self, store: DataStore) -> None:
        self.store = store
        self._winners: Dict[str, Stamp] = {}
        self.overwritten_txns: Set[Any] = set()
        self.applied = 0
        self.discarded = 0

    def consider(self, item: str, value: Any, stamp: Stamp) -> bool:
        """Apply the write if it wins; returns whether it was applied."""
        current = self._winners.get(item)
        if current is not None and not self._beats(stamp, current, item):
            self.discarded += 1
            if stamp.txn_id is not None:
                self.overwritten_txns.add(stamp.txn_id)
            return False
        if current is not None and current.txn_id is not None:
            self.overwritten_txns.add(current.txn_id)
        self._winners[item] = stamp
        self.store.write(item, value)
        self.applied += 1
        return True

    def _beats(self, challenger: Stamp, incumbent: Stamp, item: str) -> bool:
        return challenger.sort_key > incumbent.sort_key

    @property
    def undone_count(self) -> int:
        """Transactions with at least one overwritten (lost) write."""
        return len(self.overwritten_txns)

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} applied={self.applied} "
            f"discarded={self.discarded} undone={self.undone_count}>"
        )


class SitePriority(LastWriterWins):
    """Reconciliation where designated sites outrank others.

    ``priorities`` maps site name to rank (higher wins).  Time is the
    tie-breaker among equal-rank sites, then site name.
    """

    def __init__(self, store: DataStore, priorities: Dict[str, int]) -> None:
        super().__init__(store)
        self.priorities = dict(priorities)

    def _beats(self, challenger: Stamp, incumbent: Stamp, item: str) -> bool:
        challenger_key = (self.priorities.get(challenger.site, 0),) + challenger.sort_key
        incumbent_key = (self.priorities.get(incumbent.site, 0),) + incumbent.sort_key
        return challenger_key > incumbent_key
