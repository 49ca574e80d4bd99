"""Certification test for optimistic (ABCAST-based) replication.

Section 5.4.2: transactions execute locally on shadow copies; the writeset
and readset are then atomically broadcast, and every site runs the same
deterministic *certification* — "deciding whether the operations can be
executed correctly ... in the order specified by the total order
established by ABCAST".

The test implemented here is backward validation against the store state
produced by all previously certified transactions:

* a transaction passes iff every item it *read* still has the version it
  read (no certified transaction wrote it in between);
* because every site certifies the same transactions in the same total
  order against identically evolving state, the accept/abort outcome is
  identical everywhere with no extra communication — the reason this
  technique has an empty AC phase in Figure 16.

``mode="write"`` gives the weaker write-write test (first-committer-wins,
snapshot-isolation style) used as an ablation in the benchmarks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .log import TransactionUpdates, UpdateRecord
from .storage import DataStore

__all__ = ["CertificationOutcome", "Certifier"]


class CertificationOutcome:
    """Result of certifying one transaction."""

    __slots__ = ("committed", "conflicts")

    def __init__(self, committed: bool, conflicts: List[str]) -> None:
        self.committed = committed
        self.conflicts = conflicts

    def __bool__(self) -> bool:
        return self.committed

    def __repr__(self) -> str:
        verdict = "commit" if self.committed else f"abort{self.conflicts}"
        return f"<CertificationOutcome {verdict}>"


class Certifier:
    """Deterministic certification against a site's store.

    Feed it the totally ordered stream of (readset, writeset) pairs via
    :meth:`certify`; it applies the writesets of transactions that pass, so
    its store mirrors the certified prefix of the total order.
    """

    def __init__(self, store: DataStore, mode: str = "read") -> None:
        if mode not in ("read", "write"):
            raise ValueError(f"unknown certification mode {mode!r}")
        self.store = store
        self.mode = mode
        self.certified = 0
        self.rejected = 0

    def certify(
        self,
        readset: Dict[str, int],
        writeset: Iterable[UpdateRecord],
        base_versions: Optional[Dict[str, int]] = None,
    ) -> CertificationOutcome:
        """Validate one transaction and, if valid, apply its writes.

        ``readset`` maps items to the version the transaction read.
        ``base_versions`` (for ``mode="write"``) maps written items to the
        version on which the write was computed.
        """
        conflicts = []
        if self.mode == "read":
            for item, version_read in readset.items():
                if self.store.version(item) != version_read:
                    conflicts.append(item)
        else:
            for record in writeset:
                base = (base_versions or {}).get(record.item, record.version - 1)
                if self.store.version(record.item) != base:
                    conflicts.append(record.item)
        if conflicts:
            self.rejected += 1
            return CertificationOutcome(False, conflicts)
        for record in writeset:
            # Versions are re-assigned in certification order so that all
            # sites converge on identical version counters.
            self.store.write(record.item, record.value)
        self.certified += 1
        return CertificationOutcome(True, [])

    def __repr__(self) -> str:
        return (
            f"<Certifier mode={self.mode} certified={self.certified} "
            f"rejected={self.rejected}>"
        )
