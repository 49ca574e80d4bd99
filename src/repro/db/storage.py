"""Versioned key-value storage: the physical copies of logical data items.

Section 4.1 of the paper: "we distinguish a logical data item X and its
physical copies Xi on the different sites".  A :class:`DataStore` holds one
site's physical copies.  Every write bumps the item's version, which the
certification and reconciliation machinery use to detect stale updates;
snapshots provide the *shadow copies* of Sections 5.2 and 5.4.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Versioned", "DataStore"]


@dataclass(frozen=True)
class Versioned:
    """A value together with its monotonically increasing version."""

    value: Any
    version: int


class DataStore:
    """One replica's physical copies, with versions and snapshots.

    The store is deliberately simple — a dictionary with version counters —
    because the replication protocols above it only need reads, versioned
    writes, and whole-state digests for convergence checking.
    """

    def __init__(self, site: str = "") -> None:
        self.site = site
        self._items: Dict[str, Versioned] = {}

    # -- basic access ------------------------------------------------------

    def read(self, item: str) -> Any:
        """Value of ``item`` (None if never written)."""
        versioned = self._items.get(item)
        return versioned.value if versioned is not None else None

    def version(self, item: str) -> int:
        """Current version of ``item`` (0 if never written)."""
        versioned = self._items.get(item)
        return versioned.version if versioned is not None else 0

    def read_versioned(self, item: str) -> Versioned:
        return self._items.get(item, Versioned(None, 0))

    def write(self, item: str, value: Any) -> int:
        """Write ``value``, bumping the version; returns the new version."""
        new_version = self.version(item) + 1
        self._items[item] = Versioned(value, new_version)
        return new_version

    def write_versioned(self, item: str, value: Any, version: int) -> None:
        """Install ``value`` at an explicit ``version`` (update propagation).

        Used when applying a primary's updates at a secondary so that both
        sites agree on versions.  Regressions (installing a version lower
        than the current one) are ignored: the caller is replaying an
        already-applied update.
        """
        if version >= self.version(item):
            self._items[item] = Versioned(value, version)

    def install(self, rows: Iterable[Tuple[str, Any, int]]) -> None:
        """Merge ``(item, value, version)`` rows — a peer's :meth:`digest`
        or a committed writeset — through :meth:`write_versioned`."""
        for item, value, version in rows:
            self.write_versioned(item, value, version)

    # -- iteration and digests ----------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: str) -> bool:
        return item in self._items

    def digest(self) -> Tuple[Tuple[str, Any, int], ...]:
        """The full state as ``(item, value, version)`` rows in item order:
        what convergence checks compare and state transfer ships."""
        return tuple(
            (item, versioned.value, versioned.version)
            for item, versioned in sorted(self._items.items())
        )

    def values_digest(self) -> Tuple[Tuple[str, Any], ...]:
        """Like :meth:`digest` but ignoring versions (lazy protocols may
        converge on values while version counters differ per site)."""
        return tuple(
            (item, versioned.value) for item, versioned in sorted(self._items.items())
        )

    # -- snapshots (shadow copies) ----------------------------------------------

    def snapshot(self) -> Dict[str, Versioned]:
        """A frozen copy of the full state."""
        return dict(self._items)

    def restore(self, snapshot: Dict[str, Versioned]) -> None:
        """Reset the store to a previously taken snapshot."""
        self._items = dict(snapshot)

    def dump(self) -> Dict[str, Any]:
        """Plain ``item -> value`` view (for examples and debugging)."""
        return {item: versioned.value for item, versioned in sorted(self._items.items())}

    def __repr__(self) -> str:
        return f"<DataStore {self.site} items={len(self._items)}>"
