"""Local transaction manager: strict 2PL over one site's store.

This is the per-site engine under every database replication protocol in
the paper: it executes transactions against the local
:class:`~repro.db.storage.DataStore` with strict two-phase locking,
deferred writes, write-ahead logging, and readset/writeset tracking (the
inputs to the certification test of Section 5.4.2).

Transactions run inside simulated processes; lock waits suspend the
process in simulated time:

>>> def work(tm):
...     txn = tm.begin()
...     balance = yield txn.read("x")
...     yield txn.write("x", (balance or 0) + 10)
...     updates = txn.commit()
...     return updates
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import TransactionAborted
from ..sim import Future, Simulator
from .locks import LockManager, READ, WRITE
from .log import TransactionUpdates, UpdateRecord, WriteAheadLog
from .storage import DataStore

__all__ = ["Transaction", "TransactionManager"]

ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """One in-flight transaction at one site.

    Writes are deferred: they take the write lock immediately (strict 2PL)
    but are installed into the store only at commit, so an abort simply
    discards the buffered writes.  ``commit`` returns the
    :class:`TransactionUpdates` writeset — the log records the replication
    protocols propagate.
    """

    def __init__(self, manager: "TransactionManager", txn_id: object) -> None:
        self.manager = manager
        self.txn_id = txn_id
        self.status = ACTIVE
        self.readset: Dict[str, int] = {}    # item -> version seen
        self.writes: Dict[str, Any] = {}     # deferred after-images
        self.write_order: List[str] = []

    # -- operations -------------------------------------------------------

    def read(self, item: str) -> Future:
        """Acquire a read lock and return the item's value (future)."""
        self._ensure_active()
        result = self.manager.sim.future(label=f"read:{item}:{self.txn_id}")
        lock = self.manager.locks.acquire(
            self.txn_id, item, READ, timeout=self.manager.lock_timeout
        )

        def on_lock(future: Future) -> None:
            if future.exception is not None:
                self.manager._abort_internal(self, str(future.exception))
                result.set_exception(future.exception)
                return
            if item in self.writes:
                value = self.writes[item]  # read-your-own-writes
            else:
                value = self.manager.store.read(item)
                self.readset.setdefault(item, self.manager.store.version(item))
            result.set_result(value)

        lock.add_callback(on_lock)
        return result

    def write(self, item: str, value: Any) -> Future:
        """Acquire a write lock and buffer the write (future resolves then)."""
        self._ensure_active()
        result = self.manager.sim.future(label=f"write:{item}:{self.txn_id}")
        lock = self.manager.locks.acquire(
            self.txn_id, item, WRITE, timeout=self.manager.lock_timeout
        )

        def on_lock(future: Future) -> None:
            if future.exception is not None:
                self.manager._abort_internal(self, str(future.exception))
                result.set_exception(future.exception)
                return
            if item not in self.writes:
                self.write_order.append(item)
            self.writes[item] = value
            result.set_result(True)

        lock.add_callback(on_lock)
        return result

    # -- termination --------------------------------------------------------

    def commit(self) -> TransactionUpdates:
        """Install buffered writes, log them, release locks."""
        self._ensure_active()
        return self.manager._commit_internal(self)

    def abort(self, reason: str = "client abort") -> None:
        """Discard buffered writes and release locks."""
        if self.status == ACTIVE:
            self.manager._abort_internal(self, reason)

    def _ensure_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionAborted(self.txn_id, f"transaction is {self.status}")

    def __repr__(self) -> str:
        return f"<Transaction {self.txn_id} {self.status}>"


class TransactionManager:
    """One site's transaction engine (store + locks + log).

    Parameters
    ----------
    sim, site:
        Simulator and site name (used in transaction ids).
    lock_timeout:
        Optional lock-wait timeout applied to all lock requests; the
        distributed-locking replication protocol relies on it to break
        cross-site deadlocks that no single site can see.
    obs:
        Optional duck-typed observer (:mod:`repro.obs`), threaded into the
        lock manager and notified on commit/abort.  The db layer never
        imports the observability layer.
    """

    def __init__(
        self,
        sim: Simulator,
        site: str = "db",
        lock_timeout: Optional[float] = None,
        obs=None,
    ) -> None:
        self.sim = sim
        self.site = site
        self.lock_timeout = lock_timeout
        self.obs = obs
        self.store = DataStore(site)
        self.locks = LockManager(sim, name=site, obs=obs)
        self.wal = WriteAheadLog(site)
        self.active: Dict[object, Transaction] = {}
        self._txn_ids = itertools.count(1)
        self.committed_count = 0
        self.aborted_count = 0

    # -- lifecycle ------------------------------------------------------------

    def begin(self, txn_id: Optional[object] = None) -> Transaction:
        """Start a transaction (id auto-assigned if not given)."""
        if txn_id is None:
            txn_id = f"{self.site}:t{next(self._txn_ids)}"
        if txn_id in self.active:
            raise ValueError(f"transaction id {txn_id!r} already active")
        txn = Transaction(self, txn_id)
        self.active[txn_id] = txn
        return txn

    def abort_all_active(self, reason: str) -> List[object]:
        """Abort every active transaction (crash, failover).

        Mirrors the paper's observation that when a database server fails,
        "active transactions (not yet committed or aborted) running on that
        server are aborted".
        """
        victims = list(self.active.values())
        for txn in victims:
            self._abort_internal(txn, reason)
        return [t.txn_id for t in victims]

    # -- apply propagated updates -------------------------------------------------

    def apply_updates(self, updates: TransactionUpdates, log: bool = True) -> None:
        """Install another site's writeset (secondary / backup role)."""
        for record in updates.records:
            self.store.write_versioned(record.item, record.value, record.version)
        if log:
            self.wal.append(updates)

    # -- internals ------------------------------------------------------------------

    def _commit_internal(self, txn: Transaction) -> TransactionUpdates:
        records = []
        for item in txn.write_order:
            new_version = self.store.write(item, txn.writes[item])
            records.append(UpdateRecord(item, txn.writes[item], new_version))
        updates = TransactionUpdates(txn.txn_id, tuple(records))
        lsn = self.wal.append(updates)
        updates = TransactionUpdates(txn.txn_id, tuple(records), commit_lsn=lsn)
        txn.status = COMMITTED
        self.active.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        self.committed_count += 1
        if self.obs is not None:
            self.obs.on_txn_commit(self.site)
        return updates

    def _abort_internal(self, txn: Transaction, reason: str) -> None:
        if txn.status != ACTIVE:
            return
        txn.status = ABORTED
        self.active.pop(txn.txn_id, None)
        self.locks.release_all(txn.txn_id)
        self.aborted_count += 1
        if self.obs is not None:
            self.obs.on_txn_abort(self.site, reason)

    def __repr__(self) -> str:
        return (
            f"<TransactionManager {self.site} active={len(self.active)} "
            f"committed={self.committed_count} aborted={self.aborted_count}>"
        )
