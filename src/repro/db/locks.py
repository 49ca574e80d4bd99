"""Lock manager: strict two-phase locking with deadlock handling.

Implements the concurrency-control substrate the paper's database
protocols assume ("Isolation is provided by concurrency control mechanisms
such as locking protocols [BHG87]"):

* shared (read) and exclusive (write) locks with FIFO wait queues,
* lock upgrades (read -> write) for the sole holder,
* local deadlock detection on the wait-for graph, aborting the youngest
  transaction in the cycle,
* optional lock-wait timeouts — the classical resolution for *distributed*
  deadlocks in eager update-everywhere replication, where no site sees the
  global wait-for graph (Section 4.4.1).

Locks are acquired through futures so simulated processes block in
simulated time: ``yield lock_manager.acquire(txn, item, "w")``.

An operation costs what it touches, not the size of the table.  Beside the
per-item queues there is a *wait index* (transaction -> its queued requests,
in the order it made them), so release, timeout and victim abort go straight
to a transaction's requests, and the deadlock search never builds the
wait-for graph: it asks for the edges of the one transaction it is visiting.
Those edges come in a fixed order and held items are released in grant
order, so which waiter resumes first and which cycle is found do not depend
on ``PYTHONHASHSEED``.

Most blocked acquires need no search at all.  A cycle through the
requester needs an edge into it, and there is none when it holds nothing
here and the new request is its only queued one (nothing queues behind
the last request of a queue).  The search would then only find a cycle
left over from before, and one flag, ``_acyclic``, says there is none:
it is cleared wherever a cycle may survive, close or be seen without a
search, and set again once nothing waits.

The table is re-entrant: resolving a future runs its callbacks inline, so
granting or failing a request resumes its process *inside* the manager and
that process comes straight back into ``acquire`` / ``release_all``.  One
rule keeps this safe — **resolve, then look again**: queues and the index
are mutated in place only, the table is consistent whenever a future is
resolved, and nothing read before a resolution (a queue, a position in it)
is trusted or written back after it.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import TransactionAborted
from ..sim import Future, Simulator

__all__ = ["LockManager", "READ", "WRITE"]

READ = "r"
WRITE = "w"


class _Request:
    __slots__ = ("txn", "item", "mode", "future", "timer", "span", "wait_start")

    def __init__(self, txn, item: str, mode: str, future: Future) -> None:
        self.txn = txn
        self.item = item
        self.mode = mode
        self.future = future
        self.timer = None
        self.span = None          # observability: open lock-wait span
        self.wait_start = 0.0


class LockManager:
    """One site's lock table.

    Transactions are identified by hashable ids.  The manager records the
    arrival order of transactions and uses it as age for deadlock victim
    selection (youngest dies), the standard policy that avoids starving
    long-running transactions.

    Invariants, true whenever control leaves the manager (also into a
    resumed process): a request is in ``_queues[request.item]`` exactly when
    it is in ``_waiting[request.txn]``; neither dict keeps an empty list;
    ``_holders`` and ``_held_by_txn`` mirror each other, both in grant order.
    """

    def __init__(self, sim: Simulator, name: str = "", obs=None) -> None:
        self.sim = sim
        self.name = name
        self.obs = obs  # optional duck-typed observer (repro.obs)
        self._holders: Dict[str, Dict[object, str]] = {}
        self._queues: Dict[str, List[_Request]] = {}
        self._held_by_txn: Dict[object, Dict[str, None]] = {}
        self._waiting: Dict[object, List[_Request]] = {}  # the wait index
        self._ages: Dict[object, int] = {}
        self._grant_times: Dict[Tuple[object, str], float] = {}
        self._arrivals = itertools.count(1)
        self.deadlocks_detected = 0
        self.timeouts = 0
        # True only while the wait-for graph has no cycle (see the module
        # docstring); False means "may have one".
        self._acyclic = True

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self, txn: object, item: str, mode: str, timeout: Optional[float] = None
    ) -> Future:
        """Request a lock; the returned future resolves when granted.

        Fails with :class:`TransactionAborted` if the request is chosen as
        a deadlock victim or ``timeout`` expires first.
        """
        if mode not in (READ, WRITE):
            raise ValueError(f"unknown lock mode {mode!r}")
        if self.obs is not None:
            # Record the request itself (not just contention) so recorded
            # traffic can be cross-validated against the static wait graph.
            self.obs.on_lock_acquire(self.name, txn, item, mode)
        self._ages.setdefault(txn, next(self._arrivals))
        future = self.sim.future(label=f"lock:{item}:{mode}:{txn}")
        queue = self._queues.get(item, ())
        if self._can_grant(txn, item, mode, queue):
            if queue:
                # An upgrade jumps the queue and adds edges into ``txn``
                # with no search to see whether they close a cycle.
                self._acyclic = False
            self._grant(txn, item, mode)
            if self.obs is not None:
                self.obs.on_lock_granted(None, 0.0)
            future.set_result(True)
            return future
        request = _Request(txn, item, mode, future)
        if self.obs is not None:
            request.span = self.obs.on_lock_wait(self.name, txn, item, mode)
            request.wait_start = self.sim.now
        if timeout is not None:
            request.timer = self.sim.schedule(timeout, self._expire, request)
        # The single enqueue point: queue and wait index change together.
        self._queues.setdefault(item, []).append(request)
        mine = self._waiting.setdefault(txn, [])
        mine.append(request)
        if self._acyclic and len(mine) == 1 and txn not in self._held_by_txn:
            return future  # nothing waits for txn: no cycle can close
        cycle = self._find_cycle(txn)
        if cycle:
            self.deadlocks_detected += 1
            if self.obs is not None:
                self.obs.on_deadlock()
            victim = max(cycle, key=lambda t: self._ages.get(t, 0))
            if victim != txn or len(mine) > 1:
                # Aborting another victim breaks the cycle found; another
                # one through txn may survive.  And while the abort fails
                # txn's first request, its others still close the cycle
                # for any acquire the resumed processes make.
                self._acyclic = False
            self._abort_waiting(victim)
        return future

    def _can_grant(self, txn: object, item: str, mode: str, ahead=()) -> bool:
        """Whether the holders, and the requests queued ``ahead``, allow it.

        A new arrival has the whole queue ahead of it; the head of a queue
        has nothing ahead and is held back by holders alone, so a lock
        nobody holds is never left ungranted because of who queues behind.
        """
        holders = self._holders.get(item)
        if holders:
            held = holders.get(txn)
            if held == WRITE or held == mode:
                return True  # re-entrant / already sufficient
            if held is not None:
                # Upgrade: only if sole holder (queue state is irrelevant —
                # upgrades jump the queue to avoid trivial upgrade deadlock).
                return len(holders) == 1
            if mode == WRITE or WRITE in holders.values():
                return False
        if mode == READ:
            # Fairness: readers must not overtake queued writers.
            for request in ahead:
                if request.mode == WRITE:
                    return False
        return True

    def _grant(self, txn: object, item: str, mode: str) -> None:
        holders = self._holders.setdefault(item, {})
        current = holders.get(txn)
        holders[txn] = WRITE if WRITE in (current, mode) else READ
        self._held_by_txn.setdefault(txn, {})[item] = None
        if self.obs is not None:
            self._grant_times.setdefault((txn, item), self.sim.now)

    def _dequeue(self, request: _Request) -> bool:
        """Take a request out of its queue and the wait index, in place.

        Returns ``False`` if it is queued no longer: a process resumed by an
        earlier resolution got there first.
        """
        mine = self._waiting.get(request.txn)
        if not mine or request not in mine:
            return False
        mine.remove(request)
        if not mine:
            del self._waiting[request.txn]
            if not self._waiting:
                self._acyclic = True  # nothing waits: no edges at all
        queue = self._queues[request.item]
        queue.remove(request)
        if not queue:
            del self._queues[request.item]
        if request.timer is not None:
            request.timer.cancel()
        return True

    # -- release -----------------------------------------------------------------

    def release_all(self, txn: object) -> None:
        """Release every lock held or requested by ``txn`` (strict 2PL).

        Requests still queued (aborted while waiting) are dropped without
        resolution.  They leave the table before anyone is woken, so no
        process resumed below can be granted a lock on ``txn``'s behalf;
        waiters are then woken item by item, held items in grant order.
        """
        held = self._held_by_txn.pop(txn, ())
        dropped = list(self._waiting.get(txn, ()))
        for request in dropped:
            self._dequeue(request)
        for item in held:
            holders = self._holders.get(item)
            if holders is not None:
                holders.pop(txn, None)
                if not holders:
                    del self._holders[item]
            if self.obs is not None:
                granted_at = self._grant_times.pop((txn, item), None)
                if granted_at is not None:
                    self.obs.on_lock_released(self.sim.now - granted_at)
            self._wake(item)
        for request in dropped:
            self._wake(request.item)
        self._ages.pop(txn, None)

    def reset(self) -> None:
        """Drop the entire lock table (host crash: lock state is volatile).

        Releases local *and* remotely-granted locks — without this, a
        write lock granted to another site's transaction would survive a
        crash/recovery cycle and, the granting delegate's abort having
        been dropped while this host was down, wedge the item forever.
        Queued waiters are cancelled without resolution: the processes
        waiting on them died with the host.
        """
        for queue in self._queues.values():
            for request in queue:
                if request.timer is not None:
                    request.timer.cancel()
        self._queues.clear()
        self._waiting.clear()
        self._holders.clear()
        self._held_by_txn.clear()
        self._ages.clear()
        self._grant_times.clear()
        self._acyclic = True

    def _wake(self, item: str) -> None:
        """Grant from the head of ``item``'s queue for as long as it can be."""
        while True:
            queue = self._queues.get(item)  # again: a grant resumes a process
            if not queue:
                return
            head = queue[0]
            if head.future.done:  # cancelled from outside
                self._dequeue(head)
                continue
            if not self._can_grant(head.txn, item, head.mode):
                return
            self._dequeue(head)
            self._grant(head.txn, item, head.mode)
            if self.obs is not None:
                self.obs.on_lock_granted(head.span, self.sim.now - head.wait_start)
            head.future.set_result(True)

    # -- failure paths -----------------------------------------------------------

    def _expire(self, request: _Request) -> None:
        if request.future.done or not self._dequeue(request):
            return
        self.timeouts += 1
        if self.obs is not None:
            self.obs.on_lock_failed(request.span, "timeout")
        request.future.set_exception(
            TransactionAborted(request.txn, "lock wait timeout")
        )
        self._wake(request.item)

    def _abort_waiting(self, victim: object) -> None:
        """Fail all of the victim's queued requests with a deadlock abort.

        The copy is a work list, nothing is written back from it: failing
        the first request usually makes the victim release, which drops the
        rest from the table; they are failed here all the same.
        """
        for request in list(self._waiting.get(victim, ())):
            self._dequeue(request)
            if not request.future.done:
                if self.obs is not None:
                    self.obs.on_lock_failed(request.span, "deadlock")
                request.future.set_exception(
                    TransactionAborted(victim, "deadlock victim")
                )
            self._wake(request.item)

    # -- deadlock detection ------------------------------------------------------

    def _blockers(self, txn: object) -> Iterator[object]:
        """The wait-for edges out of ``txn``, produced on demand.

        For each of its queued requests, in the order it made them: the
        holders it conflicts with (grant order), then the conflicting
        requests queued ahead of it (queue order).  Repeats are possible.
        """
        for request in self._waiting.get(txn, ()):
            exclusive = request.mode == WRITE
            for holder, mode in self._holders.get(request.item, {}).items():
                if (exclusive or mode == WRITE) and holder != txn:
                    yield holder
            for earlier in self._queues[request.item]:
                if earlier is request:
                    break
                if (exclusive or earlier.mode == WRITE) and earlier.txn != txn:
                    yield earlier.txn

    def _find_cycle(self, start: object) -> Optional[List[object]]:
        """Depth-first search from ``start``; returns the first cycle reached.

        Costs what ``start`` can reach, not the table: only transactions
        that wait have edges, and only the visited ones are asked for them.
        """
        path = {start: None}  # insertion-ordered: the branch being explored
        visited = {start}
        trail = [self._blockers(start)]
        while trail:
            for waited_on in trail[-1]:
                if waited_on in path:
                    branch = list(path)
                    return branch[branch.index(waited_on):]
                if waited_on not in visited:
                    visited.add(waited_on)
                    path[waited_on] = None
                    trail.append(self._blockers(waited_on))
                    break
            else:
                trail.pop()
                path.popitem()
        return None

    def _wait_for_graph(self) -> Dict[object, Set[object]]:
        """The whole wait-for graph (introspection and tests only)."""
        return {txn: set(self._blockers(txn)) for txn in self._waiting}

    # -- introspection ----------------------------------------------------------

    def holders_of(self, item: str) -> Dict[object, str]:
        return dict(self._holders.get(item, {}))

    def holds(self, txn: object, item: str, mode: str) -> bool:
        held = self._holders.get(item, {}).get(txn)
        return held == WRITE or held == mode

    def holding_transactions(self) -> Set[object]:
        """All transactions currently holding at least one lock."""
        txns: Set[object] = set()
        for holders in self._holders.values():
            txns.update(holders)
        return txns

    def waiting_count(self, item: Optional[str] = None) -> int:
        if item is not None:
            return len(self._queues.get(item, []))
        return sum(len(q) for q in self._queues.values())

    def __repr__(self) -> str:
        return (
            f"<LockManager {self.name} locked_items={len(self._holders)} "
            f"waiting={self.waiting_count()}>"
        )
