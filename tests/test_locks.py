"""Unit and property tests for the strict-2PL lock manager."""

import os
import subprocess
import sys
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from helpers import contended_run
from repro.core import RunSpec
from repro.db import LockManager, READ, WRITE
from repro.db import locks as locks_module
from repro.errors import SimulationError, TransactionAborted
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def lm(sim):
    return LockManager(sim, name="site")


def granted(future):
    return future.done and not future.failed


class TestGranting:
    def test_free_item_grants_immediately(self, sim, lm):
        assert granted(lm.acquire("t1", "x", WRITE))

    def test_readers_share(self, sim, lm):
        assert granted(lm.acquire("t1", "x", READ))
        assert granted(lm.acquire("t2", "x", READ))

    def test_writer_blocks_behind_reader(self, sim, lm):
        lm.acquire("t1", "x", READ)
        blocked = lm.acquire("t2", "x", WRITE)
        assert not blocked.done
        lm.release_all("t1")
        assert granted(blocked)

    def test_reader_blocks_behind_writer(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        blocked = lm.acquire("t2", "x", READ)
        assert not blocked.done
        lm.release_all("t1")
        assert granted(blocked)

    def test_reentrant_same_mode(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        assert granted(lm.acquire("t1", "x", WRITE))
        assert granted(lm.acquire("t1", "x", READ))  # W covers R

    def test_sole_reader_upgrades(self, sim, lm):
        lm.acquire("t1", "x", READ)
        assert granted(lm.acquire("t1", "x", WRITE))
        assert lm.holds("t1", "x", WRITE)

    def test_upgrade_waits_for_other_readers(self, sim, lm):
        lm.acquire("t1", "x", READ)
        lm.acquire("t2", "x", READ)
        upgrade = lm.acquire("t1", "x", WRITE)
        assert not upgrade.done
        lm.release_all("t2")
        assert granted(upgrade)

    def test_fifo_among_writers(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        second = lm.acquire("t2", "x", WRITE)
        third = lm.acquire("t3", "x", WRITE)
        lm.release_all("t1")
        assert granted(second) and not third.done
        lm.release_all("t2")
        assert granted(third)

    def test_reader_does_not_overtake_queued_writer(self, sim, lm):
        lm.acquire("t1", "x", READ)
        writer = lm.acquire("t2", "x", WRITE)
        late_reader = lm.acquire("t3", "x", READ)
        assert not late_reader.done, "reader starving a writer"
        lm.release_all("t1")
        assert granted(writer)
        lm.release_all("t2")
        assert granted(late_reader)

    def test_free_lock_goes_to_the_head_of_the_queue(self, sim, lm):
        """Only writers queued *ahead* of a reader hold it back: with the
        reader at the head and a writer behind it, a release used to leave
        the item held by nobody until a lock timeout fired."""
        lm.acquire("w0", "x", WRITE)
        reader = lm.acquire("r1", "x", READ)
        writer = lm.acquire("w2", "x", WRITE)
        lm.release_all("w0")
        assert granted(reader) and not writer.done
        assert lm.holders_of("x") == {"r1": READ}
        lm.release_all("r1")
        assert granted(writer)

    def test_unknown_mode_rejected(self, sim, lm):
        with pytest.raises(ValueError):
            lm.acquire("t1", "x", "exclusive")


class TestDeadlock:
    def test_two_transaction_cycle_aborts_youngest(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        lm.acquire("t2", "y", WRITE)
        wait1 = lm.acquire("t1", "y", WRITE)   # t1 -> t2
        wait2 = lm.acquire("t2", "x", WRITE)   # t2 -> t1: cycle
        assert lm.deadlocks_detected == 1
        assert wait2.failed and isinstance(wait2.exception, TransactionAborted)
        # victim's release unblocks the survivor
        lm.release_all("t2")
        assert granted(wait1)

    def test_three_transaction_cycle_detected(self, sim, lm):
        lm.acquire("t1", "a", WRITE)
        lm.acquire("t2", "b", WRITE)
        lm.acquire("t3", "c", WRITE)
        lm.acquire("t1", "b", WRITE)
        lm.acquire("t2", "c", WRITE)
        w = lm.acquire("t3", "a", WRITE)
        assert lm.deadlocks_detected == 1
        assert w.failed

    def test_upgrade_deadlock_between_two_readers(self, sim, lm):
        lm.acquire("t1", "x", READ)
        lm.acquire("t2", "x", READ)
        up1 = lm.acquire("t1", "x", WRITE)
        up2 = lm.acquire("t2", "x", WRITE)
        assert lm.deadlocks_detected >= 1
        assert up1.failed or up2.failed
        victim = "t1" if up1.failed else "t2"
        lm.release_all(victim)
        survivor_future = up2 if victim == "t1" else up1
        assert granted(survivor_future)

    def test_no_false_deadlock_on_plain_contention(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        lm.acquire("t2", "x", WRITE)
        lm.acquire("t3", "x", WRITE)
        assert lm.deadlocks_detected == 0


class TestTimeouts:
    def test_lock_wait_timeout_aborts_request(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        blocked = lm.acquire("t2", "x", WRITE, timeout=10.0)
        sim.run(until=20.0)
        assert blocked.failed
        assert "timeout" in str(blocked.exception)
        assert lm.timeouts == 1

    def test_timeout_cancelled_when_granted_in_time(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        blocked = lm.acquire("t2", "x", WRITE, timeout=10.0)
        sim.schedule(2.0, lm.release_all, "t1")
        sim.run(until=50.0)
        assert granted(blocked)
        assert lm.timeouts == 0


class TestReleaseSemantics:
    def test_release_all_clears_queued_requests(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        lm.acquire("t2", "x", WRITE)
        lm.release_all("t2")  # abort while waiting
        assert lm.waiting_count("x") == 0
        lm.release_all("t1")
        assert lm.holders_of("x") == {}

    def test_release_unknown_txn_is_noop(self, sim, lm):
        lm.release_all("ghost")


# ---------------------------------------------------------------------------
# Reference oracle: the whole-table wait-for graph and the search over it,
# as the lock manager built them on every blocked acquire before the
# on-demand search replaced them (bodies verbatim, ``self`` -> ``lm``).
# ---------------------------------------------------------------------------

def reference_wait_for_graph(lm) -> Dict[object, Set[object]]:
    graph: Dict[object, Set[object]] = {}
    for item, queue in lm._queues.items():
        holders = lm._holders.get(item, {})
        ahead: List[object] = []
        for request in queue:
            edges = graph.setdefault(request.txn, set())
            for holder, mode in holders.items():
                if holder != request.txn and (
                    request.mode == WRITE or mode == WRITE
                ):
                    edges.add(holder)
            for earlier in ahead:
                if earlier.txn != request.txn and (
                    request.mode == WRITE or earlier.mode == WRITE
                ):
                    edges.add(earlier.txn)
            ahead.append(request)
    return graph


def reference_find_cycle(lm, start: object) -> Optional[List[object]]:
    graph = reference_wait_for_graph(lm)
    path: List[object] = []
    on_path: Set[object] = set()
    visited: Set[object] = set()

    def dfs(txn: object) -> Optional[List[object]]:
        visited.add(txn)
        path.append(txn)
        on_path.add(txn)
        for waited_on in graph.get(txn, ()):  # noqa: B007
            if waited_on in on_path:
                return path[path.index(waited_on):]
            if waited_on not in visited:
                cycle = dfs(waited_on)
                if cycle is not None:
                    return cycle
        path.pop()
        on_path.discard(txn)
        return None

    return dfs(start)


class TestReentrancy:
    """Resolving a lock future resumes its process inside the manager."""

    def test_request_made_inside_a_victim_abort_is_not_lost(self, sim, lm):
        """Distilled from eager_primary, 3-op transactions, seed 7, t = 87.27.

        The victim releases on abort; that release grants a queued reader,
        which upgrades on grant.  The upgrade has to wait for the other
        reader and must still be queued when the dust settles.
        """
        upgrades = []
        lm.acquire("holder", "x", READ)
        lm.acquire("victim", "y", WRITE)
        doomed = lm.acquire("victim", "x", WRITE)
        doomed.add_callback(lambda _f: lm.release_all("victim"))
        reader = lm.acquire("reader", "x", READ)       # behind the writer
        reader.add_callback(
            lambda _f: upgrades.append(lm.acquire("reader", "x", WRITE))
        )
        lm.acquire("holder", "y", WRITE)               # holder <-> victim

        assert lm.deadlocks_detected == 1 and doomed.failed
        assert granted(reader) and lm.holds("holder", "y", WRITE)
        (upgrade,) = upgrades
        assert not upgrade.done
        assert lm.waiting_count("x") == 1, "the upgrade fell out of the table"
        lm.release_all("holder")
        assert granted(upgrade) and lm.holds("reader", "x", WRITE)

    def test_release_inside_a_timeout_keeps_later_arrivals(self, sim, lm):
        lm.acquire("t1", "x", WRITE)
        late = []
        expiring = lm.acquire("t2", "x", WRITE, timeout=5.0)
        expiring.add_callback(
            lambda _f: late.append(lm.acquire("t3", "x", WRITE))
        )
        sim.run(until=10.0)
        assert expiring.failed and lm.waiting_count("x") == 1
        lm.release_all("t1")
        assert granted(late[0])

    def test_victim_with_two_requests_has_both_failed(self, sim, lm):
        lm.acquire("old", "x", WRITE)
        lm.acquire("young", "y", WRITE)
        lm.acquire("other", "z", WRITE)
        first = lm.acquire("young", "z", WRITE)
        first.add_callback(lambda _f: lm.release_all("young"))
        lm.acquire("old", "y", WRITE)
        second = lm.acquire("young", "x", WRITE)       # closes old <-> young
        assert first.failed and second.failed
        assert lm.waiting_count() == 0 and lm.holds("old", "y", WRITE)


class TestSkippedSearch:
    """``acquire`` skips the deadlock search only where no cycle can be
    reached.  In the first three schedules a cycle that no search has
    broken is still in the table when a fresh transaction comes to wait
    on it, so that wait must search."""

    def test_cycle_closed_by_an_upgrade_is_found_by_the_next_wait(self, sim, lm):
        """An upgrade granted at once, inside the wake that granted its
        read, makes the reader queued behind wait for the upgrader."""
        upgrades = []
        lm.acquire("t0", "x", WRITE)
        lm.acquire("t2", "y", WRITE)
        read = lm.acquire("t1", "x", READ)                # behind t0
        read.add_callback(
            lambda _f: upgrades.append(lm.acquire("t1", "x", WRITE))
        )
        behind = lm.acquire("t2", "x", READ)              # behind t1's read
        blocked = lm.acquire("t1", "y", WRITE)            # t1 -> t2
        lm.release_all("t0")                              # t2 -> t1 closes it
        (upgrade,) = upgrades
        assert granted(upgrade) and not behind.done and lm.deadlocks_detected == 0
        lm.acquire("t3", "x", WRITE)                      # t3 -> t1 -> t2 -> t1
        assert lm.deadlocks_detected == 1 and blocked.failed

    def test_cycle_left_by_another_victim_is_found_by_the_next_wait(self, sim, lm):
        """The requester closes two cycles; the search breaks the first by
        aborting a younger transaction, and the second survives."""
        lm.acquire("old", "p", WRITE)
        lm.acquire("old", "q", WRITE)
        lm.acquire("a", "x", READ)
        lm.acquire("b", "x", READ)
        a_wait = lm.acquire("a", "p", WRITE)
        b_wait = lm.acquire("b", "q", WRITE)
        lm.acquire("old", "x", WRITE)                     # old <-> a, old <-> b
        assert lm.deadlocks_detected == 1 and a_wait.failed and not b_wait.done
        lm.acquire("new", "p", WRITE)                     # new -> old <-> b
        assert lm.deadlocks_detected == 2 and b_wait.failed

    def test_cycle_still_closed_while_the_requester_is_aborted(self, sim, lm):
        """The requester is the victim and has two queued requests: while
        the abort fails the first, the second still closes the cycle, and
        a fresh wait made from the failure's callback must find it."""
        lm.acquire("y", "b", WRITE)
        lm.acquire("x", "a", WRITE)
        lm.acquire("r", "c", WRITE)
        lm.acquire("y", "c", WRITE)                       # y -> r
        first = lm.acquire("r", "a", WRITE)               # r -> x
        fresh = []
        first.add_callback(lambda _f: fresh.append(lm.acquire("f", "b", WRITE)))
        second = lm.acquire("r", "b", WRITE)              # r <-> y; r dies
        assert first.failed and second.failed and not fresh[0].done
        assert lm.deadlocks_detected == 2                 # found again from f

    def test_fresh_waits_skip_the_search(self, sim, lm):
        """A transaction that holds nothing here and waits for the first
        time runs no search, also behind a queue; one that holds a lock
        or waits already does."""
        searches = []
        real_search = lm._find_cycle
        lm._find_cycle = lambda start: searches.append(start) or real_search(start)
        lm.acquire("t0", "x", WRITE)
        for txn in ("t1", "t2", "t3"):
            lm.acquire(txn, "x", WRITE)
        assert searches == [] and lm.waiting_count("x") == 3
        lm.acquire("t4", "y", WRITE)
        lm.acquire("t4", "x", WRITE)                      # t4 holds y
        lm.acquire("t5", "z", READ)
        lm.acquire("t6", "z", WRITE)                      # fresh
        lm.acquire("t6", "y", WRITE)                      # t6 waits already
        assert searches == ["t4", "t6"] and lm.deadlocks_detected == 0


class TestDeterministicOrder:
    """Nothing the table decides may depend on ``PYTHONHASHSEED``."""

    def test_release_wakes_waiters_in_grant_order(self, sim, lm):
        items = ["item3", "item1", "item2", "item0", "item4", "item5"]
        woken = []
        for item in items:
            lm.acquire("holder", item, WRITE)
        for item in sorted(items):
            lm.acquire(f"w-{item}", item, WRITE).add_callback(
                lambda _f, item=item: woken.append(item)
            )
        lm.release_all("holder")
        assert woken == items

    @pytest.mark.parametrize("first,second", [("a", "b"), ("b", "a")])
    def test_first_cycle_in_grant_order_names_the_victim(self, sim, lm, first, second):
        """Two cycles through the requester: the holder granted first is on
        the one that is found, whatever the transactions are called."""
        lm.acquire("old", "p", WRITE)
        lm.acquire("old", "q", WRITE)
        lm.acquire(first, "x", READ)
        lm.acquire(second, "x", READ)
        waits = {
            first: lm.acquire(first, "p", WRITE),
            second: lm.acquire(second, "q", WRITE),
        }
        lm.acquire("old", "x", WRITE)
        assert lm.deadlocks_detected == 1
        assert waits[first].failed and not waits[second].done

    def test_same_seed_same_answer_under_two_hash_seeds(self, tmp_path):
        """Every technique's contended 3-op run and one chaos cell's verdict
        (the seed-0 cell with a breaker trip), in two interpreters with
        different salts."""
        code = (
            "import sys\n"
            "from helpers import contended_digest\n"
            "from repro.core import REGISTRY, RunSpec\n"
            "from repro.resilience import CAMPAIGNS, run_campaign\n"
            "for technique in REGISTRY:\n"
            "    print(technique, contended_digest(technique, 7))\n"
            "report = run_campaign(\n"
            "    RunSpec('eager_ue_locking', clients=2, seed=0, observe=True),\n"
            "    CAMPAIGNS['partition_during_view_change'], artifact_dir=sys.argv[1])\n"
            "assert report.breaker_trips == 1\n"
            "print(open(sys.argv[1] + '/' + report.artifacts['report']).read())\n"
        )
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.join(os.path.dirname(tests_dir), "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
            out_dir = tmp_path / hash_seed
            out_dir.mkdir()
            done = subprocess.run(
                [sys.executable, "-c", code, str(out_dir)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("\n") > 10 and '"passed": true' in outputs[0]


class TestContendedTransactions:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 7])
    def test_multi_operation_run_drains(self, seed):
        """Every client is answered and every lock table ends up empty.

        Before the re-entrancy rule a queued upgrade was overwritten inside
        a victim abort at each of these seeds; its client never got a reply
        and the run spun on heartbeats to the event cap.
        """
        try:
            system, engine, summary = contended_run(
                RunSpec("eager_primary", clients=4, seed=seed)
            )
        except SimulationError as error:
            pytest.fail(f"a client was never answered: {error}")
        assert summary.committed + summary.aborted == summary.offered > 250
        assert summary.committed > 0
        for name in system.replica_names:
            table = system.replica(name).tm.locks
            assert table.waiting_count() == 0
            assert table.holding_transactions() == set()
        assert system.converged()


# ---------------------------------------------------------------------------
# Property tests: scripts of transactions that react inline
# ---------------------------------------------------------------------------

ITEMS = ["x", "y", "z"]


@st.composite
def lock_scripts(draw):
    """``(steps, reactions)``.

    Steps act on the table from outside; ``reactions[txn]`` says what the
    transaction's "process" does *inside* the manager when one of its lock
    futures resolves: whether it releases on abort, and which follow-up
    locks it asks for on each grant (``None`` as the item: upgrade the one
    just granted).
    """
    txns = [f"t{i}" for i in range(draw(st.integers(2, 4)))]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(txns),
                st.sampled_from(
                    ["acquire_r", "acquire_w", "acquire_w_timeout", "release",
                     "advance"]
                ),
                st.sampled_from(ITEMS),
            ),
            min_size=1,
            max_size=25,
        )
    )
    follow_up = st.tuples(st.sampled_from(ITEMS + [None]), st.sampled_from([READ, WRITE]))
    reactions = {
        txn: (draw(st.booleans()), draw(st.lists(follow_up, max_size=3)))
        for txn in txns
    }
    return steps, reactions


def compatible_with_holders(lm, txn, item, mode) -> bool:
    """Whether the holders of ``item`` alone allow ``txn`` the lock."""
    holders = lm.holders_of(item)
    held = holders.pop(txn, None)
    if held == WRITE or held == mode:
        return True
    if held == READ:
        return not holders
    return not holders if mode == WRITE else WRITE not in holders.values()


class ScriptRunner:
    """Plays a lock script, the transactions reacting inline."""

    def __init__(self, reactions) -> None:
        self.sim = Simulator(seed=0)
        self.lm = LockManager(self.sim)
        self.reactions = {
            txn: (release_on_abort, list(follow_ups))
            for txn, (release_on_abort, follow_ups) in reactions.items()
        }
        self.pending: Dict[str, list] = {}   # futures release has not dropped
        # Per search, the youngest transaction on the cycle it found (None
        # for no cycle); and every deadlock victim.  Both in order.
        self.youngest: List[Optional[object]] = []
        self.victims: List[object] = []
        real_search = self.lm._find_cycle
        real_abort = self.lm._abort_waiting

        def checked_search(start):
            found = real_search(start)
            expected = reference_find_cycle(self.lm, start)
            assert (found is None) == (expected is None), (found, expected)
            youngest = None
            if found is not None:
                graph = reference_wait_for_graph(self.lm)
                for here, there in zip(found, found[1:] + found[:1]):
                    assert there in graph[here], (found, graph)
                youngest = max(found, key=lambda t: self.lm._ages.get(t, 0))
            self.youngest.append(youngest)
            return found

        def recorded_abort(victim):
            self.victims.append(victim)
            real_abort(victim)

        self.lm._find_cycle = checked_search
        self.lm._abort_waiting = recorded_abort

    def acquire(self, txn, item, mode, timeout=None) -> None:
        """One acquire, checked against the oracle at the moment its search
        would run: a queued request that skips the search must close no
        cycle the oracle can reach, and one that searches must abort the
        youngest transaction on the (oracle-checked) cycle it finds."""
        searches, victims = len(self.youngest), len(self.victims)
        future = self.lm.acquire(txn, item, mode, timeout=timeout)
        if len(self.youngest) == searches:
            if not future.done:  # queued, and nothing ran inside acquire
                expected = reference_find_cycle(self.lm, txn)
                assert expected is None, f"{txn} skipped the search: {expected}"
        else:
            # This acquire's search and abort come before any nested ones.
            youngest = self.youngest[searches]
            if youngest is None:
                assert len(self.victims) == victims
            else:
                assert self.victims[victims] == youngest, (youngest, self.victims)
        self.pending.setdefault(txn, []).append(future)
        future.add_callback(lambda f: self.react(txn, item, f))

    def release(self, txn) -> None:
        self.pending.pop(txn, None)
        self.lm.release_all(txn)

    def react(self, txn, item, future) -> None:
        release_on_abort, follow_ups = self.reactions[txn]
        if future.failed:
            if release_on_abort:
                self.release(txn)
        elif follow_ups and future in self.pending.get(txn, ()):
            next_item, mode = follow_ups.pop(0)
            self.acquire(txn, next_item or item, mode)

    def step(self, txn, action, item) -> None:
        if action == "release":
            self.release(txn)
        elif action == "advance":
            self.sim.run(until=self.sim.now + 3.0)
        else:
            mode = READ if action == "acquire_r" else WRITE
            timeout = 4.0 if action.endswith("timeout") else None
            self.acquire(txn, item, mode, timeout)

    # -- the invariants --------------------------------------------------------

    def check_no_conflicting_holders(self) -> None:
        for item in ITEMS:
            holders = self.lm.holders_of(item)
            if WRITE in holders.values():
                assert len(holders) == 1, f"writer shares {item}: {holders}"

    def check_nothing_lost(self) -> None:
        lm = self.lm
        queued = [r for queue in lm._queues.values() for r in queue]
        indexed = [r for mine in lm._waiting.values() for r in mine]
        assert sorted(map(id, queued)) == sorted(map(id, indexed))
        assert all(lm._queues.values()) and all(lm._waiting.values())
        assert all(r in lm._queues[r.item] and not r.future.done for r in indexed)
        assert all(r.txn == txn for txn, mine in lm._waiting.items() for r in mine)
        waiting = sorted(id(r.future) for r in queued)
        unresolved = sorted(
            id(f) for futures in self.pending.values() for f in futures if not f.done
        )
        assert waiting == unresolved, "an unresolved request is in no queue"
        assert {(t, i) for i, hs in lm._holders.items() for t in hs} == {
            (t, i) for t, items in lm._held_by_txn.items() for i in items
        }

    def check_work_conserving(self) -> None:
        for item, queue in self.lm._queues.items():
            head = queue[0]
            assert not compatible_with_holders(self.lm, head.txn, item, head.mode), (
                f"{item} could be granted to {head.txn} and is not: "
                f"{self.lm.holders_of(item)}"
            )

    def check_search_matches_oracle(self) -> None:
        assert self.lm._wait_for_graph() == reference_wait_for_graph(self.lm)
        for txn in self.reactions:
            self.lm._find_cycle(txn)     # the checked wrapper


class TestSafetyProperty:
    @given(lock_scripts())
    @settings(max_examples=120, deadline=None)
    def test_never_conflicting_holders(self, script):
        """Invariant: at no point do two transactions hold conflicting locks."""
        steps, reactions = script
        runner = ScriptRunner(reactions)
        for step in steps:
            runner.step(*step)
            runner.check_no_conflicting_holders()

    @given(lock_scripts())
    @settings(max_examples=200, deadline=None)
    def test_nothing_lost_and_search_matches_the_oracle(self, script):
        """After every step: every unresolved request is in exactly one
        queue and the wait index equals the queues; no queue has a head
        that could be granted; the on-demand search and the whole-graph
        oracle agree, edge for edge and on whether a cycle is reachable
        (also at the moment of every blocked acquire)."""
        steps, reactions = script
        runner = ScriptRunner(reactions)
        for step in steps:
            runner.step(*step)
            runner.check_nothing_lost()
            runner.check_work_conserving()
            runner.check_search_matches_oracle()


class TestScaling:
    def test_cost_does_not_grow_with_unrelated_contention(self):
        """A blocked acquire on a fresh item, its release and a timeout run
        the same number of lock-manager lines whether 10 or 200 unrelated
        contended items sit in the table (count-based: no clock)."""

        def lines_executed(unrelated: int) -> int:
            sim = Simulator(seed=0)
            lm = LockManager(sim)
            for i in range(unrelated):
                for j in range(4):
                    lm.acquire(f"u{i}-{j}", f"item{i}", WRITE)
            lm.acquire("a", "x", WRITE)
            count = 0
            code_file = locks_module.__file__

            def tracer(frame, event, _arg):
                nonlocal count
                if frame.f_code.co_filename != code_file:
                    return None
                if event == "line":
                    count += 1
                return tracer

            previous = sys.gettrace()
            sys.settrace(tracer)
            try:
                blocked = lm.acquire("b", "x", WRITE)
                lm.acquire("c", "x", WRITE, timeout=1.0)
                sim.run(until=2.0)
                lm.release_all("a")
            finally:
                sys.settrace(previous)
            assert granted(blocked) and lm.timeouts == 1
            return count

        assert lines_executed(10) == lines_executed(200)
