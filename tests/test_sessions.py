"""Tests for interactive transaction sessions (Section 5's model)."""

import pytest

from repro import Operation, ReplicatedSystem
from repro.errors import ReplicationError, TransactionAborted


def run(sim, gen):
    handle = sim.spawn(gen)
    sim.run_until_done(handle)
    return handle.result


@pytest.fixture(params=["eager_primary", "eager_ue_locking"])
def system(request):
    return ReplicatedSystem(request.param, replicas=3, seed=1)


class TestSessionLifecycle:
    def test_read_modify_write_with_client_pauses(self, system):
        """Operations issued one at a time with think time in between —
        the Section 5 model the stored-procedure shape cannot express."""
        session = system.client(0).session()

        def work():
            yield session.begin()
            balance = yield session.read("balance")
            assert balance is None
            yield system.sim.timeout(15.0)          # client-side thinking
            yield session.write("balance", 100)
            yield system.sim.timeout(15.0)
            new_balance = yield session.update("balance", "add", -30)
            assert new_balance == 70
            return (yield session.commit())

        assert run(system.sim, work()) is True
        system.settle(200)
        for name in system.replica_names:
            assert system.store_of(name).read("balance") == 70

    def test_abort_discards_everything_everywhere(self, system):
        session = system.client(0).session()

        def work():
            yield session.begin()
            yield session.write("x", "doomed")
            yield session.abort()
            return True

        run(system.sim, work())
        system.settle(200)
        for name in system.replica_names:
            assert system.store_of(name).read("x") is None
            assert system.replicas[name].tm.locks.holders_of("x") == {}

    def test_operations_after_commit_rejected(self, system):
        session = system.client(0).session()

        def work():
            yield session.begin()
            yield session.write("x", 1)
            yield session.commit()
            try:
                yield session.read("x")
            except TransactionAborted:
                return "rejected"

        assert run(system.sim, work()) == "rejected"

    def test_commit_without_begin_is_false(self, system):
        session = system.client(0).session()

        def work():
            return (yield session.commit())

        assert run(system.sim, work()) is False

    def test_uncommitted_writes_invisible_to_others(self, system):
        session = system.client(0).session()
        snapshots = {}

        def work():
            yield session.begin()
            yield session.write("x", "pending")
            snapshots["during"] = system.store_of("r1").read("x")
            yield session.commit()
            yield system.sim.timeout(50.0)
            snapshots["after"] = system.store_of("r1").read("x")

        run(system.sim, work())
        assert snapshots["during"] is None, "no dirty data at other sites"
        assert snapshots["after"] == "pending"


    @pytest.mark.parametrize("secondaries_live", [True, False],
                             ids=["live_secondaries", "no_live_secondaries"])
    def test_commit_by_a_deposed_primary_is_refused(self, secondaries_live):
        """A primary deposed between a session's write and its commit
        must not commit it.  With live secondaries their prepare fence
        refuses the round; with none left (a partition cut them off) only
        the primary's own check before 2PC stands between the write and a
        commit at the deposed primary alone."""
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1)
        if not secondaries_live:
            system.net.partition(["r0", "c0"], ["r1", "r2"])
            system.run(until=60.0)
            system.directory.set_primary("r0")
        session = system.client(0).session()

        def work():
            yield session.begin()
            yield session.write("x", 7)
            system.directory.set_primary("r1")
            return (yield session.commit())

        assert run(system.sim, work()) is False
        system.net.heal()
        system.settle(300)
        for name in system.replica_names:
            assert system.store_of(name).read("x") is None, name

class TestSessionConflicts:
    def test_two_sessions_serialise_on_conflicting_item(self, system):
        s1 = system.client(0).session()
        s2 = system.client(0).session()
        order = []

        def first():
            yield s1.begin()
            yield s1.update("x", "add", 1)
            yield system.sim.timeout(30.0)     # hold the lock a while
            committed = yield s1.commit()
            order.append(("first", system.sim.now, committed))

        def second():
            yield system.sim.timeout(5.0)
            yield s2.begin()
            yield s2.update("x", "add", 1)     # blocks behind s1's lock
            committed = yield s2.commit()
            order.append(("second", system.sim.now, committed))

        h1 = system.sim.spawn(first())
        h2 = system.sim.spawn(second())
        system.sim.run_until_done(system.sim.all_of([h1, h2]))
        system.settle(200)
        assert order[0][0] == "first", "s2 must wait for s1's lock"
        assert all(committed for _n, _t, committed in order)
        assert system.store_of("r0").read("x") == 2

    def test_deadlocked_sessions_one_aborts(self):
        system = ReplicatedSystem(
            "eager_ue_locking", replicas=2, clients=2, seed=2,
        )
        s1 = system.client(0).session()
        s2 = system.client(1).session()
        outcomes = {}

        def worker(name, session, first, second):
            yield session.begin()
            try:
                yield session.update(first, "add", 1)
                yield system.sim.timeout(5.0)
                yield session.update(second, "add", 1)
                outcomes[name] = (yield session.commit())
            except TransactionAborted:
                outcomes[name] = False

        h1 = system.sim.spawn(worker("s1", s1, "a", "b"))
        h2 = system.sim.spawn(worker("s2", s2, "b", "a"))
        system.sim.run_until_done(system.sim.all_of([h1, h2]))
        system.settle(300)
        assert sorted(outcomes.values()) in ([False, True], [False, False])
        assert system.converged()


class TestSessionSupportMatrix:
    def test_unsupported_protocols_raise(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        with pytest.raises(ReplicationError):
            system.client(0).session()

    def test_primary_sessions_target_the_directory_primary(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1)
        session = system.client(0).session()
        assert session.server == "r0"
        system.directory.set_primary("r1")
        assert system.client(0).session().server == "r1"

    def test_locking_sessions_target_the_home_replica(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, clients=2, seed=1)
        assert system.client(1).session().server == "r1"
