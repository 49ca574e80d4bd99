"""Tests for replica crash-recovery and resynchronisation."""

import pytest

from repro import Operation, ReplicatedSystem
from repro.core.operations import Request
from repro.core.protocols.base import CLIENT_REQUEST


def drive(system, n, gap=25.0, client=0):
    """Closed loop of increments, re-submitting aborted transactions.

    A transaction racing a secondary's crash can legitimately abort (its
    2PC vote round times out before the failure detector excludes the dead
    site); real database clients retry, so this driver does too.
    """
    def loop():
        results = []
        for _ in range(n):
            result = yield system.client(client).submit(
                [Operation.update("x", "add", 1)]
            )
            while not result.committed:
                yield system.sim.timeout(5.0)
                result = yield system.client(client).submit(
                    [Operation.update("x", "add", 1)]
                )
            results.append(result)
            yield system.sim.timeout(gap)
        return results
    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    return handle.result


class TestEagerPrimaryRecovery:
    def test_recovered_secondary_catches_up(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(30.0, "r2")
        system.injector.recover_at(160.0, "r2")
        results = drive(system, 6, gap=25.0)
        assert all(r.committed for r in results)
        system.settle(300)
        assert system.store_of("r2").read("x") == 6, (
            "recovered secondary must resync the commits it missed"
        )

    def test_recovered_old_primary_rejoins_as_secondary(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=2,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(40.0, "r0")
        system.injector.recover_at(200.0, "r0")
        results = drive(system, 8, gap=25.0)
        assert all(r.committed for r in results)
        assert system.directory.primary == "r1", "promotion must stick"
        system.settle(400)
        # The old primary resynced and then kept receiving 2PC updates.
        assert system.store_of("r0").read("x") == 8

    def test_session_open_across_a_restart_is_aborted_everywhere(self):
        # The primary restarts inside the detector timeout, so nobody
        # suspects it; the crash aborted the session's transaction there.
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1,
                                  fd_interval=2.0, fd_timeout=8.0)
        primary = system.replicas["r0"].node

        def work():
            session = system.client(0).session()
            yield session.begin()
            yield session.write("x", 42)
            primary.crash()
            yield system.sim.timeout(2.0)
            primary.recover()
            yield system.sim.timeout(1.0)
            asked = system.sim.now
            committed = yield session.commit()
            return committed, system.sim.now - asked

        committed, waited = system.sim.run_until_done(system.sim.spawn(work()))
        assert committed is False
        assert waited < 10.0, "answered at once, not by the call timeout"
        system.settle(200)
        assert system.converged()
        assert [system.store_of(n).read("x") for n in system.replica_names] == [None] * 3

    def test_in_flight_workspace_cleared_on_recovery(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=3)
        proto = system.protocol_at("r2")
        proto._workspaces["ghost"] = [("x", 1)]
        system.replicas["r2"].node.crash()
        system.replicas["r2"].node.recover()
        system.settle(100)
        assert proto._workspaces == {}


class TestEagerUELockingRecovery:
    def test_catch_up_after_suspected_outage(self):
        # r2 is down long enough to be suspected: the majority keeps
        # committing without it, and the after-images shipped to it as
        # the excluded member are lost.  Only the pull on restart can
        # bring it back, so no write happens after it recovers.
        system = ReplicatedSystem("eager_ue_locking", replicas=3, seed=6,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(5.0, "r2")
        system.injector.recover_at(400.0, "r2")
        results = drive(system, 4, gap=25.0)
        assert all(r.committed for r in results)
        system.run(until=399.0)
        assert system.store_of("r2").read("x") is None
        system.settle(300)
        assert system.store_of("r2").read("x") == 4
        assert system.store_of("r2").digest() == system.store_of("r0").digest()

    @staticmethod
    def _assert_unwedged(system):
        for name in system.replica_names:
            held = system.replicas[name].tm.locks.holding_transactions()
            assert not held, f"{name} still holds {sorted(held)}"
        later = system.execute([Operation.write("x", 2)], client=1)
        assert later.committed, later.reason

    @pytest.mark.parametrize("crash_at", [3.5, 4.5, 5.5, 6.5])
    def test_restart_before_suspicion_releases_remote_locks(self, crash_at):
        # r0 is back within the detector timeout, so nobody suspects it:
        # only its restart notice can release what its dead write holds.
        system = ReplicatedSystem("eager_ue_locking", replicas=3, clients=2,
                                  seed=1, fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(crash_at, "r0")
        system.injector.recover_at(crash_at + 2.0, "r0")
        system.submit([Operation.write("x", 1)], client=0)
        system.settle(1500)
        self._assert_unwedged(system)

    def test_restart_before_suspicion_releases_a_sessions_remote_locks(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, clients=2,
                                  seed=1, fd_interval=2.0, fd_timeout=8.0)
        delegate = system.replicas["r0"].node

        def work():
            session = system.client(0).session()
            yield session.begin()
            yield session.write("x", 1)
            delegate.crash()
            yield system.sim.timeout(2.0)
            delegate.recover()

        system.sim.run_until_done(system.sim.spawn(work()))
        system.settle(1500)
        self._assert_unwedged(system)


class TestStateTransferCarriesReplies:
    """A caught-up replica answers a retry of what it missed from its
    duplicate-reply cache instead of executing it again."""

    @staticmethod
    def _committed_while_r2_down(technique):
        system = ReplicatedSystem(technique, replicas=3, seed=1,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(5.0, "r2")
        system.injector.recover_at(100.0, "r2")

        def work():
            yield system.sim.timeout(20.0)
            return (yield system.client(0).submit([Operation.update("x", "add", 1)]))

        result = system.sim.run_until_done(system.sim.spawn(work()))
        assert result.committed and result.server == "r0"
        system.settle(300)
        assert system.store_of("r2").read("x") == 1
        return system, result

    @pytest.mark.parametrize("technique", ["eager_primary", "eager_ue_locking"])
    def test_caught_up_replica_holds_the_committed_reply(self, technique):
        system, result = self._committed_while_r2_down(technique)
        key = result.request_id
        assert system.replicas["r2"].cached_reply(key) == tuple(result.values)

    def test_retry_at_the_caught_up_replica_is_not_executed_again(self):
        system, result = self._committed_while_r2_down("eager_ue_locking")
        client = system.client(0)
        client.node.send("r2", CLIENT_REQUEST,
                         request=Request(result.request_id, result.operations))
        system.settle(300)
        assert [system.store_of(n).read("x") for n in system.replica_names] == [1] * 3


class TestPassiveRecovery:
    def test_rejoin_installs_store_and_results(self):
        system = ReplicatedSystem("passive", replicas=3, seed=7,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(5.0, "r2")
        system.injector.recover_at(150.0, "r2")
        results = drive(system, 3, gap=25.0)
        assert all(r.committed for r in results)
        system.settle(300)
        backup = system.protocol_at("r2")
        assert backup.view_group.member and "r2" in backup.view_group.view.members
        assert system.store_of("r2").digest() == system.store_of("r0").digest()
        assert system.store_of("r2").read("x") == 3
        for result in results:
            cached = system.replica("r2").cached_reply(result.request_id)
            assert cached == tuple(result.values)


class TestLazyPrimaryRecovery:
    def test_recovered_secondary_resyncs_missed_shipments(self):
        system = ReplicatedSystem("lazy_primary", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=8.0,
                                  propagation_delay=5.0)
        system.injector.crash_at(30.0, "r2")
        system.injector.recover_at(150.0, "r2")
        results = drive(system, 6, gap=25.0)
        assert all(r.committed for r in results)
        system.settle(300)
        assert system.store_of("r2").read("x") == 6

    def test_recovery_without_reachable_primary_stays_stale(self):
        system = ReplicatedSystem("lazy_primary", replicas=2, seed=5,
                                  propagation_delay=5.0)
        system.execute([Operation.write("x", "v1")])
        system.settle(100)
        system.replicas["r1"].node.crash()
        system.execute([Operation.write("x", "v2")])
        system.replicas["r0"].node.crash()   # primary also gone
        system.replicas["r1"].node.recover() # resync target unreachable
        system.settle(200)
        assert system.store_of("r1").read("x") == "v1", "stays at pre-crash state"
