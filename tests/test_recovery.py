"""Tests for replica crash-recovery and resynchronisation."""

import pytest

from repro import Operation, ReplicatedSystem


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

    def test_in_flight_workspace_cleared_on_recovery(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=3)
        proto = system.protocol_at("r2")
        proto._workspaces["ghost"] = [("x", 1)]
        system.replicas["r2"].node.crash()
        system.replicas["r2"].node.recover()
        system.settle(100)
        assert proto._workspaces == {}


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
