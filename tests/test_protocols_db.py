"""Integration tests for the database replication techniques."""

import pytest

from repro import AC, END, EX, RE, SC, Operation, ReplicatedSystem, RunSpec
from repro.core.protocols import REGISTRY
from repro.analysis import (
    check_one_copy_serializable,
    counter_check,
    history_from_results,
)
from repro.workload import WorkloadSpec, run_workload


def drive(system, n, gap=25.0, ops_factory=None, client=0):
    ops_factory = ops_factory or (lambda i: [Operation.update("x", "add", 1)])
    def loop():
        results = []
        for i in range(n):
            results.append((yield system.client(client).submit(ops_factory(i))))
            yield system.sim.timeout(gap)
        return results
    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    return handle.result


class TestEagerPrimary:
    def test_update_commits_everywhere_before_response(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 5)])
        assert result.committed
        # Eager: by response time every secondary has installed the write.
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 5

    def test_phase_sequence_matches_figure_7(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, EX, AC, AC, END]  # AC(propagation) + AC(2pc)
        collapsed = system.tracer.observed_sequence(
            result.request_id, source="r0", collapse=True
        )
        assert collapsed == [RE, EX, AC, END]
        assert system.tracer.mechanisms_used(result.request_id)[AC] == "2pc"

    def test_multi_op_loops_ex_ac_per_operation(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=1)
        result = system.execute(
            [Operation.write("x", 1), Operation.write("y", 2), Operation.write("z", 3)]
        )
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        # Figure 12: RE, then (EX, AC-propagation) per op, final AC(2pc), END.
        assert observed == [RE, EX, AC, EX, AC, EX, AC, AC, END]

    def test_reads_served_by_any_site(self):
        system = ReplicatedSystem("eager_primary", replicas=3, clients=2, seed=2)
        system.execute([Operation.write("x", 42)])
        # client 1's home is r1, a secondary
        result = system.execute([Operation.read("x")], client=1)
        assert result.committed and result.server == "r1"
        assert result.value == 42

    def test_update_at_secondary_is_rejected(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=3)
        request_future = system.client(0).submit([Operation.write("x", 1)])
        system.directory.set_primary("r1")  # make the client's target stale
        system.sim.run(until=5)
        # r0 received it while the directory said r0... force direct path:
        proto = system.protocol_at("r2")
        from repro.core.operations import Request
        # c0's own counter starts at 1, so sequence 0 is an id no request
        # of the system's c0 can have, in the reply cache or elsewhere.
        request = Request.make([Operation.write("y", 9)], client="c0",
                               sequence=0)
        proto.handle_request(request, "c0")
        system.sim.run(until=50)
        assert system.store_of("r2").read("y") is None

    def test_failover_continues_service(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(60.0, "r0")
        results = drive(system, 6, gap=30.0)
        assert all(r.committed for r in results)
        assert system.directory.primary == "r1"
        system.settle(300)
        for name in system.live_replicas():
            assert system.store_of(name).read("x") == 6

    def test_counter_oracle_under_failover(self):
        for crash_at in (55.0, 62.0, 71.0):
            system = ReplicatedSystem("eager_primary", replicas=3, seed=5,
                                      fd_interval=2.0, fd_timeout=8.0)
            system.injector.crash_at(crash_at, "r0")
            results = drive(system, 6, gap=20.0)
            system.settle(400)
            committed = [r for r in results if r.committed]
            stores = {n: system.store_of(n) for n in system.live_replicas()}
            violations = counter_check(committed, stores, strict=False)
            assert not violations, f"crash_at={crash_at}: {violations}"


class TestEagerUELocking:
    def test_write_locks_taken_at_all_sites(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 3)])
        assert result.committed
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 3
            assert system.replicas[name].tm.locks.holders_of("x") == {}

    def test_phase_sequence_matches_figure_8(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, AC, END]
        mechanisms = system.tracer.mechanisms_used(result.request_id)
        assert mechanisms[SC] == "locks" and mechanisms[AC] == "2pc"

    def test_multi_op_loops_sc_ex_per_operation(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1), Operation.write("y", 2)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        # Figure 13: RE, (SC, EX) per op, AC(2pc), END.
        assert observed == [RE, SC, EX, SC, EX, AC, END]

    def test_any_site_accepts_updates(self):
        system = ReplicatedSystem("eager_ue_locking", replicas=3, clients=3, seed=2)
        r0 = system.execute([Operation.update("x", "add", 1)], client=0)
        r1 = system.execute([Operation.update("x", "add", 1)], client=1)
        r2 = system.execute([Operation.update("x", "add", 1)], client=2)
        assert {r0.server, r1.server, r2.server} == {"r0", "r1", "r2"}
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 3

    def test_distributed_deadlock_broken_by_timeout(self):
        # Two delegates update the same two items in opposite orders,
        # concurrently: a distributed deadlock no single site can see.
        system = ReplicatedSystem(
            "eager_ue_locking", replicas=2, clients=2, seed=3,
            lock_timeout=25.0,
        )
        f1 = system.client(0).submit(
            [Operation.update("a", "add", 1), Operation.update("b", "add", 1)]
        )
        f2 = system.client(1).submit(
            [Operation.update("b", "add", 10), Operation.update("a", "add", 10)]
        )
        done = system.sim.all_of([f1, f2])
        r1, r2 = system.sim.run_until_done(done)
        assert not (r1.committed and r2.committed), "deadlock must abort someone"
        system.settle(200)
        assert system.converged()
        committed = [r for r in (r1, r2) if r.committed]
        stores = {n: system.store_of(n) for n in system.replica_names}
        assert not counter_check(committed, stores, strict=False)

    def test_concurrent_counter_increments_are_serializable(self):
        spec = WorkloadSpec(items=3, read_fraction=0.0, ops_per_transaction=2)
        system, driver, summary = run_workload(
            RunSpec("eager_ue_locking", replicas=3, clients=3, seed=9),
            spec,
            requests_per_client=6,
            settle=400.0,
        )
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(
            [r for r in driver.results if r.committed], stores, strict=False
        )
        assert system.converged()


class TestEagerUEAbcast:
    def test_total_order_execution_converges(self):
        spec = WorkloadSpec(items=3, read_fraction=0.0, ops_per_transaction=2)
        system, driver, summary = run_workload(
            RunSpec("eager_ue_abcast", replicas=3, clients=3, seed=4),
            spec,
            requests_per_client=6,
            settle=400.0,
        )
        assert summary.abort_rate == 0.0, "conservative execution never aborts"
        assert system.converged()
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(driver.results, stores, strict=False)

    def test_phase_sequence_matches_figure_9(self):
        system = ReplicatedSystem("eager_ue_abcast", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, END]
        assert system.tracer.mechanisms_used(result.request_id)[SC] == "abcast"



READS_ANYWHERE = [name for name, cls in REGISTRY.items() if cls.info.reads_anywhere]


@pytest.mark.parametrize("technique", READS_ANYWHERE)
def test_read_only_requests_stay_local(technique):
    # "Reading transactions can be performed on any site" (Section 4.3):
    # client 1's home replica r1, a secondary where there is a primary,
    # serves the read from its own copy without sending a reliable frame.
    system = ReplicatedSystem(technique, replicas=3, clients=2, seed=2)
    before = system.net.stats.by_type.get("rt.data", 0)
    result = system.execute([Operation.read("x")], client=1)
    after = system.net.stats.by_type.get("rt.data", 0)
    assert result.committed and result.server == "r1"
    assert system.tracer.observed_sequence(result.request_id, source="r1") == [RE, EX, END]
    [ex] = system.tracer.trace.select(
        category="phase", source="r1", request=result.request_id, phase=EX
    )
    assert ex.data["mechanism"] == system.info.descriptor.mechanism_of(EX)
    assert ex.data["mechanism"] == ("shadow" if technique == "certification" else "")
    assert after == before, "reads must not be broadcast"


class TestLazyPrimary:
    def test_response_precedes_propagation(self):
        system = ReplicatedSystem("lazy_primary", replicas=3, seed=1,
                                  propagation_delay=30.0)
        result = system.execute([Operation.write("x", "fresh")])
        assert result.committed
        # At response time, secondaries are still stale: weak consistency.
        assert system.store_of("r0").read("x") == "fresh"
        assert system.store_of("r1").read("x") is None
        system.settle(200)
        assert system.store_of("r1").read("x") == "fresh"

    def test_phase_sequence_matches_figure_10(self):
        system = ReplicatedSystem("lazy_primary", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        system.settle(200)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, EX, END, AC], "lazy: END before AC"

    def test_stale_reads_at_secondaries(self):
        system = ReplicatedSystem("lazy_primary", replicas=3, clients=2, seed=2,
                                  propagation_delay=50.0)
        system.execute([Operation.write("x", "v1")])
        stale = system.execute([Operation.read("x")], client=1)  # home r1
        assert stale.committed and stale.value is None, "secondary must be stale"
        system.settle(300)
        fresh = system.execute([Operation.read("x")], client=1)
        assert fresh.value == "v1"

    def test_fifo_apply_preserves_primary_commit_order(self):
        system = ReplicatedSystem("lazy_primary", replicas=2, seed=4,
                                  propagation_delay=10.0)
        drive(system, 5, gap=3.0, ops_factory=lambda i: [Operation.write("x", i)])
        system.settle(300)
        assert system.store_of("r1").read("x") == 4
        assert system.converged()


class TestLazyUE:
    def test_local_commit_immediate_response(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, clients=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        assert result.committed and result.server == "r0"
        assert result.latency <= 4.0

    def test_conflicting_sites_converge_by_lww(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, clients=3, seed=2,
                                  propagation_delay=15.0)
        futures = [
            system.client(i).submit([Operation.write("x", f"from-r{i}")])
            for i in range(3)
        ]
        system.sim.run_until_done(system.sim.all_of(futures))
        system.settle(400)
        assert system.converged()
        final = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(final) == 1

    def test_undone_transactions_are_counted(self):
        system = ReplicatedSystem("lazy_ue", replicas=2, clients=2, seed=3,
                                  propagation_delay=15.0)
        f0 = system.client(0).submit([Operation.write("x", "a")])
        f1 = system.client(1).submit([Operation.write("x", "b")])
        system.sim.run_until_done(system.sim.all_of([f0, f1]))
        system.settle(300)
        undone = sum(
            system.protocol_at(n).undone_transactions for n in system.replica_names
        )
        assert undone >= 1, "one of the conflicting writes must lose"

    def test_site_priority_reconciliation(self):
        system = ReplicatedSystem(
            "lazy_ue", replicas=2, clients=2, seed=4,
            reconciliation="priority", priorities={"r0": 10, "r1": 1},
            propagation_delay=10.0,
        )
        f0 = system.client(0).submit([Operation.write("x", "primary-site")])
        f1 = system.client(1).submit([Operation.write("x", "edge-site")])
        system.sim.run_until_done(system.sim.all_of([f0, f1]))
        system.settle(300)
        assert all(
            system.store_of(n).read("x") == "primary-site"
            for n in system.replica_names
        )

    def test_phase_sequence_matches_figure_11(self):
        system = ReplicatedSystem("lazy_ue", replicas=3, seed=5)
        result = system.execute([Operation.write("x", 1)])
        system.settle(200)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, EX, END, AC]


class TestCertification:
    def test_conflict_free_transactions_commit(self):
        system = ReplicatedSystem("certification", replicas=3, seed=1)
        r1 = system.execute([Operation.update("x", "add", 1)])
        r2 = system.execute([Operation.update("y", "add", 1)])
        assert r1.committed and r2.committed
        system.settle(200)
        assert system.converged()

    def test_concurrent_conflict_aborts_exactly_one(self):
        system = ReplicatedSystem("certification", replicas=3, clients=2, seed=2)
        ops = [Operation.update("x", "add", 1)]
        f0 = system.client(0).submit(ops)
        f1 = system.client(1).submit(list(ops))
        r0, r1 = system.sim.run_until_done(system.sim.all_of([f0, f1]))
        assert r0.committed != r1.committed, "exactly one must pass certification"
        system.settle(300)
        assert system.converged()
        assert all(system.store_of(n).read("x") == 1 for n in system.live_replicas())

    def test_all_sites_certify_identically(self):
        spec = WorkloadSpec(items=3, read_fraction=0.2, ops_per_transaction=2)
        system, driver, summary = run_workload(
            RunSpec("certification", replicas=3, clients=3, seed=3),
            spec,
            requests_per_client=6,
            settle=400.0,
        )
        certified = [system.protocol_at(n).certifier for n in system.replica_names]
        outcomes = {(c.certified, c.rejected) for c in certified}
        assert len(outcomes) == 1, f"sites disagree: {outcomes}"
        assert system.converged()

    def test_phase_sequence_matches_figure_14(self):
        system = ReplicatedSystem("certification", replicas=3, seed=4)
        result = system.execute([Operation.write("x", 1)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, EX, AC, END]
        assert "certification" in system.tracer.mechanisms_used(result.request_id)[AC]

    def test_aborted_transactions_leave_no_trace(self):
        system = ReplicatedSystem("certification", replicas=3, clients=2, seed=5)
        f0 = system.client(0).submit([Operation.update("x", "add", 100)])
        f1 = system.client(1).submit([Operation.update("x", "add", 23)])
        r0, r1 = system.sim.run_until_done(system.sim.all_of([f0, f1]))
        system.settle(300)
        winner = r0 if r0.committed else r1
        expected = winner.operations[0].argument
        assert all(
            system.store_of(n).read("x") == expected for n in system.live_replicas()
        )

    def test_serializable_history_with_retries(self):
        spec = WorkloadSpec(items=4, read_fraction=0.0, ops_per_transaction=1)
        system, driver, summary = run_workload(
            RunSpec("certification", replicas=3, clients=3, seed=6),
            spec,
            requests_per_client=5,
            retry_aborts=True,
            settle=400.0,
        )
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        committed = [r for r in driver.results if r.committed]
        assert not counter_check(committed, stores, strict=False)
        assert check_one_copy_serializable(committed, strict=False) is None


class TestLazyUEAbcastOrdering:
    """Section 4.6's alternative: after-commit order via atomic broadcast."""

    def test_concurrent_conflicts_converge_without_timestamps(self):
        system = ReplicatedSystem(
            "lazy_ue", replicas=3, clients=3, seed=6,
            reconciliation="abcast", propagation_delay=12.0,
        )
        futures = [
            system.client(i).submit([Operation.write("x", f"from-r{i}")])
            for i in range(3)
        ]
        results = system.sim.run_until_done(system.sim.all_of(futures))
        assert all(r.committed for r in results)
        system.settle(500)
        assert system.converged(), system.divergent_replicas()

    def test_all_sites_apply_same_order(self):
        spec = WorkloadSpec(items=2, read_fraction=0.0)
        system, driver, summary = run_workload(
            RunSpec("lazy_ue", replicas=3, clients=3, seed=7,
                    propagation_delay=10.0, reconciliation="abcast"),
            spec,
            requests_per_client=6,
            settle=600.0,
        )
        assert system.converged(), system.divergent_replicas()

    def test_order_inversions_counted_as_undone(self):
        # Two sites commit to the same item at different times; make the
        # earlier commit propagate later, so the ABCAST order inverts the
        # commit order somewhere across several seeds.
        inversions = 0
        for seed in range(6):
            system = ReplicatedSystem(
                "lazy_ue", replicas=2, clients=2, seed=seed,
                reconciliation="abcast", propagation_delay=10.0,
            )
            def submit_pair():
                f0 = system.client(0).submit([Operation.write("x", "first")])
                yield system.sim.timeout(3.0)
                f1 = system.client(1).submit([Operation.write("x", "second")])
                yield system.sim.all_of([f0, f1])
            handle = system.sim.spawn(submit_pair())
            system.sim.run_until_done(handle)
            system.settle(400)
            assert system.converged()
            inversions += sum(
                system.protocol_at(n).undone_transactions
                for n in system.replica_names
            )
        # Inversions are possible but not guaranteed; the counter must at
        # least be well-defined and convergence must never depend on it.
        assert inversions >= 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ReplicatedSystem("lazy_ue", replicas=2, seed=1,
                             reconciliation="vector-clocks")
