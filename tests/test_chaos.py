"""Chaos tests: randomized faults and workloads, invariant-checked.

Each scenario draws a random crash schedule and workload from a seeded
RNG and asserts the protocol-appropriate oracle: strong techniques must
keep exactly-once counters and converge; lazy ones must converge after
reconciliation.  Failures here are the bugs that hand-written scenarios
miss — crash timing races, retry storms, detector flapping.
"""

import pytest

from repro import Operation, ReplicatedSystem
from repro.analysis import counter_check

SEEDS = [1, 2, 3]


def run_chaos(protocol, seed, replicas=3, crash_victim="r0", recover=False,
              requests=8, client_retries=True, **options):
    system = ReplicatedSystem(
        protocol, replicas=replicas, clients=2, seed=seed,
        fd_interval=2.0, fd_timeout=8.0, client_timeout=40.0, **options,
    )
    rng = system.sim.rng
    crash_time = rng.uniform(20.0, 150.0)
    system.injector.crash_at(crash_time, crash_victim)
    if recover:
        system.injector.recover_at(crash_time + rng.uniform(60.0, 120.0), crash_victim)

    all_results = []

    def client_loop(index):
        for _ in range(requests):
            result = yield system.client(index).submit(
                [Operation.update("x", "add", 1)]
            )
            attempts = 0
            while client_retries and not result.committed and attempts < 10:
                attempts += 1
                yield system.sim.timeout(10.0)
                result = yield system.client(index).submit(
                    [Operation.update("x", "add", 1)]
                )
            all_results.append(result)
            yield system.sim.timeout(rng.uniform(5.0, 30.0))

    handles = [system.sim.spawn(client_loop(i)) for i in range(2)]
    system.sim.run_until_done(system.sim.all_of(handles))
    system.settle(600)
    return system, all_results


class TestStrongTechniquesUnderChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("protocol", ["active", "semi_passive", "passive"])
    def test_ds_techniques_keep_counters_exact(self, protocol, seed):
        system, results = run_chaos(protocol, seed)
        committed = [r for r in results if r.committed]
        assert len(committed) == 16, "with retries, everything must commit"
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        violations = counter_check(committed, stores, strict=False)
        assert not violations, violations

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_primary_with_recovery(self, seed):
        system, results = run_chaos("eager_primary", seed, recover=True)
        committed = [r for r in results if r.committed]
        system.settle(400)
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        violations = counter_check(committed, stores, strict=False)
        assert not violations, violations
        assert system.converged()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_certification_under_secondary_crash(self, seed):
        # Crash a non-delegate member; certification rides the consensus
        # ABCAST and must stay exact at the survivors.
        system, results = run_chaos("certification", seed, crash_victim="r2")
        committed = [r for r in results if r.committed]
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        violations = counter_check(committed, stores, strict=False)
        assert not violations, violations

    @pytest.mark.parametrize("seed", SEEDS)
    def test_eager_ue_locking_under_secondary_crash(self, seed):
        system, results = run_chaos(
            "eager_ue_locking", seed, crash_victim="r2",
        )
        committed = [r for r in results if r.committed]
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        violations = counter_check(committed, stores, strict=False)
        assert not violations, violations


class TestWeakTechniquesUnderChaos:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lazy_ue_converges_despite_crash(self, seed):
        system, results = run_chaos(
            "lazy_ue", seed, crash_victim="r2",
            propagation_delay=15.0,
        )
        assert system.converged(), system.divergent_replicas()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lazy_primary_survivors_converge(self, seed):
        system, results = run_chaos(
            "lazy_primary", seed, propagation_delay=10.0,
        )
        assert system.converged(), system.divergent_replicas()


class TestDetectorFlapping:
    @pytest.mark.parametrize("protocol", ["active", "semi_passive"])
    def test_aggressive_detectors_never_break_safety(self, protocol):
        # Tiny FD timeout + jittery latency: constant wrong suspicions.
        from repro.net import UniformLatency
        system = ReplicatedSystem(
            protocol, replicas=3, clients=2, seed=11,
            latency=UniformLatency(0.5, 2.5),
            fd_interval=1.0, fd_timeout=1.2,
        )
        results = []

        def client_loop(index):
            for _ in range(6):
                results.append(
                    (yield system.client(index).submit(
                        [Operation.update("x", "add", 1)]
                    ))
                )
                yield system.sim.timeout(15.0)

        handles = [system.sim.spawn(client_loop(i)) for i in range(2)]
        system.sim.run_until_done(system.sim.all_of(handles))
        system.settle(600)
        wrong = sum(
            system.replicas[n].detector.wrong_suspicions
            for n in system.replica_names
        )
        assert wrong > 0, "the scenario must actually provoke wrong suspicions"
        committed = [r for r in results if r.committed]
        assert len(committed) == 12
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(committed, stores, strict=False)


class TestFaultPlaneChaos:
    """The link-fault kinds beyond crash/partition, via the injector."""

    def test_drop_storm_with_retries_stays_exact(self):
        system = ReplicatedSystem(
            "active", replicas=3, clients=2, seed=9,
            fd_interval=2.0, fd_timeout=8.0, client_timeout=40.0,
        )
        system.injector.drop_at(15.0, "r1", 0.4, duration=80.0)
        system.injector.duplicate_at(15.0, "r0", 0.3, duration=80.0)
        results = []

        def client_loop(index):
            for _ in range(6):
                result = yield system.client(index).submit(
                    [Operation.update("x", "add", 1)]
                )
                attempts = 0
                while not result.committed and attempts < 10:
                    attempts += 1
                    yield system.sim.timeout(10.0)
                    result = yield system.client(index).submit(
                        [Operation.update("x", "add", 1)]
                    )
                results.append(result)
                yield system.sim.timeout(10.0)

        handles = [system.sim.spawn(client_loop(i)) for i in range(2)]
        system.sim.run_until_done(system.sim.all_of(handles))
        system.net.clear_faults()
        system.settle(600)
        committed = [r for r in results if r.committed]
        assert len(committed) == 12
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(committed, stores, strict=False)

    def test_gray_slow_node_never_breaks_safety(self):
        # r1 is alive but 10x slow: detectors flap, consensus must still
        # exclude-or-wait correctly and counters stay exact.
        system = ReplicatedSystem(
            "semi_passive", replicas=3, clients=2, seed=10,
            fd_interval=2.0, fd_timeout=6.0, client_timeout=60.0,
        )
        system.injector.slow_at(10.0, "r1", 10.0, duration=100.0)
        system.injector.jitter_at(10.0, "r2", 5.0, duration=100.0)
        results = []

        def client_loop(index):
            for _ in range(5):
                results.append(
                    (yield system.client(index).submit(
                        [Operation.update("x", "add", 1)]
                    ))
                )
                yield system.sim.timeout(20.0)

        handles = [system.sim.spawn(client_loop(i)) for i in range(2)]
        system.sim.run_until_done(system.sim.all_of(handles))
        system.net.clear_faults()
        system.settle(600)
        committed = [r for r in results if r.committed]
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(committed, stores, strict=False)
        assert system.converged(), system.divergent_replicas()


class TestPartitionsAndHealing:
    def test_lazy_ue_partition_heal_reconciles(self):
        system = ReplicatedSystem(
            "lazy_ue", replicas=3, clients=3, seed=4,
            propagation_delay=8.0,
        )
        system.injector.partition_at(10.0, ["r0", "c0"], ["r1", "r2", "c1", "c2"])
        system.injector.heal_at(150.0)
        futures = []
        def submit_all():
            fs = [
                system.client(i).submit([Operation.write("x", f"side-{i}")])
                for i in range(3)
            ]
            values = yield system.sim.all_of(fs)
            return values
        handle = system.sim.spawn(submit_all())
        system.sim.run_until_done(handle)
        assert all(r.committed for r in handle.result)
        system.sim.run(until=600.0)
        assert system.converged(), system.divergent_replicas()

    def test_consensus_group_blocks_without_majority_then_recovers(self):
        system = ReplicatedSystem("semi_passive", replicas=3, clients=1, seed=5,
                                  fd_interval=2.0, fd_timeout=6.0)
        # Partition the client's replica away from the other two: no
        # majority on its side, so nothing can be decided...
        system.injector.partition_at(5.0, ["r0", "c0"], ["r1", "r2"])
        future = None
        def submit():
            yield system.sim.timeout(10.0)
            return (yield system.client(0).submit([Operation.write("x", 1)]))
        handle = system.sim.spawn(submit())
        system.sim.run(until=100.0)
        assert not handle.done, "minority side must block"
        # ...until the partition heals.
        system.net.heal()
        result = system.sim.run_until_done(handle)
        assert result.committed
