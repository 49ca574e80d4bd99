"""Cross-protocol property tests: randomized workloads, fixed invariants.

Hypothesis draws small update workloads and seeds; every strong-
consistency technique must keep the counter oracle exact and converge;
lazy techniques must converge.  These are end-to-end properties over the
full stack (client -> protocol -> groupcomm/db -> network -> simulator).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Operation, ReplicatedSystem
from repro.analysis import counter_check
from repro.workload import bank_transfer

STRONG = ["active", "passive", "semi_passive", "eager_primary",
          "eager_ue_abcast", "certification"]

workloads = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from(["x", "y", "z"]), st.integers(1, 9)),
    min_size=1,
    max_size=6,
)


def run_updates(protocol, updates, seed, clients=2):
    system = ReplicatedSystem(
        protocol, replicas=3, clients=clients, seed=seed,
        abcast="sequencer",
    )
    results = []

    def loop():
        for client_index, item, amount in updates:
            result = yield system.client(client_index).submit(
                [Operation.update(item, "add", amount)]
            )
            attempts = 0
            while not result.committed and attempts < 8:
                attempts += 1
                result = yield system.client(client_index).submit(
                    [Operation.update(item, "add", amount)]
                )
            results.append(result)
            yield system.sim.timeout(3.0)

    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    system.settle(500)
    return system, results


class TestStrongProtocolsExactUnderRandomWorkloads:
    @pytest.mark.parametrize("protocol", STRONG)
    @given(updates=workloads, seed=st.integers(0, 50))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_counter_exact_and_converged(self, protocol, updates, seed):
        system, results = run_updates(protocol, updates, seed)
        committed = [r for r in results if r.committed]
        assert len(committed) == len(updates)
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        violations = counter_check(committed, stores, strict=False)
        assert not violations, violations
        assert system.converged()


class TestLazyConvergenceUnderRandomWorkloads:
    @pytest.mark.parametrize("protocol", ["lazy_primary", "lazy_ue"])
    @given(updates=workloads, seed=st.integers(0, 50))
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_eventual_convergence(self, protocol, updates, seed):
        system, results = run_updates(protocol, updates, seed)
        assert all(r.committed for r in results)
        assert system.converged(), system.divergent_replicas()


class TestTransactionAtomicityProperty:
    @given(
        transfers=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]),
                      st.sampled_from(["a", "b", "c"]),
                      st.integers(1, 50)),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_transfers_conserve_total_balance(self, transfers, seed):
        """Multi-op transactions (Section 5): money is conserved under
        eager primary copy regardless of the transfer pattern."""
        system = ReplicatedSystem("eager_primary", replicas=3, seed=seed)
        for account in ("a", "b", "c"):
            system.execute([Operation.write(account, 100)])

        def loop():
            for source, target, amount in transfers:
                if source == target:
                    continue
                yield system.client(0).submit(bank_transfer(source, target, amount))
                yield system.sim.timeout(2.0)

        handle = system.sim.spawn(loop())
        system.sim.run_until_done(handle)
        system.settle(300)
        for name in system.replica_names:
            store = system.store_of(name)
            total = sum(store.read(account) for account in ("a", "b", "c"))
            assert total == 300, f"{name}: money created/destroyed ({total})"
        assert system.converged()


class TestScenarioHelpers:
    def test_scenarios_registry(self):
        from repro.workload import SCENARIOS
        for name, factory in SCENARIOS.items():
            spec = factory()
            assert spec.items >= 1, name

    def test_bank_transfer_shape(self):
        ops = bank_transfer("a", "b", 25)
        assert [op.item for op in ops] == ["a", "b"]
        assert [op.argument for op in ops] == [-25, 25]

    def test_hotspot_scenario_concentrates(self):
        from repro.workload import WorkloadGenerator, hotspot
        generator = WorkloadGenerator(hotspot(), seed=1)
        picks = [generator.pick_item() for _ in range(300)]
        hot = sum(1 for p in picks if p in ("item0", "item1"))
        assert hot > 150
