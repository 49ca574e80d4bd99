"""Tests for quorum-based eager update everywhere (Section 5.4.1's
"quorums are orthogonal" remark made concrete)."""

import pytest

from repro import Operation, ReplicatedSystem, RunSpec
from repro.analysis import counter_check
from repro.workload import WorkloadSpec, run_workload


def quorum_system(replicas=5, write_quorum=3, clients=1, seed=1, **kwargs):
    return ReplicatedSystem(
        "eager_ue_locking", replicas=replicas, clients=clients, seed=seed,
        write_quorum=write_quorum, **kwargs,
    )


class TestQuorumConfiguration:
    def test_minority_quorum_rejected(self):
        with pytest.raises(ValueError):
            quorum_system(replicas=5, write_quorum=2)

    def test_oversized_quorum_rejected(self):
        with pytest.raises(ValueError):
            quorum_system(replicas=3, write_quorum=4)

    def test_full_quorum_allowed(self):
        quorum_system(replicas=3, write_quorum=3)


class TestQuorumWrites:
    def test_write_touches_only_quorum_sites(self):
        system = quorum_system(replicas=5, write_quorum=3)
        result = system.execute([Operation.write("x", "v")])
        assert result.committed
        holding = [n for n in system.replica_names
                   if system.store_of(n).read("x") == "v"]
        assert len(holding) == 3, holding
        # Lock traffic went to exactly the quorum.
        assert system.net.stats.by_type["ueld.lock"] == 3

    def test_quorum_read_sees_latest_write(self):
        # Write through c0 (quorum starting at r0), then read through a
        # client whose home replica was NOT in the write quorum: the read
        # quorum (R = 5-3+1 = 3) must intersect the write quorum.
        system = quorum_system(replicas=5, write_quorum=3, clients=5)
        write = system.execute([Operation.write("x", "latest")], client=0)
        assert write.committed
        read = system.execute([Operation.read("x")], client=3)  # home r3
        assert read.committed
        assert read.value == "latest", "read quorum must overlap write quorum"

    def test_version_chain_across_disjoint_looking_quorums(self):
        # Two writes from different delegates hit different (overlapping)
        # quorums; the second must build on the first's version.
        system = quorum_system(replicas=5, write_quorum=3, clients=5)
        r1 = system.execute([Operation.update("x", "add", 10)], client=0)
        r2 = system.execute([Operation.update("x", "add", 5)], client=2)
        assert r1.committed and r2.committed
        read = system.execute([Operation.read("x")], client=4)
        assert read.value == 15, "second update must see the first through the quorum"

    def test_counter_oracle_under_quorum_contention(self):
        spec = WorkloadSpec(items=3, read_fraction=0.0)
        system, driver, summary = run_workload(
            RunSpec("eager_ue_locking", replicas=5, clients=3, seed=9,
                    write_quorum=3),
            spec,
            requests_per_client=6,
            retry_aborts=True,
            settle=400.0,
        )
        committed = [r for r in driver.results if r.committed]
        # The freshest copy (any read quorum's max version) must equal the
        # committed increment total even though no single store has to.
        from repro.analysis import expected_counters
        totals = expected_counters(committed)
        for item, expected in totals.items():
            freshest = max(
                (system.store_of(n).version(item), system.store_of(n).read(item) or 0)
                for n in system.replica_names
            )
            assert freshest[1] == expected, (item, freshest, expected)

    def test_phase_structure_unchanged_by_quorum(self):
        # Section 5.4.1: quorums do not change the phase sequence.
        from repro import AC, END, EX, RE, SC
        system = quorum_system(replicas=5, write_quorum=3)
        result = system.execute([Operation.write("x", 1)])
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, AC, END]

    def test_write_survives_minority_of_sites_down(self):
        system = quorum_system(replicas=5, write_quorum=3,
                               fd_interval=2.0, fd_timeout=6.0)
        system.replicas["r3"].node.crash()
        system.replicas["r4"].node.crash()
        system.sim.run(until=20.0)  # let detectors notice
        result = system.execute([Operation.update("x", "add", 1)])
        assert result.committed, "3 live sites still form a write quorum"

    def test_write_blocked_without_quorum(self):
        system = quorum_system(replicas=5, write_quorum=4,
                               fd_interval=2.0, fd_timeout=6.0,
                               client_timeout=None)
        for name in ("r2", "r3", "r4"):
            system.replicas[name].node.crash()
        system.sim.run(until=20.0)
        future = system.client(0).submit([Operation.write("x", 1)])
        result = system.sim.run_until_done(future)
        assert not result.committed
        assert "quorum" in result.reason
