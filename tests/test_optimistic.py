"""Tests for optimistic atomic broadcast and its certification integration."""

import pytest
from helpers import GroupHarness

from repro import Operation, ReplicatedSystem
from repro.groupcomm import OptimisticAtomicBroadcast
from repro.net import ConstantLatency, UniformLatency


def attach(h, flavour="sequencer"):
    endpoints = {}
    tentative = {name: [] for name in h.names}
    final = {name: [] for name in h.names}
    for name in h.names:
        def opt(origin, mtype, body, n=name):
            tentative[n].append(body["tag"])
        def fin(origin, mtype, body, matched, n=name):
            final[n].append((body["tag"], matched))
        endpoints[name] = OptimisticAtomicBroadcast(
            h.nodes[name], h.transports[name], h.names, h.detectors[name],
            opt_deliver=opt, final_deliver=fin, flavour=flavour,
        )
    return endpoints, tentative, final


class TestOptimisticLayer:
    def test_tentative_precedes_final(self):
        h = GroupHarness(3)
        ab, tentative, final = attach(h)
        ab["n0"].abcast("op", tag="m1")
        h.run(until=200)
        for name in h.names:
            assert tentative[name] == ["m1"]
            assert final[name] == [("m1", True)]

    def test_final_order_identical_everywhere(self):
        h = GroupHarness(3, jitter=True, seed=13)
        ab, tentative, final = attach(h)
        for i in range(8):
            ab[h.names[i % 3]].abcast("op", tag=i)
        h.run(until=2000)
        orders = {name: [tag for tag, _m in final[name]] for name in h.names}
        reference = orders["n0"]
        assert len(reference) == 8
        for name in h.names:
            assert orders[name] == reference

    def test_perfect_match_rate_without_jitter(self):
        h = GroupHarness(3)
        ab, tentative, final = attach(h)
        for i in range(6):
            ab["n0"].abcast("op", tag=i)
        h.run(until=500)
        for name in h.names:
            assert ab[name].match_rate == 1.0

    def test_jitter_produces_some_mismatches_somewhere(self):
        mismatches = 0
        for seed in range(6):
            h = GroupHarness(4, jitter=True, seed=seed)
            ab, tentative, final = attach(h)
            for i in range(10):
                ab[h.names[i % 4]].abcast("op", tag=i)
            h.run(until=3000)
            mismatches += sum(ab[name].mismatches for name in h.names)
        assert mismatches > 0, "jitter should break spontaneous order sometimes"

    def test_matched_flag_consistent_with_tentative_position(self):
        h = GroupHarness(3, jitter=True, seed=3)
        ab, tentative, final = attach(h)
        for i in range(6):
            ab[h.names[i % 3]].abcast("op", tag=i)
        h.run(until=2000)
        for name in h.names:
            finals = [tag for tag, _m in final[name]]
            for position, (tag, matched) in enumerate(final[name]):
                if matched:
                    # a matched delivery had been seen tentatively by then
                    assert tag in tentative[name]

    def test_consensus_flavour_works(self):
        h = GroupHarness(3)
        ab, tentative, final = attach(h, flavour="consensus")
        ab["n1"].abcast("op", tag="x")
        h.run(until=1000)
        for name in h.names:
            assert [t for t, _m in final[name]] == ["x"]


class TestOptimisticCertification:
    def run_system(self, optimistic, processing_time=4.0, jitter=False, seed=9,
                   flavour="sequencer", client=1):
        # The submitting client's home (r1) is not the sequencer, so the
        # ordering protocol has real latency to hide the processing behind.
        system = ReplicatedSystem(
            "certification", replicas=3, clients=2, seed=seed,
            latency=UniformLatency(0.5, 2.5) if jitter else ConstantLatency(1.0),
            abcast=flavour, optimistic=optimistic, processing_time=processing_time,
        )
        results = []

        def loop():
            for i in range(8):
                results.append((yield system.client(client).submit(
                    [Operation.update(f"k{i}", "add", 1)]
                )))
                yield system.sim.timeout(25.0)

        handle = system.sim.spawn(loop())
        system.sim.run_until_done(handle)
        system.settle(300)
        return system, results

    def test_processing_time_adds_latency_classically(self):
        fast, fast_results = self.run_system(False, processing_time=0.0)
        slow, slow_results = self.run_system(False, processing_time=4.0)
        fast_mean = sum(r.latency for r in fast_results) / len(fast_results)
        slow_mean = sum(r.latency for r in slow_results) / len(slow_results)
        assert slow_mean == pytest.approx(fast_mean + 4.0)

    def test_optimism_hides_the_ordering_gap(self):
        # The hidden amount equals the latency between tentative and final
        # delivery at the delegate (2 hops via the sequencer here).
        classic, classic_results = self.run_system(False, processing_time=4.0)
        optimistic, optimistic_results = self.run_system(True, processing_time=4.0)
        classic_mean = sum(r.latency for r in classic_results) / 8
        optimistic_mean = sum(r.latency for r in optimistic_results) / 8
        assert optimistic_mean <= classic_mean - 1.5, (
            f"overhead not hidden: {optimistic_mean} vs {classic_mean}"
        )
        assert all(r.committed for r in optimistic_results)
        assert optimistic.converged()

    def test_slow_ordering_hides_processing_fully(self):
        # With consensus-based ordering the gap exceeds the processing
        # time, so the optimistic latency equals the zero-cost protocol's.
        baseline, base_results = self.run_system(
            True, processing_time=0.0, flavour="consensus")
        optimistic, opt_results = self.run_system(
            True, processing_time=3.0, flavour="consensus")
        base_mean = sum(r.latency for r in base_results) / 8
        optimistic_mean = sum(r.latency for r in opt_results) / 8
        assert optimistic_mean == pytest.approx(base_mean), (
            "processing fully hidden behind consensus ordering"
        )

    def test_optimistic_mode_preserves_correctness_under_jitter(self):
        system, results = self.run_system(True, processing_time=4.0,
                                          jitter=True, seed=21)
        assert all(r.committed for r in results)
        assert system.converged()
        counts = {
            (system.protocol_at(n).certifier.certified,
             system.protocol_at(n).certifier.rejected)
            for n in system.replica_names
        }
        assert len(counts) == 1, "sites must still agree exactly"

    def test_conflicting_transactions_still_resolved(self):
        system = ReplicatedSystem(
            "certification", replicas=3, clients=2, seed=5,
            abcast="sequencer", optimistic=True, processing_time=3.0,
        )
        f0 = system.client(0).submit([Operation.update("hot", "add", 1)])
        f1 = system.client(1).submit([Operation.update("hot", "add", 1)])
        r0, r1 = system.sim.run_until_done(system.sim.all_of([f0, f1]))
        system.settle(300)
        assert r0.committed != r1.committed
        assert all(system.store_of(n).read("hot") == 1
                   for n in system.live_replicas())
