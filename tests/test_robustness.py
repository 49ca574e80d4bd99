"""Extra robustness: consensus at scale, network invariants, DS multi-op."""

import pytest
from helpers import GroupHarness
from hypothesis import given, settings, strategies as st

from repro import Operation, ReplicatedSystem
from repro.analysis import counter_check
from repro.groupcomm import Consensus
from repro.net import ConstantLatency, Network, Node, UniformLatency
from repro.sim import Simulator


def attach_consensus(h):
    decisions = {name: {} for name in h.names}
    endpoints = {}
    for name in h.names:
        def on_decide(instance, value, n=name):
            decisions[n][instance] = value
        endpoints[name] = Consensus(
            h.nodes[name], h.transports[name], h.names, h.detectors[name], on_decide
        )
    return endpoints, decisions


class TestConsensusAtScale:
    def test_seven_nodes_two_crashes_many_instances(self):
        h = GroupHarness(7, fd_interval=2.0, fd_timeout=6.0, seed=3)
        cons, decisions = attach_consensus(h)
        for inst in range(5):
            for i, name in enumerate(h.names):
                cons[name].propose(inst, f"v{inst}-{i}")
        h.sim.schedule(0.5, h.nodes["n0"].crash)
        h.sim.schedule(5.0, h.nodes["n1"].crash)
        h.run(until=8000)
        survivors = h.names[2:]
        for inst in range(5):
            decided = {decisions[n].get(inst) for n in survivors}
            assert len(decided) == 1 and None not in decided, (inst, decided)

    def test_interleaved_proposals_under_jitter(self):
        h = GroupHarness(5, jitter=True, seed=8)
        cons, decisions = attach_consensus(h)
        # Stagger proposals so instances start while others are mid-round.
        for inst in range(4):
            for i, name in enumerate(h.names):
                h.sim.schedule(
                    inst * 2.0 + i * 0.7,
                    lambda c=cons[name], inst=inst, v=f"{inst}:{i}": c.propose(inst, v),
                )
        h.run(until=4000)
        for inst in range(4):
            decided = {decisions[n].get(inst) for n in h.names}
            assert len(decided) == 1 and None not in decided

    def test_validity_decided_value_was_proposed(self):
        h = GroupHarness(5, seed=1)
        cons, decisions = attach_consensus(h)
        proposed = set()
        for i, name in enumerate(h.names):
            value = f"value-{i}"
            proposed.add(value)
            cons[name].propose("v", value)
        h.run(until=1000)
        for name in h.names:
            assert decisions[name]["v"] in proposed


class TestNetworkProperties:
    @given(
        sends=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=25),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_fifo_per_link_under_random_traffic(self, sends, seed):
        sim = Simulator(seed=seed)
        net = Network(sim, latency=UniformLatency(0.1, 5.0))
        received = {"a": [], "b": []}
        nodes = {}
        for name in ("a", "b", "sink"):
            nodes[name] = Node(sim, net, name)
        nodes["sink"].on("m", lambda msg: received[msg.src].append(msg["seq"]))
        counters = {"a": 0, "b": 0}
        for sender in sends:
            nodes[sender].send("sink", "m", seq=counters[sender])
            counters[sender] += 1
        sim.run()
        for sender in ("a", "b"):
            assert received[sender] == sorted(received[sender])

    @given(seed=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_fault_plane_conservation(self, seed):
        """With drop/duplicate/jitter faults armed, the envelope ledger
        still balances: every envelope that enters the fabric leaves it
        exactly once, and fault duplicates are extra envelopes on the
        right-hand side."""
        sim = Simulator(seed=seed)
        net = Network(sim, latency=ConstantLatency(1.0))
        got = []
        a = Node(sim, net, "a")
        b = Node(sim, net, "b")
        b.on("m", lambda msg: got.append(msg["i"]))
        net.set_fault("b", "drop", 0.3)
        net.set_fault("a", "duplicate", 0.4)
        net.set_fault("b", "jitter", 3.0)
        for i in range(20):
            sim.schedule_at(float(i), lambda i=i: a.send("b", "m", i=i))
        sim.run()
        stats = net.stats
        assert stats.delivered == len(got)
        assert (
            stats.delivered + stats.dropped_loss + stats.dropped_partition
            + stats.dropped_crash + stats.dropped_fault
            == stats.sent + stats.duplicated
        )

    @given(seed=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_partition_heal_conservation(self, seed):
        """No message is duplicated; every message is delivered, dropped
        by partition, or lost to configured loss — the counters add up."""
        sim = Simulator(seed=seed)
        net = Network(sim, latency=ConstantLatency(1.0), loss_rate=0.2)
        got = []
        a = Node(sim, net, "a")
        b = Node(sim, net, "b")
        b.on("m", lambda msg: got.append(msg["i"]))
        for i in range(10):
            sim.schedule_at(float(i), lambda i=i: a.send("b", "m", i=i))
        sim.schedule_at(3.5, net.partition, ["a"], ["b"])
        sim.schedule_at(7.5, net.heal)
        sim.run()
        stats = net.stats
        assert stats.delivered == len(got)
        assert len(got) == len(set(got)), "duplicates"
        assert (
            stats.delivered + stats.dropped_loss + stats.dropped_partition
            == stats.sent
        )


class TestIdempotentFailover:
    def test_same_key_retried_across_primary_failover_no_double_apply(self):
        """Crash the primary mid-run: the resilient edge retries the SAME
        idempotency key against the promoted primary.  The duplicate-reply
        cache (replicated with the decision) must make the retry
        exactly-once — the counter ends exact, never double-applied."""
        from repro.resilience import retrying_client

        system = ReplicatedSystem(
            "eager_primary", replicas=3, clients=0, seed=0,
            fd_interval=2.0, fd_timeout=8.0,
        )
        edges = [
            retrying_client(system, index=i, request_timeout=30.0, deadline=400.0)
            for i in range(2)
        ]
        system.injector.crash_at(32.0, "r0")
        system.injector.recover_at(150.0, "r0")
        results = []

        def load(edge):
            for _ in range(4):
                results.append(
                    (yield edge.submit(Operation.update("x", "add", 1)))
                )
                yield system.sim.timeout(12.0)

        handles = [system.sim.spawn(load(edge)) for edge in edges]
        system.sim.run_until_done(system.sim.all_of(handles))
        system.settle(600)
        committed = [r for r in results if r.committed]
        assert len(committed) == 8, [r.reason for r in results]
        assert any(r.retries > 0 for r in results), (
            "the failover must actually force a same-key retry"
        )
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check(committed, stores, strict=False)
        assert system.converged(), system.divergent_replicas()


    @pytest.mark.parametrize("technique", [
        "active", "certification", "lazy_primary",
        "passive", "semi_active", "semi_passive", "eager_ue_abcast",
    ])
    def test_duplicate_is_answered_with_the_remembered_values(self, technique):
        """The cache keeps the values as a tuple, the first ones written;
        a duplicate of the request gets them back as the list a reply
        carries, and nothing is executed again."""
        from repro.core.operations import Request

        system = ReplicatedSystem(technique, replicas=3, seed=4)
        assert system.execute([Operation.write("x", 5)]).committed
        request = Request.make([Operation.read("x")], client="probe", sequence=1)
        probe = Node(system.sim, system.net, "probe")
        replies = []
        probe.on("client.response", replies.append)

        def ask_twice():
            for _ in range(2):
                probe.send("r0", "client.request", request=request)
                yield system.sim.timeout(50.0)

        system.sim.run_until_done(system.sim.spawn(ask_twice()))
        r0 = system.replica("r0")
        assert r0.cached_reply(request.request_id) == (5,)
        r0.remember_reply(request.request_id, [6])  # first write wins
        assert r0.cached_reply(request.request_id) == (5,)
        from_r0 = [reply for reply in replies if reply["server"] == "r0"]
        assert [reply["values"] for reply in from_r0] == [[5], [5]]
        assert all(reply["committed"] for reply in from_r0)
        phases = system.tracer.observed_sequence(request.request_id, source="r0")
        assert phases.count("EX") == 1 and phases.count("END") == 2


class TestDSMultiOperationRequests:
    """Multi-operation requests through the DS techniques: the whole
    request is one atomic state-machine command (all ops or none,
    identical everywhere)."""

    @pytest.mark.parametrize("protocol", ["active", "semi_active", "semi_passive"])
    def test_multi_op_atomic_everywhere(self, protocol):
        system = ReplicatedSystem(protocol, replicas=3, seed=5,
                                  abcast="sequencer")
        result = system.execute([
            Operation.update("a", "add", -10),
            Operation.update("b", "add", 10),
            Operation.read("a"),
        ])
        assert result.committed
        assert result.values[-1] == -10, "read inside the command sees the write"
        system.settle(300)
        for name in system.replica_names:
            assert system.store_of(name).read("a") == -10
            assert system.store_of(name).read("b") == 10
        assert system.converged()

    def test_passive_multi_op_with_nondeterminism(self):
        system = ReplicatedSystem("passive", replicas=3, seed=6)
        result = system.execute([
            Operation.update("token", "random_token"),
            Operation.update("count", "add", 1),
        ])
        assert result.committed
        system.settle(200)
        tokens = {system.store_of(n).read("token") for n in system.replica_names}
        counts = {system.store_of(n).read("count") for n in system.replica_names}
        assert len(tokens) == 1 and counts == {1}
