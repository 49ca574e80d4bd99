"""Tests for reliable broadcast."""

from helpers import GroupHarness

from repro.groupcomm import ReliableBroadcast


def attach_rb(h, relay=True):
    layers = {}
    for name in h.names:
        layers[name] = ReliableBroadcast(
            h.nodes[name], h.transports[name], h.names, h.sink(name), relay=relay
        )
    return layers


class TestReliableBroadcast:
    def test_everyone_delivers_including_sender(self):
        h = GroupHarness(4)
        rb = attach_rb(h)
        rb["n0"].broadcast("evt", k=1)
        h.run(until=100)
        for name in h.names:
            assert h.delivered[name] == [("n0", "evt", {"k": 1})]

    def test_no_duplicate_delivery_despite_relay(self):
        h = GroupHarness(5)
        rb = attach_rb(h)
        for i in range(5):
            rb["n2"].broadcast("evt", i=i)
        h.run(until=200)
        for name in h.names:
            assert len(h.delivered[name]) == 5

    def test_agreement_when_sender_crashes_after_broadcast(self):
        # The sender crashes just after handing its broadcast to the
        # network, under loss.  Agreement: all surviving members must
        # uniformly deliver or uniformly not deliver.
        outcomes = set()
        for seed in range(8):
            h = GroupHarness(4, seed=seed, loss_rate=0.3, retry_interval=2.0)
            rb = attach_rb(h)
            rb["n0"].broadcast("evt")
            h.sim.schedule(0.1, h.nodes["n0"].crash)
            h.run(until=3000)
            got = {name: len(h.delivered[name]) for name in h.names if name != "n0"}
            assert len(set(got.values())) == 1, f"non-uniform delivery {got} (seed {seed})"
            outcomes.add(next(iter(got.values())))
        assert outcomes, "no experiment ran"

    def test_delivery_works_with_relay_disabled(self):
        h = GroupHarness(3)
        rb = attach_rb(h, relay=False)
        rb["n1"].broadcast("evt")
        h.run(until=50)
        for name in h.names:
            assert len(h.delivered[name]) == 1

    def test_relay_costs_more_messages(self):
        h1 = GroupHarness(5)
        attach_rb(h1, relay=True)["n0"].broadcast("evt")
        h1.run(until=100)
        with_relay = h1.net.stats.by_type["rt.data"]

        h2 = GroupHarness(5)
        attach_rb(h2, relay=False)["n0"].broadcast("evt")
        h2.run(until=100)
        without_relay = h2.net.stats.by_type["rt.data"]
        assert with_relay > without_relay
