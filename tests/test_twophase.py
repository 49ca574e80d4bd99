"""Tests for two-phase commit."""

import pytest

from repro.db import TwoPhaseCoordinator, TwoPhaseParticipant
from repro.net import ConstantLatency, Network, Node
from repro.sim import Simulator


class Site:
    """A node with a 2PC participant and a scriptable vote."""

    def __init__(self, sim, net, name, vote=True):
        self.node = Node(sim, net, name)
        self.vote = vote
        self.decisions = []
        self.participant = TwoPhaseParticipant(
            self.node,
            on_prepare=lambda txn, coordinator: self.vote,
            on_decision=lambda txn, commit: self.decisions.append((txn, commit)),
        )


@pytest.fixture
def rig():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(1.0))
    coordinator_node = Node(sim, net, "coord")
    coordinator = TwoPhaseCoordinator(coordinator_node)
    sites = {name: Site(sim, net, name) for name in ("p1", "p2", "p3")}
    return sim, net, coordinator, sites


class TestDecisions:
    def test_unanimous_yes_commits(self, rig):
        sim, _, coordinator, sites = rig
        outcome = coordinator.run("t1", list(sites))
        sim.run(until=100)
        assert outcome.result is True
        for site in sites.values():
            assert site.decisions == [("t1", True)]

    def test_single_no_vote_aborts_everywhere(self, rig):
        sim, _, coordinator, sites = rig
        sites["p2"].vote = False
        outcome = coordinator.run("t1", list(sites))
        sim.run(until=100)
        assert outcome.result is False
        for site in sites.values():
            assert site.decisions == [("t1", False)]

    def test_coordinator_local_no_vote_skips_prepare(self, rig):
        sim, net, coordinator, sites = rig
        outcome = coordinator.run("t1", list(sites), local_vote=False)
        sim.run(until=100)
        assert outcome.result is False
        assert net.stats.by_type.get("2pc.prepare", 0) == 0

    def test_participant_crash_before_vote_aborts(self, rig):
        sim, _, coordinator, sites = rig
        sites["p3"].node.crash()
        outcome = coordinator.run("t1", list(sites))
        sim.run(until=200)
        assert outcome.result is False
        # survivors learn the abort
        assert sites["p1"].decisions == [("t1", False)]

    def test_no_participants_decides_locally(self, rig):
        sim, _, coordinator, _ = rig
        outcome = coordinator.run("t1", [])
        sim.run(until=10)
        assert outcome.result is True

    def test_stats_counted(self, rig):
        sim, _, coordinator, sites = rig
        coordinator.run("t1", list(sites))
        sim.run(until=100)
        sites["p1"].vote = False
        coordinator.run("t2", list(sites))
        sim.run(until=200)
        assert coordinator.rounds == 2
        assert coordinator.committed == 1
        assert coordinator.aborted == 1


class TestBlocking:
    def test_yes_voter_is_in_doubt_until_decision(self, rig):
        sim, net, coordinator, sites = rig
        outcome = coordinator.run("t1", list(sites))
        sim.run(until=1.5)  # prepare delivered, decision not yet
        assert "t1" in sites["p1"].participant.in_doubt
        sim.run(until=100)
        assert "t1" not in sites["p1"].participant.in_doubt
        assert outcome.result is True

    def test_coordinator_crash_leaves_participants_blocked(self, rig):
        sim, net, coordinator, sites = rig
        coordinator.run("t1", list(sites))
        # Crash the coordinator after prepare is sent but before it can
        # collect votes (votes take 2 time units round trip).
        sim.schedule(1.5, coordinator.node.crash)
        sim.run(until=500)
        for site in sites.values():
            assert "t1" in site.participant.in_doubt, "participant must block"
            assert site.participant.blocked_for("t1") > 400
            assert site.decisions == []

    def test_operator_resolves_in_doubt(self, rig):
        sim, net, coordinator, sites = rig
        coordinator.run("t1", list(sites))
        sim.schedule(1.5, coordinator.node.crash)
        sim.run(until=100)
        resolved = sites["p1"].participant.resolve_in_doubt(commit=False)
        assert resolved == ["t1"]
        assert sites["p1"].decisions == [("t1", False)]
