"""Tests for two-phase commit."""

from collections import Counter

import pytest

from helpers import contended_run
from repro.core import RunSpec
from repro.db import TwoPhaseCoordinator, TwoPhaseParticipant
from repro.db.twophase import DECISION_TIMEOUT, PREPARE, STATUS
from repro.net import ConstantLatency, Network, Node
from repro.obs import Observer
from repro.sim import Process, Simulator


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


class TestTermination:
    """An in-doubt participant chases a lost DECISION with ``2pc.status``:
    first ``DECISION_TIMEOUT`` after its yes vote, then again each time
    an ask goes unanswered."""

    @staticmethod
    def status_asks(net):
        """``(time, src)`` of every ``2pc.status`` sent on ``net``."""
        asks = []
        send = net.send

        def recording(src, dst, type, *args, **kwargs):
            if type == STATUS:
                asks.append((net.sim.now, src))
            return send(src, dst, type, *args, **kwargs)

        net.send = recording
        return asks

    def test_a_decision_lost_to_a_partition_is_chased(self, rig):
        sim, net, coordinator, sites = rig
        asks = self.status_asks(net)
        outcome = coordinator.run("t1", list(sites))
        # Votes reach the coordinator at t = 2; the DECISION sent then to
        # p1 is dropped on arrival, and p1's first ask (t = 31) is lost
        # too.  The ask times out at 61; the next goes out at 91.
        sim.schedule(2.5, net.partition, ["coord", "p2", "p3"], ["p1"])
        sim.schedule(50.0, net.heal)
        sim.run(until=200)
        assert outcome.result is True
        assert asks == [(1.0 + DECISION_TIMEOUT, "p1"), (1.0 + 3 * DECISION_TIMEOUT, "p1")]
        assert sites["p1"].decisions == [("t1", True)]
        assert sites["p1"].participant.terminations == 1
        assert not sites["p1"].participant.in_doubt
        assert all(site.decisions == [("t1", True)] for site in sites.values())

    def test_decided_votes_are_not_chased(self, rig):
        sim, net, coordinator, sites = rig
        asks = self.status_asks(net)
        for t in range(5):
            sim.schedule(7.0 * t, coordinator.run, f"t{t}", list(sites))
        sim.run(until=300)
        assert asks == [] and net.stats.by_type[STATUS] == 0
        for site in sites.values():
            assert site.decisions == [(f"t{t}", True) for t in range(5)]

    def test_a_restarted_participant_does_not_chase(self, rig):
        """A crash ends the wait for the DECISION (as it interrupted the
        process that once slept through it): the transaction stays in
        doubt, and only votes given after the restart are chased."""
        sim, net, coordinator, sites = rig
        asks = self.status_asks(net)
        p1 = sites["p1"]
        coordinator.run("t1", list(sites))
        sim.schedule(2.5, net.partition, ["coord", "p2", "p3"], ["p1"])
        sim.schedule(5.0, p1.node.crash)
        sim.schedule(10.0, p1.node.recover)
        sim.schedule(10.0, net.heal)
        sim.run(until=100)
        assert asks == [] and p1.decisions == []
        assert "t1" in p1.participant.in_doubt
        # A later vote whose DECISION is lost is chased on time.
        sim.schedule(0.0, coordinator.run, "t2", list(sites))
        sim.schedule(2.5, net.partition, ["coord", "p2", "p3"], ["p1"])
        sim.schedule(20.0, net.heal)
        sim.run(until=200)
        assert asks == [(101.0 + DECISION_TIMEOUT, "p1")]
        assert p1.decisions == [("t2", True)]

    def test_the_chase_keeps_the_prepare_handlers_span(self):
        sim = Simulator(seed=1)
        observer = Observer(sim)
        net = Network(sim, latency=ConstantLatency(1.0), obs=observer)
        coordinator = TwoPhaseCoordinator(Node(sim, net, "coord"))
        site = Site(sim, net, "p1")
        tracer = observer.tracer
        root = tracer.start("txn", "request", "coord", trace_id="t1", use_context=False)
        with tracer.context(root):
            coordinator.run("t1", ["p1"])
        sim.schedule(2.5, net.partition, ["coord"], ["p1"])
        sim.schedule(10.0, net.heal)
        sim.run(until=100)
        assert site.decisions == [("t1", True)]
        (prepare,) = [s for s in tracer.spans if s.name == "handle:2pc.prepare"]
        (status,) = [s for s in tracer.spans if s.name == f"msg:{STATUS}"]
        assert status.parent_id == prepare.span_id and status.trace_id == "t1"


class TestNoProcessesOnTheParticipantPath:
    def test_fault_free_locking_run_spawns_no_grant_or_watch_process(self, monkeypatch):
        """Remote lock grants and in-doubt watches are steps and timers:
        a fault-free eager_ue_locking run constructs no process for
        either, and no watch fires while its transaction is in doubt."""
        made = Counter()
        init = Process.__init__

        def counting(process, sim, generator, name=""):
            made[generator.gi_code.co_name] += 1
            init(process, sim, generator, name)

        monkeypatch.setattr(Process, "__init__", counting)
        system, engine, summary = contended_run(
            RunSpec("eager_ue_locking", clients=4, seed=7), ops_per_transaction=1
        )
        stats = system.net.stats
        assert stats.by_type["ueld.lock"] > 500 and stats.by_type[PREPARE] > 200
        assert summary.committed > 0
        assert made["run_steps"] > 0
        assert made["_grant_lock"] == 0 and made["_terminate"] == 0
        assert stats.by_type[STATUS] == 0
