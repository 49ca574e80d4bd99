"""Tests for Chandra-Toueg consensus and the deferred-value variant."""

import pytest
from helpers import GroupHarness

from repro.groupcomm import Consensus, DeferredConsensus


def attach(h, cls=Consensus):
    decisions = {name: {} for name in h.names}
    endpoints = {}
    for name in h.names:
        def on_decide(instance, value, n=name):
            decisions[n][instance] = value
        endpoints[name] = cls(
            h.nodes[name], h.transports[name], h.names, h.detectors[name], on_decide
        )
    return endpoints, decisions


class TestConsensusBasics:
    def test_agreement_and_validity(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for i, name in enumerate(h.names):
            cons[name].propose("inst", f"value-{i}")
        h.run(until=500)
        decided = {decisions[name].get("inst") for name in h.names}
        assert len(decided) == 1, f"disagreement: {decided}"
        value = decided.pop()
        assert value in {"value-0", "value-1", "value-2"}

    def test_single_proposer_value_wins(self):
        # Validity: the decided value was proposed by someone; with one
        # distinct value in play it must be that value.
        h = GroupHarness(5)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose(0, "only")
        h.run(until=500)
        assert all(decisions[name][0] == "only" for name in h.names)

    def test_multiple_instances_independent(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for inst in range(4):
            for i, name in enumerate(h.names):
                cons[name].propose(inst, (inst, i))
        h.run(until=2000)
        for inst in range(4):
            decided = {decisions[name][inst] for name in h.names}
            assert len(decided) == 1
            assert decided.pop()[0] == inst

    def test_propose_twice_keeps_first(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        cons["n0"].propose("x", "first")
        cons["n0"].propose("x", "second")
        for name in h.names[1:]:
            cons[name].propose("x", "first")
        h.run(until=500)
        assert all(decisions[name]["x"] == "first" for name in h.names)

    def test_decision_of_accessor(self):
        # on_decide is how a proposer reads the decided value; the
        # instance itself keeps nothing once decided.
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for name in h.names:
            assert cons[name].propose("i", 42) is None
        assert decisions["n0"] == {}
        h.run(until=500)
        assert decisions["n0"] == {"i": 42}
        assert cons["n0"]._instances == {}


class TestRoundZeroFastPath:
    def test_round_zero_sends_no_estimates(self, monkeypatch):
        # Round 0 has no phase 1: the coordinator proposes its own value at
        # once, so a fault-free instance is decided one step sooner.
        h = GroupHarness(3)
        frames = []
        send = h.net.send
        def recording_send(src, dst, type, payload=None, **kwargs):
            if type == "rt.data":
                frames.append((payload["inner_type"], payload["body"].get("round")))
            return send(src, dst, type, payload=payload, **kwargs)
        monkeypatch.setattr(h.net, "send", recording_send)
        decided_at = {}
        for name in h.names:
            def on_decide(instance, value, n=name):
                decided_at[n] = (h.sim.now, value)
            Consensus(
                h.nodes[name], h.transports[name], h.names, h.detectors[name], on_decide
            ).propose("i", f"value-{name}")
        h.run(until=100)
        assert decided_at == {
            "n0": (2.0, "value-n0"), "n1": (3.0, "value-n0"), "n2": (3.0, "value-n0"),
        }
        assert ("ct.propose", 0) in frames
        assert ("ct.estimate", 0) not in frames


ROUND_FRAMES = ("ct.estimate", "ct.propose", "ct.reply")


def consensus_frames(h):
    """Record ``(src, inner type, body)`` of every round frame sent."""
    frames = []
    send = h.net.send

    def recording(src, dst, type, payload=None, **kwargs):
        if type == "rt.data" and payload["inner_type"] in ROUND_FRAMES:
            frames.append((src, payload["inner_type"], payload["body"]))
        return send(src, dst, type, payload=payload, **kwargs)

    h.net.send = recording
    return frames


class TestNoRoundAfterAnAck:
    """A process that acked a round waits for the decision, a suspicion of
    the round's coordinator or a message of a later round."""

    @pytest.mark.parametrize("members", [3, 5])
    def test_fault_free_instances_decide_in_round_zero_without_estimates(self, members):
        h = GroupHarness(members)
        frames = consensus_frames(h)
        decisions = {name: {} for name in h.names}
        for name in h.names:
            def on_decide(instance, value, n=name):
                decisions[n][instance] = value
            cons = Consensus(h.nodes[name], h.transports[name], h.names,
                             h.detectors[name], on_decide, trace=h.trace)
            for instance in range(10):
                cons.propose(instance, f"{name}:{instance}")
        h.run(until=500)
        for name in h.names:
            assert decisions[name] == {i: f"n0:{i}" for i in range(10)}
        rounds = [(e.source, e.data["round"]) for e in h.trace if e.category == "consensus"]
        assert sorted(rounds) == sorted((name, 0) for name in h.names for _ in range(10))
        assert [kind for _src, kind, _body in frames if kind == "ct.estimate"] == []
        # Round 0's proposal to each peer and each peer's reply: nothing more.
        assert len(frames) == 10 * 2 * (members - 1)

    @pytest.mark.parametrize("members", [3, 5])
    def test_a_nack_in_round_zero_wakes_the_ackers(self, members):
        # n1 suspects n0 wrongly from the start, so it nacks round 0 before
        # n0's proposal reaches it, and its nack is in n0's majority of
        # replies.  Every other member acked and waits.  Round 1 needs a
        # majority of estimates; n0's own estimate to each member is
        # what moves the ackers on (at n = 5, n0 and n1 are not a majority).
        h = GroupHarness(members)
        h.detectors["n1"].suspected.add("n0")
        frames = consensus_frames(h)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose("i", f"value-{name}")
        h.run(until=500)
        replies = {(src, body["ack"]) for src, kind, body in frames
                   if kind == "ct.reply" and body["round"] == 0}
        assert replies == {("n1", False)} | {(name, True) for name in h.names[2:]}
        assert {name: decisions[name].get("i") for name in h.names} == {
            name: "value-n0" for name in h.names
        }
        assert h.detectors["n1"].wrong_suspicions == 1


class TestConsensusUnderFailures:
    def test_decides_despite_coordinator_crash(self):
        # Round-0 coordinator is n0 (group order); crash it immediately.
        h = GroupHarness(5, fd_interval=2.0, fd_timeout=6.0)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose("i", name)
        h.sim.schedule(0.5, h.nodes["n0"].crash)
        h.run(until=3000)
        survivors = [n for n in h.names if n != "n0"]
        decided = {decisions[name].get("i") for name in survivors}
        assert len(decided) == 1 and None not in decided

    def test_decides_with_minority_crashes(self):
        h = GroupHarness(5, fd_interval=2.0, fd_timeout=6.0)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose("i", name)
        h.sim.schedule(0.5, h.nodes["n0"].crash)
        h.sim.schedule(1.5, h.nodes["n1"].crash)
        h.run(until=5000)
        survivors = h.names[2:]
        decided = {decisions[name].get("i") for name in survivors}
        assert len(decided) == 1 and None not in decided

    def test_safe_under_aggressive_wrong_suspicions(self):
        # Tiny FD timeout with jittery latency: live coordinators get
        # suspected, extra rounds run, but agreement must never break.
        for seed in range(5):
            h = GroupHarness(3, seed=seed, jitter=True, fd_interval=1.0, fd_timeout=1.2)
            cons, decisions = attach(h)
            for name in h.names:
                cons[name].propose("i", name)
            h.run(until=4000)
            decided = {decisions[name].get("i") for name in h.names}
            decided.discard(None)
            assert len(decided) <= 1, f"seed {seed}: disagreement {decided}"
            assert decided, f"seed {seed}: nothing decided"

    def test_value_adopted_in_round_zero_outranks_initial_values(self):
        # n0 proposes "x" in round 0, n1 adopts it and n0 decides it at 2;
        # the partition at 2.5 keeps the decision from n1, which would
        # have had it at 3.  n2 missed round 0, so round 1's
        # coordinator n1 holds its own adopted "x" and n2's initial "y",
        # and must keep "x": an adopted value has to outrank every value
        # never adopted, or the tie goes to the larger name, n2's.
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for name, value in (("n0", "x"), ("n1", "x"), ("n2", "y")):
            cons[name].propose("i", value)
        h.net.partition(["n0", "n1"], ["n2"])
        h.sim.schedule_at(2.5, h.net.partition, ["n0"], ["n1", "n2"])
        h.sim.schedule_at(60.0, h.net.heal)
        h.run(until=500)
        assert {name: decisions[name].get("i") for name in h.names} == {
            "n0": "x", "n1": "x", "n2": "x",
        }

    def test_coordinator_back_before_suspected_resumes_its_round(self):
        # n0 is down from the start, so n1 and n2 suspect it at 10 and move
        # to round 1.  Its coordinator n1 crashes before n2's estimate
        # arrives at 11, and is back before anyone suspects it, so n2 waits
        # for its proposal.  The crash stopped n1's rounds: the recovered
        # process must run that round again or the instance never ends.
        # (Round 0 cannot show this: its coordinator proposes in its first
        # step, so no crash stops it before the proposal is out.)
        h = GroupHarness(3, fd_interval=2.0, fd_timeout=8.0, retry_interval=2.0)
        cons, decisions = attach(h)
        h.nodes["n0"].crash()
        for name in ("n1", "n2"):
            cons[name].propose("i", name)
        h.sim.schedule_at(10.5, h.nodes["n1"].crash)
        h.sim.schedule_at(11.5, h.nodes["n1"].recover)
        h.run(until=500)
        decided = {decisions[name].get("i") for name in ("n1", "n2")}
        assert len(decided) == 1 and None not in decided, decided
        assert sum(h.detectors[n].wrong_suspicions for n in h.names) == 0

    def test_late_proposer_still_learns_decision(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        cons["n0"].propose("i", "early")
        cons["n1"].propose("i", "early")
        h.run(until=300)
        # n2 never proposed but must have learned via the decide broadcast.
        assert decisions["n2"].get("i") == "early"


class TestRoundsAreSteps:
    def test_rounds_spawn_no_process(self):
        # Messages, suspicions and the recover hook drive the rounds; no
        # instance runs as a simulated process, before, across or after a
        # crash and recovery of round 0's coordinator.
        h = GroupHarness(3, fd_interval=2.0, fd_timeout=6.0, retry_interval=2.0)
        cons, decisions = attach(h)

        def propose(instances):
            for instance in instances:
                for name in h.alive():
                    cons[name].propose(instance, f"{name}:{instance}")

        processes = []

        def look():
            for node in h.nodes.values():
                processes.extend(p.name for p in node._processes)

        propose(range(3))
        h.sim.schedule_at(0.5, h.nodes["n0"].crash)
        h.sim.schedule_at(20.0, h.nodes["n0"].recover)
        h.sim.schedule_at(30.0, propose, range(3, 6))
        for at in (0.25, 1.0, 3.0, 10.0, 21.0, 23.0, 31.0, 33.0):
            h.sim.schedule_at(at, look)
        h.run(until=500)
        look()
        for name in h.names:
            assert sorted(decisions[name]) == list(range(6)), (name, decisions[name])
        for instance in range(6):
            assert len({decisions[name][instance] for name in h.names}) == 1
        assert processes == []


class TestSuspicionListeners:
    def test_detector_listeners_bounded_by_live_rounds(self):
        # Every round watches its coordinator through the failure
        # detector; the listener must go when the round's wait for its
        # proposal ends, or the detector's list grows with every round run.
        # Jittery links and a tight timeout add wrong suspicions, so some
        # instances take several rounds.
        h = GroupHarness(3, seed=3, jitter=True, fd_interval=1.0, fd_timeout=1.5)
        cons, decisions = attach(h)
        registered = {n: len(h.detectors[n]._suspect_listeners) for n in h.names}
        proposed = 0
        for _wave in range(20):
            for _ in range(10):
                for name in h.names:
                    cons[name].propose(proposed, f"{name}:{proposed}")
                proposed += 1
            h.run(until=h.sim.now + 40)
            for name in h.names:
                live = proposed - len(decisions[name])
                extra = len(h.detectors[name]._suspect_listeners) - registered[name]
                assert 0 <= extra <= live, (
                    f"{name}: {extra} round listeners for {live} live instances"
                )
        h.run(until=h.sim.now + 2000)
        for name in h.names:
            assert len(decisions[name]) == 200
            assert len(h.detectors[name]._suspect_listeners) == registered[name]

    def test_a_coordinator_does_not_watch_itself(self):
        """A coordinator waits for its own proposal without a detector
        listener: it never suspects itself, so one could never fire.  The
        other members still watch it."""
        h = GroupHarness(3)
        watches = {name: 0 for name in h.names}
        for name in h.names:
            detector = h.detectors[name]

            def counting(listener, real=detector.on_suspect, n=name):
                watches[n] += 1
                real(listener)

            detector.on_suspect = counting
        cons, decisions = attach(h)
        for instance in range(10):
            for name in h.names:
                cons[name].propose(instance, f"{name}:{instance}")
        h.run(until=500)
        assert all(len(decisions[name]) == 10 for name in h.names)
        assert watches["n0"] == 0
        assert watches["n1"] > 0 and watches["n2"] > 0


class TestDecidedInstancesForgotten:
    def test_only_undecided_instances_are_kept(self):
        # The TestSuspicionListeners run: 200 instances, wrong suspicions
        # and extra rounds.  A decided instance leaves nothing behind.
        h = GroupHarness(3, seed=3, jitter=True, fd_interval=1.0, fd_timeout=1.5)
        cons, decisions = attach(h)
        proposed = 0
        for _wave in range(20):
            for _ in range(10):
                for name in h.names:
                    cons[name].propose(proposed, f"{name}:{proposed}")
                proposed += 1
            h.run(until=h.sim.now + 40)
            for name in h.names:
                live = proposed - len(decisions[name])
                kept = len(cons[name]._instances)
                assert kept <= live, f"{name}: {kept} instances kept for {live} live"
        h.run(until=h.sim.now + 2000)
        assert sum(h.detectors[n].wrong_suspicions for n in h.names) > 0
        for name in h.names:
            assert len(decisions[name]) == 200
            assert cons[name]._instances == {}

    def test_late_traffic_for_a_decided_instance_opens_nothing(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose("i", name)
        h.run(until=500)
        decided = dict(decisions["n0"])
        assert "i" in decided and cons["n0"]._instances == {}
        # A straggler of a later round, as a wrongly suspecting peer sends.
        h.transports["n1"].send("n0", "ct.estimate", instance="i", round=4, ts=0, value="late")
        h.transports["n1"].send("n0", "ct.propose", instance="i", round=4, value="late")
        h.transports["n1"].send("n0", "ct.reply", instance="i", round=4, ack=True)
        h.run(until=600)
        assert cons["n0"]._instances == {}
        assert decisions["n0"] == decided

    def test_propose_after_decision_opens_nothing(self):
        h = GroupHarness(3)
        cons, decisions = attach(h)
        for name in h.names:
            cons[name].propose("i", name)
        h.run(until=500)
        decided = dict(decisions["n0"])

        def frames():
            return {t: n for t, n in h.net.stats.by_type.items() if t != "fd.heartbeat"}

        before = frames()
        cons["n0"].propose("i", "again")
        assert cons["n0"]._instances == {}
        h.run(until=600)
        assert decisions["n0"] == decided
        assert frames() == before


class TestDeferredConsensus:
    def test_only_coordinator_computes_in_failure_free_run(self):
        h = GroupHarness(3)
        cons, decisions = attach(h, cls=DeferredConsensus)
        computed = []
        for name in h.names:
            cons[name].propose_deferred(
                "i", lambda n=name: (computed.append(n), f"update-by-{n}")[1]
            )
        h.run(until=500)
        decided = {decisions[name]["i"] for name in h.names}
        assert len(decided) == 1
        assert computed == ["n0"], f"only round-0 coordinator should execute: {computed}"
        assert decided.pop() == "update-by-n0"

    def test_next_coordinator_computes_after_crash(self):
        # n0 is cut off from t = 0, so its round-0 proposal never leaves
        # before it crashes; the next coordinator has to execute.
        h = GroupHarness(3, fd_interval=2.0, fd_timeout=6.0)
        cons, decisions = attach(h, cls=DeferredConsensus)
        computed = []
        for name in h.names:
            cons[name].propose_deferred(
                "i", lambda n=name: (computed.append(n), f"update-by-{n}")[1]
            )
        h.net.partition(["n0"], ["n1", "n2"])
        h.sim.schedule(0.2, h.nodes["n0"].crash)
        h.run(until=3000)
        survivors = ["n1", "n2"]
        decided = {decisions[name].get("i") for name in survivors}
        assert len(decided) == 1
        value = decided.pop()
        assert value is not None
        # Some later coordinator executed; possibly n0 also did before dying.
        assert any(n in computed for n in survivors)
        assert value in {f"update-by-{n}" for n in computed}

    def test_escaped_round_zero_proposal_is_not_executed_again(self):
        # n0 executes and proposes at t = 0, then crashes at 0.2 with its
        # proposal on the wire.  n1 and n2 adopt it in round 0, so round 1's
        # coordinator proposes the adopted update instead of executing.
        h = GroupHarness(3, fd_interval=2.0, fd_timeout=6.0)
        cons, decisions = attach(h, cls=DeferredConsensus)
        computed = []
        for name in h.names:
            cons[name].propose_deferred(
                "i", lambda n=name: (computed.append(n), f"update-by-{n}")[1]
            )
        h.sim.schedule(0.2, h.nodes["n0"].crash)
        h.run(until=3000)
        assert {n: decisions[n].get("i") for n in ("n1", "n2")} == {
            "n1": "update-by-n0", "n2": "update-by-n0",
        }
        assert computed == ["n0"]

    def test_duplicated_unset_estimate_is_still_unset(self):
        # A duplicated packet is a deep copy of the original; an estimate
        # that carries "not computed yet" must still read as unset when the
        # copy overtakes the original on a jittered link, or a coordinator
        # decides on the placeholder instead of computing a value.
        h = GroupHarness(3, seed=0)
        for name in h.names:
            h.net.set_fault(name, "duplicate", 0.5)
            h.net.set_fault(name, "jitter", 3.0)
        cons, decisions = attach(h, cls=DeferredConsensus)
        for instance in range(20):
            for name in h.names:
                cons[name].propose_deferred(
                    instance, lambda n=name, i=instance: f"update-{i}-by-{n}"
                )
        h.run(until=3000)
        for name in h.names:
            assert len(decisions[name]) == 20
            assert all(isinstance(value, str) for value in decisions[name].values())

    def test_thunks_are_dropped_on_decision(self):
        h = GroupHarness(3)
        cons, decisions = attach(h, cls=DeferredConsensus)
        for instance in range(10):
            for name in h.names:
                cons[name].propose_deferred(
                    instance, lambda n=name, i=instance: f"update-{i}-by-{n}"
                )
        h.run(until=1000)
        for name in h.names:
            assert len(decisions[name]) == 10
            assert cons[name]._compute == {} and cons[name]._computed == {}
            assert cons[name]._instances == {}
        # Failure-free: the round-0 coordinator executes every instance.
        assert {n: cons[n].executions for n in h.names} == {"n0": 10, "n1": 0, "n2": 0}
        # A late proposal for a decided instance registers no thunk.
        cons["n1"].propose_deferred(0, lambda: "never")
        assert cons["n1"]._compute == {}
