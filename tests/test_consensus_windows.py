"""Crash-window sweep around the round-0 coordinator of one consensus instance.

The round-0 coordinator n0 proposes its own value at t = 0 without
collecting estimates; the proposal reaches n1 and n2 at 1, their acks
reach n0 at 2, and the decision's reliable broadcast is relayed on from
3.  Crashing n0 at every quarter step up to 3.75 lands before, during and
after each of those steps.  Each offset runs twice: with the crash alone,
so what n0 sent before it still arrives, and with n0 cut off from
{n1, n2} at the same instant, which drops what is still on the wire.  In
the second run n0 recovers at 30, still cut off; when the partition heals
at 60 its retransmitted round-0 frames reach peers that have long moved
on.  In every window the processes that decide agree, the value is one
some process proposed or computed, and every live process decides.

A second sweep crashes a member that is not round 0's coordinator at
the same offsets, around its round-0 reply, and recovers it three units
later.  With n0 cut off at the crash instant, n1 and n2 alone make a
majority, so the recovered member's rounds must restart and finish in
the round they stopped in.  A restarted round sends nothing it already
sent: no process counts two estimates or two replies from one member in
one round.
"""

from collections import Counter

import pytest
from helpers import GroupHarness

from repro.groupcomm import Consensus, DeferredConsensus

OFFSETS = [step / 4 for step in range(16)]


def run_window(cls, offset, partition):
    h = GroupHarness(3, fd_interval=2.0, fd_timeout=6.0, retry_interval=2.0)
    decisions = {}
    computed = []
    for name in h.names:
        def on_decide(instance, value, n=name):
            decisions[n] = value
        endpoint = cls(
            h.nodes[name], h.transports[name], h.names, h.detectors[name], on_decide
        )
        if cls is DeferredConsensus:
            endpoint.propose_deferred(
                "i", lambda n=name: (computed.append(n), f"update-by-{n}")[1]
            )
        else:
            endpoint.propose("i", f"value-{name}")
    if partition:
        h.sim.schedule_at(offset, h.net.partition, ["n0"], ["n1", "n2"])
        h.sim.schedule_at(30.0, h.nodes["n0"].recover)
        h.sim.schedule_at(60.0, h.net.heal)
    h.sim.schedule_at(offset, h.nodes["n0"].crash)
    h.run(until=300)
    if cls is DeferredConsensus:
        valid = {f"update-by-{n}" for n in computed}
    else:
        valid = {f"value-{n}" for n in h.names}
    return h, decisions, computed, valid


@pytest.mark.parametrize("partition", [False, True], ids=["crash", "crash+partition"])
@pytest.mark.parametrize("cls", [Consensus, DeferredConsensus])
def test_round_zero_coordinator_crash_windows(cls, partition):
    for offset in OFFSETS:
        h, decisions, computed, valid = run_window(cls, offset, partition)
        label = f"{cls.__name__} crash at {offset}"
        assert len(set(decisions.values())) == 1, (label, decisions)
        assert set(decisions.values()) <= valid, (label, decisions, valid)
        assert set(h.alive()) <= set(decisions), (label, decisions)
        assert len(computed) == len(set(computed)), (label, computed)


def run_member_window(cls, member, offset, partition):
    h = GroupHarness(3, fd_interval=2.0, fd_timeout=6.0, retry_interval=2.0)
    decisions = {}
    counted = Counter()
    for name in h.names:
        def on_decide(instance, value, n=name):
            decisions[n] = value
        endpoint = cls(
            h.nodes[name], h.transports[name], h.names, h.detectors[name], on_decide
        )
        # Count what each process's endpoint is handed, after the
        # transport has dropped duplicate frames.
        upcalls = h.transports[name]._upcalls
        for kind in ("ct.estimate", "ct.reply"):
            def counting(src, payload, inner=upcalls[kind], kind=kind, name=name):
                counted[(name, kind, src, payload["round"])] += 1
                inner(src, payload)
            upcalls[kind] = counting
        if cls is DeferredConsensus:
            endpoint.propose_deferred("i", lambda n=name: f"update-by-{n}")
        else:
            endpoint.propose("i", f"value-{name}")
    if partition:
        h.sim.schedule_at(offset, h.net.partition, ["n0"], ["n1", "n2"])
        h.sim.schedule_at(60.0, h.net.heal)
    h.sim.schedule_at(offset, h.nodes[member].crash)
    h.sim.schedule_at(offset + 3.0, h.nodes[member].recover)
    h.run(until=300)
    return decisions, counted


@pytest.mark.parametrize("partition", [False, True], ids=["crash", "crash+partition"])
@pytest.mark.parametrize("member", ["n1", "n2"])
@pytest.mark.parametrize("cls", [Consensus, DeferredConsensus])
def test_member_crash_windows(cls, member, partition):
    prefix = "update-by-" if cls is DeferredConsensus else "value-"
    for offset in OFFSETS:
        decisions, counted = run_member_window(cls, member, offset, partition)
        label = f"{cls.__name__} {member} down {offset}..{offset + 3.0}"
        assert set(decisions) == {"n0", "n1", "n2"}, (label, decisions)
        assert len(set(decisions.values())) == 1, (label, decisions)
        assert decisions[member].startswith(prefix), (label, decisions)
        twice = {key: n for key, n in counted.items() if n > 1}
        assert not twice, (label, twice)
