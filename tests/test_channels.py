"""Unit tests for reliable point-to-point channels."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import GroupHarness

from repro.core.system import ReplicatedSystem
from repro.net import ConstantLatency
from repro.workload import ArrivalSpec, OpenLoopEngine, WorkloadGenerator, WorkloadSpec


def received(harness, name):
    return harness.delivered[name]


def wire(harness, inner_type="app"):
    for name in harness.names:
        harness.transports[name].on(inner_type, lambda src, p, n=name: harness.delivered[n].append((src, p)))


class TestReliableTransport:
    def test_basic_delivery(self):
        h = GroupHarness(2)
        wire(h)
        h.transports["n0"].send("n1", "app", text="hello")
        h.run(until=50)
        assert received(h, "n1") == [("n0", {"text": "hello"})]

    def test_self_send_delivers_locally(self):
        h = GroupHarness(1)
        wire(h)
        h.transports["n0"].send("n0", "app", x=1)
        h.run(until=10)
        assert received(h, "n0") == [("n0", {"x": 1})]

    def test_exactly_once_under_heavy_loss(self):
        h = GroupHarness(2, seed=5, loss_rate=0.4)
        wire(h)
        for i in range(30):
            h.transports["n0"].send("n1", "app", seq=i)
        h.run(until=2000)
        seqs = [p["seq"] for _, p in received(h, "n1")]
        assert seqs == list(range(30)), "loss must be masked, order preserved, no dupes"

    def test_fifo_across_interleaved_sends(self):
        h = GroupHarness(3, jitter=True, seed=9)
        wire(h)
        for i in range(10):
            h.transports["n0"].send("n2", "app", tag=("a", i))
            h.transports["n1"].send("n2", "app", tag=("b", i))
        h.run(until=500)
        tags = [p["tag"] for _, p in received(h, "n2")]
        a_tags = [t for t in tags if t[0] == "a"]
        b_tags = [t for t in tags if t[0] == "b"]
        assert a_tags == [("a", i) for i in range(10)]
        assert b_tags == [("b", i) for i in range(10)]

    def test_send_to_group_reaches_everyone(self):
        h = GroupHarness(4)
        wire(h)
        h.transports["n0"].send_to_group(h.names, "app", v=7)
        h.run(until=50)
        for name in h.names:
            assert received(h, name) == [("n0", {"v": 7})]

    def test_retransmission_stops_after_ack(self):
        h = GroupHarness(2, retry_interval=3.0)
        wire(h)
        h.transports["n0"].send("n1", "app", x=1)
        h.run(until=500)
        # One data frame (no losses) and no endless retransmission storm:
        # each retransmit would be another rt.data send.
        data_frames = h.net.stats.by_type["rt.data"]
        assert data_frames <= 3

    def test_buffering_before_upcall_registration(self):
        h = GroupHarness(2)
        h.transports["n0"].send("n1", "late", x=1)
        h.run(until=20)
        got = []
        h.transports["n1"].on("late", lambda src, p: got.append((src, p)))
        h.run(until=30)
        assert got == [("n0", {"x": 1})]

    def test_crashed_receiver_never_delivers(self):
        h = GroupHarness(2, retry_interval=2.0)
        wire(h)
        h.nodes["n1"].crash()
        h.transports["n0"].send("n1", "app", x=1)
        h.run(until=100)
        assert received(h, "n1") == []


def send_numbered(harness, count, start=0, src="n0", dst="n1"):
    for i in range(start, start + count):
        harness.transports[src].send(dst, "app", n=i)


def numbers(harness, name="n1"):
    return [payload["n"] for _, payload in received(harness, name)]


def pending_retry_timers(harness, name="n0"):
    """Live retry timers of ``name``'s transport, by destination."""
    transport = harness.transports[name]
    return [
        timer._args[1][0] for timer in harness.nodes[name]._timers
        if not timer.cancelled and timer._args[0] == transport._on_retry
    ]


def count_resend_passes(transport):
    """Wrap ``resend_unacked`` on one instance; returns the call log."""
    passes = []
    original = transport.resend_unacked

    def counted(dst, **cutoff):
        passes.append((transport.node.sim.now, dst))
        original(dst, **cutoff)

    transport.resend_unacked = counted
    return passes


class TestPerPeerRetransmission:
    """One window, one timer and one probe per peer (docs/internals.md)."""

    def test_silent_peer_costs_one_probe_per_interval(self):
        frames, outage, interval = 40, 200.0, 5.0
        h = GroupHarness(2, retry_interval=interval)
        wire(h)
        h.nodes["n1"].crash()
        send_numbered(h, frames)
        for tick in range(int(outage)):
            h.run(until=tick + 0.5)
            assert len(pending_retry_timers(h)) <= 1, f"t={tick + 0.5}"
        h.run(until=outage)
        budget = frames + math.ceil(outage / interval) + 1
        assert h.net.stats.by_type["rt.data"] <= budget
        sender = h.transports["n0"]
        assert sender.transmits == h.net.stats.by_type["rt.data"]
        assert sender.retransmits == sender.transmits - frames
        assert received(h, "n1") == []

    def test_timer_retires_with_the_window_and_returns_with_a_send(self):
        h = GroupHarness(2, retry_interval=3.0)
        wire(h)
        h.transports["n0"].send("n1", "app", n=0)
        assert pending_retry_timers(h) == ["n1"]
        h.run(until=10)
        assert pending_retry_timers(h) == [], "an empty window keeps no timer"
        h.transports["n0"].send("n1", "app", n=1)
        assert pending_retry_timers(h) == ["n1"]
        h.run(until=20)
        assert numbers(h) == [0, 1]
        assert h.transports["n0"].retransmits == 0

    def test_probe_ack_resends_the_backlog_in_exactly_one_pass(self):
        frames = 25
        h = GroupHarness(2, retry_interval=5.0)
        wire(h)
        passes = count_resend_passes(h.transports["n0"])
        h.net.partition(["n0"], ["n1"])
        send_numbered(h, frames)
        h.sim.schedule_at(12.0, h.net.heal)
        h.run(until=14.9)
        assert passes == [] and numbers(h) == []
        # Probes at 5 and 10 are lost; the one at 15 arrives at 16, its
        # ack at 17 — and the rest of the backlog is delivered at 18.
        h.run(until=17.5)
        assert passes == [(17.0, "n1")] and numbers(h) == [0]
        h.run(until=18.5)
        assert numbers(h) == list(range(frames))
        h.run(until=200)
        assert passes == [(17.0, "n1")], "acks of the burst start no pass"
        assert numbers(h) == list(range(frames)), "no duplicate reaches the upcall"
        sender = h.transports["n0"]
        assert sender.retransmits == 3 + (frames - 1)
        assert "unacked=0" in repr(sender)

    def test_pass_leaves_frames_sent_after_the_probe_alone(self):
        h = GroupHarness(2, retry_interval=5.0)
        wire(h)
        h.net.partition(["n0"], ["n1"])
        send_numbered(h, 3)
        h.sim.schedule_at(4.0, h.net.heal)
        # Sent after the probe of t=5 and before its ack: in flight, not lost.
        h.sim.schedule_at(6.0, send_numbered, h, 4, 3)
        h.run(until=100)
        assert numbers(h) == list(range(7))
        assert h.transports["n0"].retransmits == 3, "the probe and the two frames behind it"

    def test_restore_resends_the_backlog_one_hop_after_the_heartbeat(self):
        # retry_interval is out of the way: only the restore can explain
        # a delivery two hops after the recovery.
        h = GroupHarness(2, retry_interval=1000.0)
        times = []
        h.transports["n1"].on("app", lambda src, p: times.append((h.sim.now, p["n"])))
        h.detectors["n0"].on_restore(h.transports["n0"].resend_unacked)
        h.sim.schedule_at(5.0, h.nodes["n1"].crash)
        h.sim.schedule_at(30.0, send_numbered, h, 10)
        h.sim.schedule_at(50.0, h.nodes["n1"].recover)
        h.run(until=49.9)
        assert h.detectors["n0"].is_suspected("n1")
        h.run(until=60)
        # Heartbeat leaves n1 at 50, reaches n0 at 51; backlog lands at 52.
        assert times == [(52.0, n) for n in range(10)]

    def test_replica_wires_restore_to_the_transport(self):
        system = ReplicatedSystem(
            "active", replicas=3, clients=1, seed=1, latency=ConstantLatency(1.0)
        )
        system.injector.crash_at(5.0, "r0")
        system.injector.recover_at(60.0, "r0")
        system.sim.schedule_at(
            40.0, lambda: [system.replicas["r1"].transport.send("r0", "late", n=i)
                           for i in range(6)]
        )
        transport = system.replicas["r1"].transport
        system.sim.run(until=60.5)
        before = transport.retransmits
        system.sim.run(until=61.5)     # r0's first heartbeat arrived at 61
        assert transport.retransmits - before >= 6
        system.sim.run(until=63.5)     # backlog at 62, its acks at 63
        assert "unacked=0" in repr(transport)

    def test_sender_crash_does_not_wedge_the_channel(self):
        # A frame lost before its sender crashed must be retransmitted
        # after the recovery, or the receiver's FIFO hold-back waits for
        # it for ever with every later frame piling up behind.
        h = GroupHarness(2, retry_interval=5.0)
        wire(h)
        h.net.partition(["n0"], ["n1"])
        h.transports["n0"].send("n1", "app", n=0)
        h.run(until=2)
        h.net.heal()
        h.nodes["n0"].crash()
        h.run(until=20)
        h.nodes["n0"].recover()
        send_numbered(h, 2, start=1)
        h.run(until=100)
        assert numbers(h) == [0, 1, 2]
        assert not h.transports["n1"]._from["n0"]._held  # the cursor holds nothing

    # A crashing *sender* is the case the per-frame timers got wrong (see
    # the test above); with receiver crashes alone the property held before.
    @pytest.mark.parametrize("victims", [("n1",), ("n0", "n1")], ids=["receiver", "either"])
    @given(
        seed=st.integers(0, 10_000),
        loss_rate=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
        jitter=st.booleans(),
        sends=st.lists(st.floats(0.0, 150.0), min_size=1, max_size=25),
        partitions=st.lists(
            st.tuples(st.floats(0.0, 150.0), st.floats(1.0, 40.0)), max_size=3
        ),
        crashes=st.lists(
            st.tuples(st.integers(0, 1), st.floats(0.0, 150.0), st.floats(1.0, 40.0)),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_exactly_once_in_order_after_any_fault_schedule(
        self, victims, seed, loss_rate, jitter, sends, partitions, crashes
    ):
        h = GroupHarness(
            2, seed=seed, loss_rate=loss_rate, jitter=jitter, retry_interval=5.0
        )
        wire(h)
        sent = []

        def send():
            # A crashed process takes no steps, so it sends nothing.
            if not h.nodes["n0"].crashed:
                sent.append(len(sent))
                h.transports["n0"].send("n1", "app", n=sent[-1])

        for at in sends:
            h.sim.schedule_at(at, send)
        for at, length in partitions:
            h.sim.schedule_at(at, h.net.partition, ["n0"], ["n1"])
            h.sim.schedule_at(at + length, h.net.heal)
        for pick, at, length in crashes:
            node = h.nodes[victims[pick % len(victims)]]
            h.sim.schedule_at(at, node.crash)
            h.sim.schedule_at(at + length, node.recover)
        # Healed and both up by 190 at the latest; then the loss stops.
        h.run(until=200.0)
        h.net.loss_rate = 0.0
        h.run(until=400.0)
        assert numbers(h) == sent


def recorded_acks(harness):
    """Log ``(time, src, seq)`` of every ``rt.ack`` put on the wire."""
    log = []
    send = harness.net.send

    def recorded(src, dst, type, payload=None, **kwargs):
        if type == "rt.ack":
            log.append((harness.sim.now, src, payload["seq"]))
        return send(src, dst, type, payload=payload, **kwargs)

    harness.net.send = recorded
    return log


class TestCumulativeAcks:
    """One ack per source per quarter retry interval, unless it must be prompt."""

    def test_in_order_frames_of_one_interval_share_one_ack(self):
        h = GroupHarness(2, retry_interval=4.0)  # in-order acks wait 1.0
        wire(h)
        log = recorded_acks(h)
        for k in range(5):  # they arrive at 1.0, 1.2, ..., 1.8
            h.sim.schedule_at(0.2 * k, send_numbered, h, 1, k)
        h.run(until=1.9)
        assert log == [] and numbers(h) == list(range(5)), "delivered before the ack"
        h.run(until=50)
        assert log == [(2.0, "n1", 4)], "one ack, armed by the first, with the highest seq"
        sender = h.transports["n0"]
        assert "unacked=0" in repr(sender) and sender.retransmits == 0

    def test_next_interval_gets_its_own_ack(self):
        h = GroupHarness(2, retry_interval=4.0)
        wire(h)
        log = recorded_acks(h)
        send_numbered(h, 2)
        h.sim.schedule_at(3.0, send_numbered, h, 1, 2)
        h.run(until=50)
        assert log == [(2.0, "n1", 1), (5.0, "n1", 2)]

    def test_a_gap_frame_waits_and_a_repeat_is_acked_at_once(self):
        h = GroupHarness(2, retry_interval=4.0)
        wire(h)
        log = recorded_acks(h)
        h.net.partition(["n0"], ["n1"])
        send_numbered(h, 1)  # frame 0 is lost
        h.net.heal()
        h.sim.schedule_at(0.5, send_numbered, h, 1, 1)
        h.run(until=50)
        # Frame 1 lands at 1.5 behind the gap and gets no ack: one would
        # say -1 and drop nothing.  The probe of frame 0 (sent at 4.0)
        # lands at 5.0 and releases both: a repeat, so its ack covers
        # them at once.
        assert log == [(5.0, "n1", 1)]
        assert numbers(h) == [0, 1]
        sender = h.transports["n0"]
        assert "unacked=0" in repr(sender) and sender.retransmits == 1


def openloop_events(outage, seed=7):
    """An ``active`` open-loop run through a crash of ``r0`` lasting ``outage``."""
    system = ReplicatedSystem(
        "active", replicas=3, clients=4, seed=seed, latency=ConstantLatency(1.0)
    )
    system.injector.crash_at(20.0, "r0")
    system.injector.recover_at(20.0 + outage, "r0")
    generator = WorkloadGenerator(WorkloadSpec(read_fraction=0.5, items=50), seed=seed)
    engine = OpenLoopEngine(system, generator, ArrivalSpec(
        process="poisson", rate=5.0, duration=160.0, clients=100_000,
    ))
    summary = engine.run(settle=300.0)
    assert summary.committed == summary.offered > 500
    assert system.converged(), system.divergent_replicas()
    return system.sim.events_processed


def test_outage_length_does_not_scale_the_run():
    """Retransmission costs O(outage), not O(frames x outage).

    Four times the outage adds four times the probes — a few hundred
    events — not four times the retransmissions of every frame sent
    meanwhile (which trebled the event count before the per-peer window).
    """
    short, long = openloop_events(30.0), openloop_events(120.0)
    assert abs(long - short) / short < 0.15, (short, long)
