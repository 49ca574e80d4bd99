"""Tests for atomic broadcast: total order, atomicity, crash tolerance."""

import pytest
from helpers import GroupHarness
from hypothesis import given, settings, strategies as st

from repro.groupcomm import ConsensusAtomicBroadcast, InOrder, SequencerAtomicBroadcast


def attach_seq(h):
    return {
        name: SequencerAtomicBroadcast(
            h.nodes[name], h.transports[name], h.names, h.sink(name)
        )
        for name in h.names
    }


def attach_ct(h):
    return {
        name: ConsensusAtomicBroadcast(
            h.nodes[name], h.transports[name], h.names, h.detectors[name], h.sink(name)
        )
        for name in h.names
    }


def orders(h, members=None):
    members = members if members is not None else h.names
    return {name: [b["tag"] for _, _, b in h.delivered[name]] for name in members}


def assert_total_order(order_by_member):
    sequences = list(order_by_member.values())
    reference = max(sequences, key=len)
    for name, sequence in order_by_member.items():
        assert sequence == reference[: len(sequence)], (
            f"{name} diverges: {sequence} vs {reference}"
        )


class TestInOrder:
    """The one hold-back cursor both ABCASTs and semi-passive share."""

    def test_out_of_order_puts_come_out_in_position_order(self):
        cursor = InOrder()
        assert list(cursor.put(2, "c")) == []
        assert list(cursor.put(1, "b")) == []
        assert list(cursor.put(0, "a")) == ["a", "b", "c"]
        assert list(cursor.put(4, "e")) == []
        assert list(cursor.put(3, "d")) == ["d", "e"]

    def test_released_or_held_position_is_dropped(self):
        cursor = InOrder()
        assert list(cursor.put(0, "a")) == ["a"]
        assert list(cursor.put(0, "again")) == []
        assert list(cursor.put(2, "c")) == []
        assert list(cursor.put(2, "other")) == []
        assert list(cursor.put(1, "b")) == ["b", "c"]
        assert cursor.next == 3
        assert list(cursor.put(1, "late")) == []
        assert not cursor._held  # nothing released is kept

    def test_cursor_moves_one_position_per_yielded_value(self):
        cursor = InOrder()
        for position in (3, 1, 2):
            list(cursor.put(position, position))
        seen = []
        for value in cursor.put(0, 0):
            seen.append((value, cursor.next))
        # While the caller handles a value, ``next - 1`` is its position.
        assert seen == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_claim_returns_each_position_once_and_only_the_current_one(self):
        cursor = InOrder()
        assert cursor.claim() == 0
        assert cursor.claim() is None
        assert list(cursor.put(1, "b")) == []
        assert cursor.claim() is None  # position 1 is not the cursor's yet
        assert list(cursor.put(0, "a")) == ["a", "b"]
        assert cursor.claim() == 2
        assert cursor.claim() is None


class TestSequencerAbcast:
    def test_same_total_order_everywhere(self):
        h = GroupHarness(4, jitter=True, seed=21)
        ab = attach_seq(h)
        for i in range(8):
            ab[h.names[i % 4]].abcast("op", tag=i)
        h.run(until=1000)
        got = orders(h)
        assert_total_order(got)
        assert sorted(got["n0"]) == list(range(8))

    def test_sender_delivers_its_own_message(self):
        h = GroupHarness(3)
        ab = attach_seq(h)
        ab["n2"].abcast("op", tag="x")
        h.run(until=100)
        assert [b["tag"] for _, _, b in h.delivered["n2"]] == ["x"]

    def test_concurrent_bursts_still_ordered(self):
        h = GroupHarness(5, jitter=True, seed=33)
        ab = attach_seq(h)
        for i in range(5):
            for name in h.names:
                ab[name].abcast("op", tag=f"{name}/{i}")
        h.run(until=2000)
        got = orders(h)
        assert_total_order(got)
        assert len(got["n0"]) == 25

    def test_two_hops_cheaper_than_consensus(self):
        h1 = GroupHarness(3)
        attach_seq(h1)["n1"].abcast("op", tag=0)
        h1.run(until=200)
        seq_msgs = h1.net.stats.by_type["rt.data"]

        h2 = GroupHarness(3)
        attach_ct(h2)["n1"].abcast("op", tag=0)
        h2.run(until=200)
        ct_msgs = h2.net.stats.by_type["rt.data"]
        assert seq_msgs < ct_msgs


class TestConsensusAbcast:
    def test_same_total_order_everywhere(self):
        h = GroupHarness(3, jitter=True, seed=5)
        ab = attach_ct(h)
        for i in range(6):
            ab[h.names[i % 3]].abcast("op", tag=i)
        h.run(until=3000)
        got = orders(h)
        assert_total_order(got)
        assert sorted(got["n0"]) == list(range(6))

    def test_order_survives_member_crash(self):
        h = GroupHarness(5, fd_interval=2.0, fd_timeout=6.0, seed=7)
        ab = attach_ct(h)
        for i in range(4):
            ab[h.names[i]].abcast("op", tag=i)
        h.sim.schedule(0.5, h.nodes["n0"].crash)
        for i in range(4, 8):
            h.sim.schedule(30.0 + i, lambda i=i: ab[h.names[1 + i % 4]].abcast("op", tag=i))
        h.run(until=8000)
        survivors = h.names[1:]
        got = orders(h, survivors)
        assert_total_order(got)
        longest = max(got.values(), key=len)
        assert set(range(4, 8)) <= set(longest), "post-crash messages must be delivered"

    def test_atomicity_sender_crash_is_all_or_nothing(self):
        for seed in range(5):
            h = GroupHarness(4, seed=seed, loss_rate=0.2, fd_interval=2.0,
                             fd_timeout=8.0, retry_interval=2.0)
            ab = attach_ct(h)
            ab["n0"].abcast("op", tag="doomed")
            h.sim.schedule(0.1, h.nodes["n0"].crash)
            h.run(until=5000)
            counts = {len(h.delivered[name]) for name in h.names[1:]}
            assert len(counts) == 1, f"seed {seed}: non-uniform delivery"

    def test_stream_under_wrong_suspicions_keeps_total_order(self):
        h = GroupHarness(3, jitter=True, seed=17, fd_interval=1.0, fd_timeout=1.5)
        ab = attach_ct(h)
        for i in range(10):
            h.sim.schedule(i * 5.0, lambda i=i: ab[h.names[i % 3]].abcast("op", tag=i))
        h.run(until=10000)
        got = orders(h)
        assert_total_order(got)
        assert len(max(got.values(), key=len)) == 10


def dissemination_frames(h):
    """Record ``(src, dst)`` of every ``ctab.msg`` frame put on the wire."""
    frames = []
    send = h.net.send

    def counted(src, dst, type, payload=None, **kwargs):
        if type == "rt.data" and payload["inner_type"] == "ctab.msg":
            frames.append((src, dst))
        return send(src, dst, type, payload=payload, **kwargs)

    h.net.send = counted
    return frames


class TestConsensusAbcastDissemination:
    """One send per member, no relay: atomicity comes from the decision's
    reliable broadcast, which carries every body of the batch."""

    @pytest.mark.parametrize("members", [3, 5])
    def test_each_abcast_puts_n_minus_one_frames_on_the_wire(self, members):
        h = GroupHarness(members)
        frames = dissemination_frames(h)
        ab = attach_ct(h)
        for i in range(2 * members):
            ab[h.names[i % members]].abcast("op", tag=i)
        h.run(until=500)
        assert len(frames) == 2 * members * (members - 1)
        for name in h.names:
            sent = sorted(dst for src, dst in frames if src == name)
            assert sent == sorted(2 * [peer for peer in h.names if peer != name])
        got = orders(h)
        assert_total_order(got)
        assert sorted(got["n0"]) == list(range(2 * members))

    @pytest.mark.parametrize("missed", ["n0", "n1"], ids=["coordinator", "member"])
    def test_origin_crash_after_a_lost_frame_is_all_or_nothing(self, missed):
        h = GroupHarness(4, fd_interval=2.0, fd_timeout=6.0)
        ab = attach_ct(h)
        # Only the origin's frame to ``missed`` is lost: the partition is
        # up for the instant of the send, and the origin is gone before
        # it would retransmit.
        h.net.partition([name for name in h.names if name != missed], [missed])
        doomed = ab["n3"].abcast("op", tag="doomed")
        h.net.heal()
        h.sim.schedule(0.5, h.nodes["n3"].crash)
        for i in range(6):
            h.sim.schedule(20.0 + 5 * i, lambda i=i: ab[h.names[i % 3]].abcast("op", tag=i))
        h.run(until=2000)
        correct = h.names[:3]
        got = orders(h, correct)
        for name in correct:
            assert got[name] == got[correct[0]], f"{name} diverges"
        assert set(range(6)) <= set(got["n0"])
        assert len({"doomed" in sequence for sequence in got.values()}) == 1
        if "doomed" in got[missed]:
            # Ordered from the decision; its frame will never come, so the
            # uid stays in the set of uids ordered ahead of their frame.
            assert ab[missed]._delivered == {doomed}


class TestConsensusAbcastRetention:
    """Exactly-once total order while only unsettled uids are remembered."""

    @given(
        seed=st.integers(0, 10_000),
        members=st.sampled_from([3, 4]),
        loss_rate=st.sampled_from([0.0, 0.1, 0.3]),
        duplicate=st.sampled_from([0.0, 0.3]),
        jitter=st.sampled_from([0.0, 3.0]),
        # Whole instants for sends and half instants for the crash: a
        # member crashing in the very instant it broadcasts loses its own
        # copy (no member sends the origin its message back), and that is
        # the sender-crash case test_atomicity covers.
        sends=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 120)),
                       min_size=1, max_size=20),
        # From shorter than failure detection (timeout 6 at interval 2) to
        # far longer: a coordinator back before it is suspected is waited
        # for, and must resume the rounds its crash ended.
        crash=st.tuples(st.integers(0, 3), st.integers(0, 120), st.integers(1, 40)),
    )
    @settings(max_examples=40, deadline=None)
    def test_exactly_once_same_order_after_any_fault_schedule(
        self, seed, members, loss_rate, duplicate, jitter, sends, crash
    ):
        h = GroupHarness(members, seed=seed, loss_rate=loss_rate, fd_interval=2.0,
                         fd_timeout=6.0, retry_interval=2.0)
        for name in h.names:
            if duplicate:
                h.net.set_fault(name, "duplicate", duplicate)
            if jitter:
                h.net.set_fault(name, "jitter", jitter)
        ab = attach_ct(h)
        uid_of = {}
        ordered = {name: set() for name in h.names}
        arrived = {name: set() for name in h.names}

        def check(name):
            early = ab[name]._delivered
            assert early <= ordered[name] - arrived[name], (name, early)

        def watch(name):
            sink, upcalls = h.sink(name), h.transports[name]._upcalls
            disseminate = upcalls["ctab.msg"]

            def deliver(origin, mtype, body):
                sink(origin, mtype, body)
                ordered[name].add(uid_of[body["tag"]])
                check(name)

            def on_disseminate(origin, payload):
                arrived[name].add(payload["uid"])
                disseminate(origin, payload)
                check(name)

            ab[name].deliver = deliver
            upcalls["ctab.msg"] = on_disseminate

        for name in h.names:
            watch(name)

        def send(name):
            # A crashed process takes no steps, so it broadcasts nothing.
            if not h.nodes[name].crashed:
                tag = len(uid_of)
                uid_of[tag] = ab[name].abcast("op", tag=tag)

        for pick, at in sends:
            h.sim.schedule_at(float(at), send, h.names[pick % members])
        pick, at, length = crash
        victim = h.nodes[h.names[pick % members]]
        h.sim.schedule_at(at + 0.5, victim.crash)
        h.sim.schedule_at(at + 0.5 + length, victim.recover)
        h.run(until=200.0)
        h.net.loss_rate = 0.0
        h.net.clear_faults()
        h.run(until=600.0)

        got = orders(h)
        reference = sorted(uid_of)
        for name in h.names:
            assert sorted(got[name]) == reference, f"{name}: {got[name]}"
            assert got[name] == got[h.names[0]], f"{name} diverges"
            assert ab[name]._delivered == set(), name
            assert ab[name]._unordered == {}, name
