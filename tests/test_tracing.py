"""Tests for the simulation-time trace log."""

import hashlib
import json
from pathlib import Path

import pytest

from helpers import contended_run
from repro import REGISTRY
from repro.sim import Simulator, TraceLog


class TestTraceLog:
    def test_records_carry_sim_time(self):
        sim = Simulator()
        trace = TraceLog(sim)
        sim.schedule(5.0, lambda: trace.record("cat", "src", value=1))
        sim.run()
        assert trace.events[0].time == 5.0

    def test_record_without_sim_defaults_to_zero(self):
        trace = TraceLog()
        event = trace.record("cat", "src")
        assert event.time == 0.0

    def test_select_filters_by_category_source_and_payload(self):
        trace = TraceLog()
        trace.record("phase", "r0", request="a", phase="RE")
        trace.record("phase", "r1", request="a", phase="EX")
        trace.record("message", "r0", request="b")
        assert len(trace.select(category="phase")) == 2
        assert len(trace.select(source="r0")) == 2
        assert len(trace.select(category="phase", request="a", phase="EX")) == 1

    def test_count_matches_select(self):
        trace = TraceLog()
        for i in range(4):
            trace.record("tick", "t", i=i)
        assert trace.count("tick") == 4
        assert trace.count("tick", i=2) == 1

    def test_subscribers_see_new_events(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(seen.append)
        trace.record("cat", "src")
        assert len(seen) == 1

    def test_clear_keeps_subscribers(self):
        trace = TraceLog()
        seen = []
        trace.subscribe(seen.append)
        trace.record("cat", "src")
        trace.clear()
        assert len(trace) == 0
        trace.record("cat", "src")
        assert len(seen) == 2

    def test_dump_limits_output(self):
        trace = TraceLog()
        for i in range(10):
            trace.record("cat", "src", i=i)
        assert len(trace.dump(limit=3).splitlines()) == 3

    def test_iteration_in_order(self):
        trace = TraceLog()
        for i in range(3):
            trace.record("cat", "src", i=i)
        assert [e.data["i"] for e in trace] == [0, 1, 2]


class TestRingBuffer:
    def test_unbounded_by_default(self):
        trace = TraceLog()
        for i in range(100):
            trace.record("cat", "src", i=i)
        assert len(trace) == 100
        assert trace.dropped_events == 0

    def test_bound_discards_oldest(self):
        trace = TraceLog(max_events=5)
        for i in range(12):
            trace.record("cat", "src", i=i)
        assert len(trace) == 5
        assert [e.data["i"] for e in trace] == [7, 8, 9, 10, 11]
        assert trace.dropped_events == 7

    def test_bound_applies_to_queries(self):
        trace = TraceLog(max_events=3)
        for i in range(6):
            trace.record("cat", "src", i=i)
        assert trace.count("cat") == 3
        assert len(trace.dump().splitlines()) == 3
        assert len(trace.dump(limit=2).splitlines()) == 2

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(max_events=0)


class TestSubscriberIsolation:
    def test_raising_subscriber_does_not_corrupt_log(self):
        trace = TraceLog()

        def broken(_event):
            raise RuntimeError("observer bug")

        seen = []
        trace.subscribe(broken)
        trace.subscribe(seen.append)
        event = trace.record("cat", "src")
        # The event made it into the log and to the healthy subscriber.
        assert trace.events == [event]
        assert seen == [event]
        # The broken subscriber was detached and its error recorded.
        assert len(trace.subscriber_errors) == 1
        trace.record("cat", "src")
        assert len(trace.subscriber_errors) == 1  # not called again
        assert len(seen) == 2


# ---------------------------------------------------------------------------
# Golden: what a reader gets back is pinned across commits
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "tracelog_golden.json"
TECHNIQUES = sorted(REGISTRY)


def _read_side_digest(technique, ops_per_transaction):
    """sha256 over every event a contended seed-7 run left in the log."""
    system, _, _ = contended_run(technique, 7, ops_per_transaction)
    events = system.trace.events
    digest = hashlib.sha256(repr(events).encode())
    # TraceEvent.__repr__ sorts the payload; the order a reader iterates
    # ``data`` in is pinned beside it.
    digest.update(repr([list(event.data) for event in events]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("ops_per_transaction", [1, 3])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_events_match_cross_commit_golden(technique, ops_per_transaction):
    """Same events, same order, same ``data`` key order as the recording
    commit read: ``tests/data/tracelog_golden.json`` was written at the
    last commit that stored ``TraceEvent`` objects, with

        PYTHONPATH=src:tests python tests/test_tracing.py

    Regenerate it only for a deliberate change to what is narrated.
    """
    golden = json.loads(GOLDEN.read_text())
    assert (_read_side_digest(technique, ops_per_transaction)
            == golden[f"{technique}/{ops_per_transaction}"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {f"{technique}/{ops}": _read_side_digest(technique, ops)
         for technique in TECHNIQUES for ops in (1, 3)},
        indent=1, sort_keys=True) + "\n")
