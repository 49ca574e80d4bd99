"""Tests for the simulation-time trace log."""

import gc
import hashlib
import json
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import contended_run
from repro import REGISTRY, Operation, ReplicatedSystem, RunSpec
from repro.core.phases import PhaseTracer
from repro.sim import Simulator, TraceEvent, TraceLog, tracing
from repro.workload.openloop import ArrivalSpec, run_openloop

# The two ways a record gets in: by keyword, and positionally the way the
# phase tracer writes.  Both leave the same kind of record.
WRITERS = {
    "keyword": lambda trace, i: trace.record("cat", "src", i=i),
    "positional": lambda trace, i: trace.append("cat", "src", ("i",), (i,)),
}


class RecordingObserver:
    """Stands in for :class:`repro.obs.Observer` as a log's ``obs``: keeps
    every record the log hands it, stamped with the clock's time."""

    def __init__(self, clock=None):
        self.clock = clock
        self.seen = []

    def _on_trace_event(self, category, source, keys, values):
        now = 0.0 if self.clock is None else self.clock.now
        self.seen.append(TraceEvent(now, category, source, dict(zip(keys, values))))


class TestTraceLog:
    def test_records_carry_sim_time(self):
        sim = Simulator()
        trace = TraceLog(sim)
        sim.schedule(5.0, lambda: trace.record("cat", "src", value=1))
        sim.run()
        assert trace.events[0].time == 5.0

    def test_record_without_sim_defaults_to_zero(self):
        trace = TraceLog()
        # The log keeps a record and hands nothing back, by keyword ...
        assert trace.record("cat", "src") is None
        assert trace.events[-1].time == 0.0
        # ... and positionally, the way the phase tracer writes.
        assert PhaseTracer(trace).record("src", "req", "RE") is None
        assert trace.events[-1].time == 0.0 and len(trace) == 2

    def test_append_rejects_values_its_keys_do_not_name(self):
        trace = TraceLog()
        with pytest.raises(ValueError):
            trace.append("cat", "src", ("i",), (1, 2))
        trace.record("cat", "src", i=3)
        assert [event.data for event in trace] == [{"i": 3}]

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

    def test_observer_sees_new_events(self):
        obs = RecordingObserver()
        trace = TraceLog(obs=obs)
        trace.record("cat", "src", i=1)
        PhaseTracer(trace).record("r0", "req", "RE")
        assert obs.seen == trace.events and len(obs.seen) == 2

    def test_clear_keeps_observer(self):
        obs = RecordingObserver()
        trace = TraceLog(obs=obs)
        trace.record("cat", "src")
        trace.clear()
        assert len(trace) == 0
        trace.record("cat", "src")
        assert len(obs.seen) == 2

    def test_raising_observer_propagates_and_keeps_the_record(self):
        class Broken:
            def _on_trace_event(self, category, source, keys, values):
                raise RuntimeError("observer bug")

        trace = TraceLog(obs=Broken())
        with pytest.raises(RuntimeError, match="observer bug"):
            trace.record("cat", "src", i=1)
        # The record was stored before the observer ran.
        assert [(e.category, e.data) for e in trace] == [("cat", {"i": 1})]

    def test_dump_limits_output(self):
        trace = TraceLog()
        for i in range(10):
            trace.record("cat", "src", i=i)
        assert len(trace.dump(limit=3).splitlines()) == 3
        assert trace.dump(limit=3).splitlines()[-1].endswith("i=9")
        assert trace.dump(limit=0) == ""

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

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS)
    def test_bound_is_kept_over_rows(self, write):
        obs = RecordingObserver()
        trace = TraceLog(max_events=5, obs=obs)
        for i in range(12):
            write(trace, i)
        assert len(trace) == 5 and trace.dropped_events == 7
        # The observer saw every record, dropped or kept, and every way
        # of reading agrees on what is left.
        seen = obs.seen
        assert [e.data["i"] for e in seen] == list(range(12))
        assert trace.events == trace.select() == list(trace) == seen[-5:]
        assert trace.count() == 5

    def test_bound_over_a_run(self):
        """``trace_max_events=N``: N records left, the newest, in order."""
        bound = 40
        system = ReplicatedSystem("active", replicas=3, seed=5,
                                  trace_max_events=bound)
        obs = system.trace.obs = RecordingObserver(system.sim)
        for i in range(6):
            assert system.execute([Operation.write("x", i)]).committed
        trace, seen = system.trace, obs.seen
        assert len(seen) > 2 * bound
        assert len(trace) == bound
        assert trace.dropped_events == len(seen) - bound
        assert trace.events == trace.select() == list(trace) == seen[-bound:]
        assert trace.count("phase") == len(trace.select(category="phase")) > 0

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


# ---------------------------------------------------------------------------
# Records: the filters decide on the stored columns, a reader gets the event
# ---------------------------------------------------------------------------

_VALUES = st.one_of(st.none(), st.integers(0, 2), st.sampled_from(["a", "b"]))
_PAYLOADS = st.dictionaries(st.sampled_from(["x", "y", "z"]), _VALUES)
_RECORD = st.tuples(
    st.sampled_from(["phase", "fd", "abcast"]), st.sampled_from(["r0", "r1"]),
    _PAYLOADS,
)
_RECORDS = st.lists(_RECORD)


@settings(max_examples=200, deadline=None)
@given(
    records=_RECORDS,
    bound=st.one_of(st.none(), st.integers(1, 6)),
    category=st.one_of(st.none(), st.sampled_from(["phase", "fd", "gone"])),
    source=st.one_of(st.none(), st.sampled_from(["r0", "r1", "gone"])),
    filters=_PAYLOADS,
)
def test_select_and_count_equal_filtering_the_events_by_hand(
        records, bound, category, source, filters):
    trace = TraceLog(max_events=bound)
    for record_category, record_source, data in records:
        trace.record(record_category, record_source, **data)

    def by_hand(source):
        return [
            event for event in trace.events
            if (category is None or event.category == category)
            and (source is None or event.source == source)
            and all(event.data.get(key) == value for key, value in filters.items())
        ]

    assert trace.select(category, source, **filters) == by_hand(source)
    assert trace.count(category, source=source, **filters) == len(by_hand(source))
    assert trace.count(category, **filters) == len(by_hand(None))
    kept = records if bound is None else records[-bound:]
    assert [(e.category, e.source, e.data) for e in trace] == kept
    assert all(list(e.data) == list(data) for e, (_, _, data) in zip(trace, kept))


class _Clock:
    now = 0.0


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(_RECORD, min_size=40, max_size=80),
    bound=st.integers(1, 8),
    clear_at=st.one_of(st.none(), st.integers(0, 79)),
)
def test_a_bounded_log_reads_like_a_deque_across_compactions(records, bound, clear_at):
    """40+ records through a bound of at most 8 discard past the compaction
    point (every ``bound`` discards) at least four times; after every step
    each reader agrees with a ``deque(maxlen=bound)`` of the events."""
    clock = _Clock()
    trace = TraceLog(clock, max_events=bound)
    reference = deque(maxlen=bound)
    dropped = 0
    for step, (category, source, data) in enumerate(records):
        if step == clear_at:
            trace.clear()
            reference.clear()
        clock.now = float(step)
        if step % 2:
            trace.record(category, source, **data)
        else:
            trace.append(category, source, tuple(data), tuple(data.values()))
        dropped += len(reference) == bound
        reference.append(TraceEvent(clock.now, category, source, data))
        expected = list(reference)
        assert list(trace) == trace.events == trace.select() == expected
        assert [list(e.data) for e in trace] == [list(e.data) for e in expected]
        assert trace.count() == len(trace) == len(expected)
        assert trace.count("phase") == sum(e.category == "phase" for e in expected)
        assert trace.dropped_events == dropped


def _tracked_objects_owned(trace):
    """gc-tracked objects among the log's storage and what it holds."""
    storage = [value for name, value in vars(trace).items() if name != "_sim"]
    return sum(map(gc.is_tracked, storage + gc.get_referents(*storage)))


@pytest.mark.parametrize("technique", ["active", "lazy_primary"])
def test_an_unread_log_is_rows_the_collector_does_not_walk(technique, monkeypatch):
    """Rate 5.0 for 100 at seed 7: 482 requests, 7308 / 1672 records.

    Nobody reads the log during an unobserved run, so no ``TraceEvent`` is
    built; what the run retains for it (allocations made in the two files
    that write it) stays under 56 bytes a record — 104 with a tuple row,
    213 with an event, its ``__dict__`` and its payload dict per record —
    and a record adds no object the collector tracks to what the log owns.
    """
    built = []

    class CountedEvent(tracing.TraceEvent):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(tracing, "TraceEvent", CountedEvent)
    written_in = [tracemalloc.Filter(True, "*/repro/sim/tracing.py"),
                  tracemalloc.Filter(True, "*/repro/core/phases.py")]
    tracemalloc.start()
    try:
        system, _, summary = run_openloop(
            RunSpec(technique, clients=4, seed=7),
            arrival=ArrivalSpec(process="poisson", rate=5.0, duration=100.0),
        )
        snapshot = tracemalloc.take_snapshot().filter_traces(written_in)
    finally:
        tracemalloc.stop()
    trace = system.trace
    assert summary.offered == 482 and len(trace) > 1500
    assert not built
    retained = sum(stat.size for stat in snapshot.statistics("filename"))
    assert retained / len(trace) <= 56
    phase_records = trace.count("phase")
    assert phase_records > 1000 and not built
    assert len(trace.select(category="phase", source="nobody")) == 0 and not built
    assert len(trace.events) == len(trace) == len(built)
    assert sum(event.category == "phase" for event in trace) == phase_records
    # More records, more than a young collection's worth: what the log owns
    # gains no tracked object.
    gc.collect()
    owned = _tracked_objects_owned(trace)
    tracer = PhaseTracer(trace)
    for i in range(2000):
        tracer.record("r0", f"more-{i}", "RE")
    assert _tracked_objects_owned(trace) <= owned


# ---------------------------------------------------------------------------
# Golden: what a reader gets back is pinned across commits
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "data" / "tracelog_golden.json"
TECHNIQUES = sorted(REGISTRY)


def _read_side_digest(technique, ops_per_transaction):
    """sha256 over every event a contended seed-7 run left in the log."""
    system, _, _ = contended_run(RunSpec(technique, clients=4, seed=7), ops_per_transaction)
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
    commit read: ``tests/data/tracelog_golden.json`` was last written when
    consensus decisions stopped narrating the decided value, with

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
