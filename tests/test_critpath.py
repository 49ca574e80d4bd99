"""Unit tests for the critical-path profiler and the time-series layer.

Everything here runs against hand-built span sets on a fake clock — no
simulator, no protocols — so each invariant of :mod:`repro.obs.critpath`
(timeline tiling, tie-breaking, the clamped frontier walk) and of
:mod:`repro.obs.timeseries` (bucketing, counter-track rendering) is
pinned in isolation.  The live-run counterparts live in
``tests/test_profiling.py``.
"""

import json

import pytest

from repro.obs import (
    KINDS,
    PHASES,
    PhaseTimeline,
    SpanTracer,
    TimeSeries,
    counter_trace,
    counter_track_events,
    critical_path,
    phase_matrix,
    request_profile,
)
from repro.obs.critpath import _belongs


class Clock:
    """A settable `.now` — the only clock interface the tracer needs."""

    def __init__(self, now=0.0):
        self.now = now


def make_tracer():
    clock = Clock()
    return SpanTracer(clock), clock


def add_phase(tracer, clock, time, phase, trace_id="r1", source="n0"):
    clock.now = time
    span = tracer.start(phase, "phase", source, trace_id=trace_id,
                        use_context=False)
    tracer.finish(span)  # tiles only need the entry instant
    return span


# ---------------------------------------------------------------------------
# _belongs: reuniting transaction-scoped spans with their request
# ---------------------------------------------------------------------------

def test_belongs_exact_and_derived_ids():
    assert _belongs("r1", "r1")
    assert _belongs("r1@primary", "r1")
    assert _belongs("r1:2", "r1")
    assert _belongs("r1#retry", "r1")


def test_belongs_rejects_sibling_prefixes():
    # "r10" starts with "r1" but is a different request.
    assert not _belongs("r10", "r1")
    assert not _belongs("r1x", "r1")
    assert not _belongs("r2", "r1")
    assert not _belongs("", "r1")


# ---------------------------------------------------------------------------
# PhaseTimeline
# ---------------------------------------------------------------------------

def test_timeline_defaults_to_re_before_any_record():
    tracer, clock = make_tracer()
    timeline = PhaseTimeline(tracer.spans, "r1")
    assert timeline.phase_at(0.0) == "RE"
    assert timeline.phase_at(100.0) == "RE"


def test_timeline_tiles_partition_exactly():
    tracer, clock = make_tracer()
    add_phase(tracer, clock, 1.0, "RE")
    add_phase(tracer, clock, 3.0, "SC")
    add_phase(tracer, clock, 6.0, "EX")
    add_phase(tracer, clock, 6.5, "END")
    timeline = PhaseTimeline(tracer.spans, "r1")
    tiles = timeline.tiles(0.0, 10.0)
    # Contiguous, starts at lo, ends at hi, durations sum to the window.
    assert tiles[0][0] == 0.0 and tiles[-1][1] == 10.0
    for (_, hi, _), (lo, _, _) in zip(tiles, tiles[1:]):
        assert hi == lo
    assert sum(hi - lo for lo, hi, _ in tiles) == pytest.approx(10.0)
    assert [phase for _, _, phase in tiles] == ["RE", "SC", "EX", "END"]
    # The pre-record stretch merges into the explicit RE tile.
    assert tiles[0] == (0.0, 3.0, "RE")


def test_timeline_dedups_same_phase_reentry():
    tracer, clock = make_tracer()
    add_phase(tracer, clock, 1.0, "EX")
    add_phase(tracer, clock, 2.0, "EX")  # loop iteration: same phase again
    add_phase(tracer, clock, 3.0, "END")
    timeline = PhaseTimeline(tracer.spans, "r1")
    assert timeline.tiles(1.0, 4.0) == [(1.0, 3.0, "EX"), (3.0, 4.0, "END")]


def test_timeline_ignores_other_traces_and_empty_window():
    tracer, clock = make_tracer()
    add_phase(tracer, clock, 1.0, "AC", trace_id="r2")
    timeline = PhaseTimeline(tracer.spans, "r1")
    assert timeline.phase_at(5.0) == "RE"
    assert timeline.tiles(3.0, 3.0) == []
    assert timeline.tiles(4.0, 3.0) == []


def test_timeline_span_id_breaks_same_instant_ties():
    # A whole request stage executes at one simulated instant: SC, EX and
    # END records all share t=2.0.  A message sent from inside the SC
    # handler (its span id falls between the SC and EX records) must be
    # attributed to SC, not to whichever record sorts last.
    tracer, clock = make_tracer()
    add_phase(tracer, clock, 0.0, "RE")
    sc = add_phase(tracer, clock, 2.0, "SC")
    clock.now = 2.0
    msg = tracer.start("msg:vote", "message", "n0", trace_id="r1",
                       use_context=False)
    ex = add_phase(tracer, clock, 2.0, "EX")
    end = add_phase(tracer, clock, 2.0, "END")
    timeline = PhaseTimeline(tracer.spans, "r1")
    assert sc < msg < ex < end
    assert timeline.phase_at(2.0, msg) == "SC"
    assert timeline.phase_at(2.0, end + 1) == "END"
    assert timeline.phase_at(1.0, msg) == "RE"
    # Without a span id the tie collapses to the last record (fine for
    # time attribution — the ambiguous interval is zero-width).
    assert timeline.phase_at(2.0) == "END"


# ---------------------------------------------------------------------------
# critical_path: the clamped backward frontier walk
# ---------------------------------------------------------------------------

def build_request_tree(tracer, clock):
    """root(c0, 0..5) -> flight(0..1) -> handle(1..2) -> response(2..3).

    The client then sits on the answer until 5.0 — time the tree cannot
    explain, which must surface as the root's own ``blocked`` segment.
    """
    clock.now = 0.0
    root = tracer.start("request", "request", "c0", trace_id="r1",
                        use_context=False)
    flight = tracer.start("msg:client.request", "message", "c0",
                          trace_id="r1", parent_id=root)
    clock.now = 1.0
    tracer.finish(flight)
    handle = tracer.start("handle:client.request", "handle", "n0",
                          trace_id="r1", parent_id=flight)
    clock.now = 2.0
    tracer.finish(handle)
    response = tracer.start("msg:client.response", "message", "n0",
                            trace_id="r1", parent_id=handle)
    clock.now = 3.0
    tracer.finish(response)
    clock.now = 5.0
    tracer.finish(root)
    return root


def test_critical_path_tiles_the_response_window():
    tracer, clock = make_tracer()
    root = build_request_tree(tracer, clock)
    found, segments = critical_path(tracer.spans, "r1")
    assert found.span_id == root
    assert segments[0].start == found.start
    assert segments[-1].end == found.end
    for left, right in zip(segments, segments[1:]):
        assert left.end == right.start
    assert sum(s.duration for s in segments) == pytest.approx(5.0)
    assert [s.kind for s in segments] == [
        "transit", "execution", "transit", "blocked",
    ]
    # The unexplained tail is the client's own wait.
    assert segments[-1].source == "c0" and segments[-1].duration == 2.0


def test_critical_path_adopts_orphan_subtrees():
    # A flight parented under a span outside the work tree (a phase span)
    # is adopted under the root and still clamped to the asked window.
    tracer, clock = make_tracer()
    root = build_request_tree(tracer, clock)
    anchor = add_phase(tracer, clock, 3.0, "AC")
    clock.now = 3.0
    orphan = tracer.start("msg:apply", "message", "n1", trace_id="r1",
                          parent_id=anchor)
    clock.now = 4.0
    tracer.finish(orphan)
    _, segments = critical_path(tracer.spans, "r1")
    assert sum(s.duration for s in segments) == pytest.approx(5.0)
    by_id = {s.span_id: s for s in segments}
    assert by_id[orphan].kind == "transit"
    assert by_id[orphan].start == 3.0
    assert by_id[orphan].end == 4.0


def test_critical_path_without_root_or_width():
    tracer, clock = make_tracer()
    assert critical_path(tracer.spans, "r1") == (None, [])
    clock.now = 2.0
    root = tracer.start("request", "request", "c0", trace_id="r1",
                        use_context=False)
    tracer.finish(root)  # zero-width request
    found, segments = critical_path(tracer.spans, "r1")
    assert found.span_id == root and segments == []


def test_critical_path_clamps_child_overreach():
    # A child subtree reaching past the root's end (lazy propagation
    # outliving the response) must be clamped to the response window.
    tracer, clock = make_tracer()
    root = build_request_tree(tracer, clock)
    clock.now = 4.0
    late = tracer.start("msg:propagate", "message", "n0", trace_id="r1",
                        parent_id=root)
    clock.now = 50.0
    tracer.finish(late)
    _, segments = critical_path(tracer.spans, "r1")
    assert segments[-1].end == tracer.get(root).end == 5.0
    assert sum(s.duration for s in segments) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# request_profile + phase_matrix
# ---------------------------------------------------------------------------

def build_profiled_request(tracer, clock):
    root = build_request_tree(tracer, clock)
    add_phase(tracer, clock, 0.0, "RE")
    add_phase(tracer, clock, 1.0, "EX")
    add_phase(tracer, clock, 2.5, "END")
    # Post-response propagation: a flight after the response window, on a
    # derived trace id, with a byte estimate — END governs its send time.
    clock.now = 10.0
    late = tracer.start("msg:propagate", "message", "n0",
                        trace_id="r1@primary", use_context=False, bytes=40)
    clock.now = 12.0
    tracer.finish(late)
    return root


def test_request_profile_invariants():
    tracer, clock = make_tracer()
    build_profiled_request(tracer, clock)
    profile = request_profile(tracer.spans, "r1")
    assert profile is not None
    rt = profile["response_time"]
    assert rt == pytest.approx(5.0)
    assert sum(profile["phases"].values()) == pytest.approx(rt)
    assert sum(profile["phase_shares"].values()) == pytest.approx(1.0)
    assert profile["critical_path_length"] <= rt + 1e-9
    assert sum(profile["kinds"].values()) == pytest.approx(rt)
    assert set(profile["phases"]) == set(PHASES)
    assert set(profile["kinds"]) == set(KINDS)
    assert profile["phases"]["RE"] == pytest.approx(1.0)
    assert profile["phases"]["EX"] == pytest.approx(1.5)
    assert profile["phases"]["END"] == pytest.approx(2.5)
    assert profile["dominant_phase"] == "END"
    # Every split segment carries exactly one phase and they still tile.
    assert sum(s["end"] - s["start"] for s in profile["segments"]) == \
        pytest.approx(rt)
    assert all(s["phase"] in PHASES for s in profile["segments"])


def test_request_profile_counts_post_response_messages():
    tracer, clock = make_tracer()
    build_profiled_request(tracer, clock)
    profile = request_profile(tracer.spans, "r1")
    # Flights: client.request (RE), client.response (EX window), and the
    # late propagation at t=10 attributed to the last phase (END).
    assert sum(profile["messages"].values()) == 3
    assert profile["messages"] == {
        "RE": 1, "SC": 0, "EX": 1, "AC": 0, "END": 1,
    }
    assert profile["bytes"]["END"] == 40


def test_request_profile_missing_request_returns_none():
    tracer, clock = make_tracer()
    build_profiled_request(tracer, clock)
    assert request_profile(tracer.spans, "nope") is None


def test_phase_matrix_aggregates_and_normalises():
    tracer, clock = make_tracer()
    build_profiled_request(tracer, clock)
    profile = request_profile(tracer.spans, "r1")
    matrix = phase_matrix([profile, profile])
    assert matrix["requests"] == 2
    assert matrix["response_time_total"] == pytest.approx(10.0)
    assert matrix["response_time_mean"] == pytest.approx(5.0)
    assert matrix["dominant_phase"] == "END"
    assert sum(row["share"] for row in matrix["phases"].values()) == \
        pytest.approx(1.0)
    assert matrix["phases"]["END"]["messages"] == 2
    assert matrix["phases"]["END"]["bytes"] == 80
    kinds_total = sum(row["time"] for row in matrix["kinds"].values())
    assert kinds_total == pytest.approx(10.0)


def test_phase_matrix_empty_is_well_formed():
    matrix = phase_matrix([])
    assert matrix["requests"] == 0
    assert matrix["response_time_total"] == 0.0
    assert matrix["dominant_phase"] == "RE"
    assert all(row["share"] == 0.0 for row in matrix["phases"].values())


# ---------------------------------------------------------------------------
# TimeSeries
# ---------------------------------------------------------------------------

def test_timeseries_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        TimeSeries(0.0)
    with pytest.raises(ValueError):
        TimeSeries(-5.0)


def test_timeseries_buckets_counts_and_totals():
    series = TimeSeries(10.0)
    series.observe(0.0, 2.0)
    series.observe(9.9, 4.0)
    series.observe(10.0, 1.0)
    series.observe(35.0)  # default value 1.0
    assert series.counts() == [(0.0, 2), (10.0, 1), (30.0, 1)]
    assert series.totals() == [(0.0, 6.0), (10.0, 1.0), (30.0, 1.0)]
    assert len(series) == 3


def test_timeseries_summary_tracks_min_max():
    series = TimeSeries(10.0)
    series.observe(1.0, 5.0)
    series.observe(2.0, -3.0)
    summary = series.summary()
    assert summary["width"] == 10.0
    bucket = summary["buckets"]["0"]
    assert bucket == {"count": 2, "sum": 2.0, "min": -3.0, "max": 5.0}


def test_timeseries_sparkline_shows_gaps():
    series = TimeSeries(10.0)
    assert series.sparkline() == ""
    series.observe(5.0)
    series.observe(25.0)
    series.observe(25.1)
    line = series.sparkline()
    assert len(line) == 3  # buckets 0..2 inclusive
    assert line[1] == " "  # the empty middle bucket reads as a gap
    assert line[0] != " " and line[2] != " "


# ---------------------------------------------------------------------------
# Perfetto counter tracks
# ---------------------------------------------------------------------------

def test_counter_track_events_shape_and_closing_zero():
    series = TimeSeries(50.0)
    series.observe(10.0, 2.0)
    series.observe(60.0, 3.0)
    events = counter_track_events({"ts.completions": series})
    assert all(e["ph"] == "C" for e in events)
    assert [e["ts"] for e in events] == [0.0, 50000.0, 100000.0]
    assert events[0]["args"] == {"count": 1, "sum": 2.0}
    assert events[-1]["args"] == {"count": 0, "sum": 0}  # returns to baseline
    assert events == counter_track_events({"ts.completions": series})
    assert counter_track_events({"empty": TimeSeries(50.0)}) == []


def test_counter_trace_is_a_valid_stable_document():
    series = TimeSeries(50.0)
    series.observe(0.0, 1.0)
    text = counter_trace({"ts.messages": series}, process_name="unit")
    assert text.endswith("\n")
    document = json.loads(text)
    assert document["displayTimeUnit"] == "ms"
    names = [e["name"] for e in document["traceEvents"]]
    assert names[0] == "process_name"
    assert "ts.messages" in names
    assert text == counter_trace({"ts.messages": series}, process_name="unit")
