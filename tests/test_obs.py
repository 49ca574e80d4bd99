"""Tests for the observability layer (repro.obs).

Three layers of guarantees:

* **Unit** — span tracer causality, metrics registry snapshots, the
  exporters' shapes, and what a recorded span costs in memory.
* **Neutrality** — observing a run changes nothing: same seed, same
  results, same store contents, with and without the observer.
* **Regression, per technique** — the same seed twice produces
  byte-identical span exports; every committed request's trace contains
  the technique's declared phase sequence; and every message span's type
  is covered by the generated protocol catalog (docs/messages.json), so
  the dynamic span world and the static message-flow world agree.
"""

import gc
import hashlib
import json
import os
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import REGISTRY, Operation, ReplicatedSystem, RunSpec
from repro.db import WRITE, LockManager
from repro.lint.msgflow import build_catalog, pattern_matches
from repro.lint.symeval import WILDCARD
from repro.net.message import Message
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Observer,
    SpanTracer,
    abort_reason_label,
    chrome_trace,
    spans_jsonl,
    write_artifacts,
    write_counter_track,
)
from repro.sim import Simulator
from repro.workload import ArrivalSpec, WorkloadSpec, run_openloop, run_workload

REPO = Path(__file__).resolve().parent.parent

TECHNIQUES = sorted(REGISTRY)

SPEC = WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2)

# Semi-active replication only enters its AC phase at non-deterministic
# choice points (Figure 4: "EX and AC are repeated for each non
# deterministic choice"), so its workload uses the non-deterministic
# update function to exercise the declared sequence.
SPECS = {
    "semi_active": WorkloadSpec(
        items=6, read_fraction=0.3, ops_per_transaction=2,
        update_func="random_token",
    ),
}


def _observed_run(technique: str):
    system, driver, summary = run_workload(
        RunSpec(technique, replicas=3, clients=2, seed=1301, observe=True,
                abcast="sequencer"),
        SPECS.get(technique, SPEC),
        requests_per_client=2,
        think_time=5.0,
        settle=300.0,
    )
    system.observer.finalize()
    return system, driver


def _export(system):
    spans = system.observer.tracer.spans
    order = system.replica_names + [c.name for c in system.clients]
    return (
        chrome_trace(spans, node_order=order),
        spans_jsonl(spans),
        system.observer.metrics.report(title="run"),
    )


@pytest.fixture(scope="module")
def runs():
    """Two independent same-seed observed runs per technique, cached."""
    cache = {}

    def get(technique):
        if technique not in cache:
            cache[technique] = (_observed_run(technique), _observed_run(technique))
        return cache[technique]

    return get


@pytest.fixture(scope="module")
def catalog(source_contexts):
    return build_catalog(source_contexts)


def _is_subsequence(needle, haystack):
    iterator = iter(haystack)
    return all(item in iterator for item in needle)


# ---------------------------------------------------------------------------
# Unit: span tracer
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0


class TestSpanTracer:
    def test_ids_are_sequential_and_times_from_clock(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        a = tracer.start("a", "cat", "n1")
        clock.now = 2.0
        b = tracer.start("b", "cat", "n1")
        tracer.finish(a)
        assert (a, b) == (1, 2)
        span = tracer.get(a)
        assert span.start == 0.0 and span.end == 2.0 and span.duration == 2.0

    def test_context_stack_sets_parent_and_trace(self):
        tracer = SpanTracer(FakeClock())
        root = tracer.start("root", "request", "c0", trace_id="req-1",
                            use_context=False)
        with tracer.context(root):
            child = tracer.get(tracer.start("child", "message", "c0"))
        assert child.parent_id == root
        assert child.trace_id == "req-1"
        # Outside the context: no parent inherited.
        orphan = tracer.get(tracer.start("orphan", "message", "c0"))
        assert orphan.parent_id is None and orphan.trace_id == ""

    def test_explicit_parent_wins_over_context(self):
        tracer = SpanTracer(FakeClock())
        a = tracer.start("a", "cat", "n", trace_id="t1", use_context=False)
        b = tracer.start("b", "cat", "n", trace_id="t2", use_context=False)
        with tracer.context(a):
            child = tracer.get(tracer.start("c", "cat", "n", parent_id=b))
        assert child.parent_id == b
        assert child.trace_id == "t2"

    def test_finalize_bounds_open_spans(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        span = tracer.start("open", "phase", "r0")
        clock.now = 7.0
        done = tracer.start("done", "phase", "r0")
        tracer.finish(done)
        tracer.finalize()
        assert tracer.get(span).end == 7.0 and tracer.get(span).status == "open"
        assert tracer.get(done).status == "ok"

    def test_instant_is_point_event(self):
        tracer = SpanTracer(FakeClock())
        span = tracer.get(tracer.instant("tick", "gc", "r0"))
        assert span.kind == "instant" and span.start == span.end

    def test_span_scope_closes_and_tags_errors(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.record_scope("work", "handle", "r0", "t", None,
                                 ("kind_of",), ("x",)) as span:
            assert tracer.current == span and tracer.get(span).end is None
            clock.now = 3.0
        assert tracer.current is None
        done = tracer.get(span)
        assert (done.end, done.status, done.attrs) == (3.0, "ok", {"kind_of": "x"})
        with pytest.raises(KeyError):
            with tracer.record_scope("boom", "handle", "r0", None, None, (), ()) as failed:
                raise KeyError("x")
        assert tracer.current is None
        failed = tracer.get(failed)
        assert failed.end == 3.0 and failed.status == "error:KeyError"
        with tracer.context(None) as nothing:
            assert nothing is None and tracer.current is None

    def test_get_by_id_and_finalize_count(self):
        tracer = SpanTracer(FakeClock())
        first = tracer.start("a", "cat", "n")
        second = tracer.start("b", "cat", "n")
        tracer.finish(second)
        assert tracer.get(1).span_id == first and tracer.get(2).span_id == second
        assert tracer.get(1) is not tracer.get(1)  # a fresh snapshot each time
        assert tracer.get(None) is None and tracer.get(0) is None
        assert tracer.get(3) is None
        assert [span.span_id for span in tracer.open_spans()] == [first]
        assert tracer.finalize() == 1 and tracer.finalize() == 0
        assert tracer.open_spans() == []
        late = tracer.start("late", "cat", "n")   # a hook firing after finalize
        assert [span.span_id for span in tracer.open_spans()] == [late]


# ---------------------------------------------------------------------------
# Unit: metrics registry
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counters_gauges_histograms_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("msgs")
        registry.inc("msgs", amount=2)
        registry.inc("msgs.by_type", label="abcast")
        registry.set("height", 4.5)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        snap = registry.snapshot()
        assert snap["counters"]["msgs"] == 3
        assert snap["counters"]["msgs.by_type{abcast}"] == 1
        assert snap["gauges"]["height"] == 4.5
        hist = snap["histograms"]["lat"]
        assert hist["count"] == 4 and hist["mean"] == 2.5 and hist["max"] == 4.0

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("lat", float(value))
        hist = registry.snapshot()["histograms"]["lat"]
        assert hist["p50"] == 50.0
        assert hist["p95"] == 95.0
        assert hist["p99"] == 99.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
    def test_histogram_summary_equals_list_summary(self, values):
        # Samples are kept as doubles in an array; the summary is the one
        # the same code gives over a list of the float objects.
        histogram = Histogram()
        for value in values:
            histogram.observe(value)
        as_list = Histogram.summary(SimpleNamespace(values=list(values)))
        assert histogram.summary() == as_list
        assert repr(histogram.summary()) == repr(as_list)

    def test_report_is_deterministic_text(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.observe("h", 1.0)
        first = registry.report(title="t")
        assert first == registry.report(title="t")
        assert first.endswith("\n")
        assert first.index("a") < first.index("b")

    def test_cached_hook_instruments_stay_lazy(self):
        # The observer resolves its per-message instruments once, but an
        # instrument must still enter the report only when first touched.
        observer = Observer(FakeClock())
        assert observer.metrics.snapshot()["counters"] == {}
        observer.on_lock_acquire("r0", "t1", "x", "X")
        observer.on_lock_acquire("r0", "t2", "x", "X")
        observer.on_lock_released(2.5)
        snap = observer.metrics.snapshot()
        assert snap["counters"] == {"lock.requests{X}": 2}
        assert list(snap["histograms"]) == ["lock.hold_time"]
        assert observer.metrics.counter("lock.requests", "X").value == 2

    def test_detected_deadlock_counts_under_observation(self):
        sim = Simulator(seed=1)
        observer = Observer(sim)
        locks = LockManager(sim, name="site", obs=observer)
        locks.acquire("t1", "x", WRITE)
        locks.acquire("t2", "y", WRITE)
        locks.acquire("t1", "y", WRITE)
        locks.acquire("t2", "x", WRITE)  # closes the cycle
        assert locks.deadlocks_detected == 1
        assert observer.metrics.snapshot()["counters"]["lock.deadlocks"] == 1

    def test_abort_reason_labels_bounded(self):
        assert abort_reason_label("transaction r0:t3: deadlock victim") == "deadlock"
        assert abort_reason_label("lock wait timeout") == "timeout"
        assert abort_reason_label("certification failed on x") == "certification"
        assert abort_reason_label("weird new failure") == "other"


# ---------------------------------------------------------------------------
# Unit: exporters
# ---------------------------------------------------------------------------

class TestExporters:
    def _tracer_with_spans(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        root = tracer.start("request", "request", "c0", trace_id="req-1",
                            use_context=False)
        msg = tracer.start("msg:ping", "message", "c0", parent_id=root,
                           type="ping", src="c0", dst="r0", msg_id=1)
        clock.now = 1.0
        tracer.finish(msg)
        handler = tracer.start("on:ping", "handler", "r0", parent_id=msg)
        tracer.finish(handler)
        tracer.finish(root)
        return tracer

    def test_chrome_trace_shape(self):
        tracer = self._tracer_with_spans()
        document = json.loads(chrome_trace(tracer.spans, node_order=["r0", "c0"]))
        events = document["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names and "thread_name" in names
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"request", "msg:ping", "on:ping"}
        # The delivered message produced a flow arrow pair.
        assert [e["ph"] for e in events if e["name"] == "flight"] == ["s", "f"]

    def test_spans_jsonl_round_trips(self):
        tracer = self._tracer_with_spans()
        lines = spans_jsonl(tracer.spans).strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert [p["span_id"] for p in parsed] == [1, 2, 3]
        assert parsed[1]["parent_id"] == 1
        assert parsed[2]["parent_id"] == 2

    def test_write_artifacts_creates_three_files(self, tmp_path):
        observer = Observer(FakeClock())
        observer.on_request_submit("req-1", "c0")
        observer.on_request_complete("req-1", True)
        paths = write_artifacts(observer, str(tmp_path / "run"))
        assert sorted(paths) == ["metrics", "spans", "trace"]
        for path in paths.values():
            assert os.path.exists(path) and os.path.getsize(path) > 0
        # The streamed files hold exactly what the string renderers return.
        spans = observer.tracer.spans
        assert Path(paths["trace"]).read_text() == chrome_trace(
            spans, process_name="metrics")
        assert Path(paths["spans"]).read_text() == spans_jsonl(spans)


# ---------------------------------------------------------------------------
# Budget: what a recorded span costs
# ---------------------------------------------------------------------------

_OBS_FILES = os.path.join("repro", "obs", "")


def _tracked_owned(tracer):
    """gc-tracked objects reachable from the tracer's state, its clock and
    every class aside.  An untracked container holds no tracked object,
    so the walk only descends into tracked ones."""
    seen = set()
    pending = [value for name, value in vars(tracer).items() if name != "_clock"]
    while pending:
        item = pending.pop()
        if id(item) in seen or not gc.is_tracked(item) or isinstance(item, type):
            continue
        seen.add(id(item))
        pending += gc.get_referents(item)
    return len(seen)


class TestSpanStoreBudget:
    """A span is a row of columns: ~100 bytes, no object the collector
    tracks.  One observed open-loop run of a few hundred requests."""

    @pytest.fixture(scope="class")
    def measured(self):
        gc.collect()
        tracemalloc.start()
        try:
            system, _, summary = run_openloop(
                RunSpec("active", replicas=3, clients=4, seed=7, observe=True),
                WorkloadSpec(read_fraction=0.5, items=16),
                ArrivalSpec(rate=2.0, duration=150.0),
            )
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        owned = sum(
            stat.size for stat in snapshot.statistics("filename")
            if _OBS_FILES in stat.traceback[0].filename
        )
        return system, summary, owned

    def test_bytes_per_span_within_budget(self, measured):
        system, summary, owned = measured
        spans = len(system.observer.tracer)
        assert summary.offered >= 200 and spans > 10_000
        assert owned / spans <= 128, f"{owned / spans:.0f} bytes a span"

    def test_message_spans_add_no_tracked_object(self, measured):
        system, _, _ = measured
        observer = system.observer
        tracer = observer.tracer
        gc.collect()
        spans, before = len(tracer), _tracked_owned(tracer)
        for sequence in range(2000):
            message = Message(src="r0", dst="r1", type="rt.data",
                              payload={"seq": sequence}, msg_id=sequence)
            observer.on_message_send(message)
            observer.on_message_deliver(message)
        gc.collect()
        assert len(tracer) == spans + 2000
        assert _tracked_owned(tracer) <= before


# ---------------------------------------------------------------------------
# Neutrality: observation never perturbs a run
# ---------------------------------------------------------------------------

class TestZeroCostWhenDisabled:
    def test_unobserved_system_builds_no_observer(self):
        system = ReplicatedSystem("eager_primary", replicas=3, seed=3)
        assert system.observer is None
        assert system.net.obs is None
        assert system.trace.obs is None
        for replica in system.replicas.values():
            assert replica.tm.obs is None
            assert replica.tm.locks.obs is None

    @pytest.mark.parametrize("technique", ["active", "eager_primary", "lazy_ue"])
    def test_observation_is_neutral(self, technique):
        results = {}
        for observe in (False, True):
            system = ReplicatedSystem(
                technique, replicas=3, seed=11, observe=observe,
                abcast="sequencer",
            )
            result = system.execute(
                [Operation.write("x", 1), Operation.read("x")]
            )
            system.settle(200.0)
            results[observe] = (
                result.committed,
                result.completed_at,
                {n: system.store_of(n).digest() for n in system.replica_names},
                len(system.trace),
            )
        assert results[False] == results[True]


# ---------------------------------------------------------------------------
# Regression: per-technique determinism, phase coverage, catalog agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("technique", TECHNIQUES)
def test_same_seed_exports_are_byte_identical(technique, runs):
    (system_a, _), (system_b, _) = runs(technique)
    chrome_a, jsonl_a, report_a = _export(system_a)
    chrome_b, jsonl_b, report_b = _export(system_b)
    assert chrome_a == chrome_b, f"{technique}: chrome trace differs across runs"
    assert jsonl_a == jsonl_b, f"{technique}: span JSONL differs across runs"
    assert report_a == report_b, f"{technique}: metrics report differs across runs"
    assert len(system_a.observer.tracer.spans) > 0


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_request_traces_contain_declared_phase_sequence(technique, runs):
    (system, driver), _ = runs(technique)
    # Read-only requests legitimately short-circuit the coordination
    # phases (served locally), so the declared sequence is checked on
    # committed *update* requests only.
    committed = [
        r for r in driver.results
        if r.committed and any(op.is_write for op in r.operations)
    ]
    assert committed, f"{technique}: no committed updates under the test workload"
    tracer = system.observer.tracer
    for result in committed:
        declared = system.info.descriptor_for(len(result.operations)).phase_names()
        observed = tracer.phase_sequence(str(result.request_id))
        assert _is_subsequence(declared, observed), (
            f"{technique} {result.request_id}: declared {declared} "
            f"not contained in observed {observed}"
        )


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_message_spans_covered_by_catalog(technique, runs, catalog):
    (system, _), _ = runs(technique)
    patterns = [
        record["type"].replace("*", WILDCARD) for record in catalog["types"]
    ]

    def covered(concrete):
        return any(pattern_matches(p, concrete) for p in patterns)

    message_spans = [
        s for s in system.observer.tracer.spans if s.category == "message"
    ]
    assert message_spans, f"{technique}: no message spans recorded"
    uncovered = set()
    for span in message_spans:
        if not covered(span.attrs["type"]):
            uncovered.add(span.attrs["type"])
        inner = span.attrs.get("inner")
        if inner is not None and not covered(inner):
            uncovered.add(inner)
    assert not uncovered, (
        f"{technique}: span message types missing from docs/messages.json: "
        f"{sorted(uncovered)}"
    )


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_every_message_span_closes(technique, runs):
    (system, _), _ = runs(technique)
    for span in system.observer.tracer.spans:
        assert span.end is not None, f"{technique}: unbounded span {span!r}"
        if span.category == "message":
            assert span.status == "ok" or span.status.startswith(("dropped:", "open")), (
                f"{technique}: unexpected message status {span.status!r}"
            )


# ---------------------------------------------------------------------------
# Golden: the exported bytes are pinned across commits, not only across runs
# ---------------------------------------------------------------------------

GOLDEN = REPO / "tests" / "data" / "obs_golden.json"


def _artifact_digests(system, technique, directory):
    """sha256 of the four files the exporters write for one observed run."""
    stem = os.path.join(str(directory), technique)
    order = system.replica_names + [c.name for c in system.clients]
    paths = write_artifacts(system.observer, stem, node_order=order,
                            title=technique)
    paths["counters"] = write_counter_track(system.observer, stem,
                                            title=technique)
    return {
        kind: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for kind, path in sorted(paths.items())
    }


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_artifacts_match_cross_commit_golden(technique, runs, tmp_path):
    """Every exported byte equals what the recording commit wrote.

    ``tests/data/obs_golden.json`` holds the sha256 of ``.trace.json``,
    ``.spans.jsonl``, ``.metrics.txt`` and ``.counters.trace.json`` for
    all ten techniques at the ``_observed_run`` settings.  A PR that
    changes an export format *on purpose* regenerates it with

        PYTHONPATH=src python tests/test_obs.py

    and says so; any other difference is a regression.
    """
    (system, _), _ = runs(technique)
    golden = json.loads(GOLDEN.read_text())
    assert _artifact_digests(system, technique, tmp_path) == golden[technique]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_observe_writes_artifacts(tmp_path, capsys):
    from repro.__main__ import main

    code = main(["observe", "active", "--seed", "1", "--requests", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    stem = tmp_path / "observe_active_seed1"
    for suffix in (".trace.json", ".spans.jsonl", ".metrics.txt"):
        path = Path(str(stem) + suffix)
        assert path.exists() and path.stat().st_size > 0, suffix
    out = capsys.readouterr().out
    assert "spans" in out and "[counters]" in out


def test_cli_observe_rejects_unknown_technique(tmp_path):
    from repro.__main__ import main

    assert main(["observe", "nope", "--out", str(tmp_path)]) == 2


if __name__ == "__main__":
    # Regenerate the cross-commit golden (see the golden test's docstring).
    with tempfile.TemporaryDirectory() as scratch:
        digests = {
            technique: _artifact_digests(_observed_run(technique)[0], technique,
                                         scratch)
            for technique in TECHNIQUES
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
