"""Live-run tests for the phase-resolved latency profiler (repro.profiling).

Four layers of guarantees:

* **Determinism** — the same (technique, seed, parameters) produce a
  byte-identical profile document, for every registered technique.
* **Accounting invariants** — for every request of every technique the
  phase times sum exactly to the measured response time (shares to 1.0),
  the critical path never exceeds the response window, and the
  critical-path kinds tile it exactly.
* **Catalog freshness** — the committed ``docs/phasecost.{md,json}``
  match a fresh build (``make artifacts-check``, through the same
  ``repro.artifacts.check``), and the renderers are pure functions of
  the catalog.
* **Satellites** — trace-ring overflow surfaces as a gauge in the
  metrics report (S1); error and chaos paths never leak open or
  mislabelled spans, enforced at export time (S2); span context survives
  spawned processes and the sim tick hook samples without scheduling.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import REGISTRY, Operation, ReplicatedSystem, artifacts
from repro.errors import ReplicationError, SimulationError
from repro.net.node import _with_span_context
from repro.obs import Observer, PHASES, SpanTracer, assert_no_open_spans
from repro.profiling import (
    STANDARD_LOOP,
    STANDARD_SPEC,
    build_catalog,
    profile_json,
    profile_run,
    render_catalog_json,
    render_catalog_markdown,
)
from repro.sim import Simulator

REPO = Path(__file__).resolve().parent.parent

TECHNIQUES = sorted(REGISTRY)

# A lighter experiment than the committed catalog's (4 requests/client,
# shorter settle, seed 3) — determinism and the accounting invariants do
# not depend on the run length, and the fixture drives 2 runs x 10
# techniques.
LOOP = replace(STANDARD_LOOP, requests_per_client=4, settle=300.0)


def _spec(technique, seed=3):
    return replace(STANDARD_SPEC, technique=technique, seed=seed)


@pytest.fixture(scope="module")
def profile_pairs():
    """Two same-seed profiles per technique, for determinism + invariants."""
    pairs = {}
    for name in TECHNIQUES:
        _, _, first = profile_run(_spec(name), LOOP)
        _, _, second = profile_run(_spec(name), LOOP)
        pairs[name] = (first, second)
    return pairs


@pytest.fixture(scope="module")
def catalog():
    """One catalog build at the pinned params, shared by the doc tests."""
    return build_catalog()


@pytest.fixture
def built_once(catalog, monkeypatch):
    """The registry's ``phasecost`` entry builds from the shared catalog
    (ten observed runs) instead of running them again."""
    import repro.profiling.catalog as catalog_module

    monkeypatch.setattr(catalog_module, "build_catalog", lambda: catalog)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_profile_byte_identical_same_seed(profile_pairs):
    for name, (first, second) in profile_pairs.items():
        assert profile_json(first) == profile_json(second), name


def test_profile_depends_on_seed():
    _, _, first = profile_run(_spec("eager_ue_locking"), LOOP)
    _, _, other = profile_run(_spec("eager_ue_locking", seed=4), LOOP)
    # Not merely the embedded params: the measured requests differ.
    assert first["requests"] != other["requests"]


# ---------------------------------------------------------------------------
# Accounting invariants, per technique, per request
# ---------------------------------------------------------------------------

def test_per_request_invariants(profile_pairs):
    for name, (profile, _) in profile_pairs.items():
        assert profile["requests"], name
        for request in profile["requests"]:
            rid = (name, request["request"])
            rt = request["response_time"]
            assert rt > 0, rid
            assert sum(request["phases"].values()) == pytest.approx(
                rt, abs=1e-9
            ), rid
            assert sum(request["phase_shares"].values()) == pytest.approx(
                1.0, abs=1e-9
            ), rid
            assert request["critical_path_length"] <= rt + 1e-9, rid
            assert sum(request["kinds"].values()) == pytest.approx(
                rt, abs=1e-9
            ), rid
            assert request["dominant_phase"] in PHASES, rid
            assert request["status"] in ("ok", "aborted"), rid


def test_matrix_agrees_with_requests(profile_pairs):
    for name, (profile, _) in profile_pairs.items():
        matrix = profile["matrix"]
        requests = profile["requests"]
        assert matrix["requests"] == len(requests), name
        assert matrix["response_time_total"] == pytest.approx(
            sum(r["response_time"] for r in requests)
        ), name
        assert matrix["dominant_phase"] in PHASES, name
        assert sum(
            row["share"] for row in matrix["phases"].values()
        ) == pytest.approx(1.0), name
        for phase in PHASES:
            assert matrix["phases"][phase]["messages"] == sum(
                r["messages"][phase] for r in requests
            ), (name, phase)
        # Every committed/aborted request produced a profile.
        summary = profile["summary"]
        assert len(requests) == summary["committed"] + summary["aborted"], name


def test_profile_carries_timeseries(profile_pairs):
    for name, (profile, _) in profile_pairs.items():
        series = profile["timeseries"]
        assert "ts.completions" in series, name
        assert "ts.messages" in series, name
        buckets = series["ts.completions"]["buckets"]
        total = sum(bucket["count"] for bucket in buckets.values())
        assert total == profile["summary"]["committed"], name


def test_profile_run_rejects_unknown_technique():
    with pytest.raises(ReplicationError, match="unknown technique"):
        profile_run(_spec("no_such_technique"))


# ---------------------------------------------------------------------------
# Catalog freshness and rendering
# ---------------------------------------------------------------------------

def test_phasecost_docs_are_fresh(built_once, stale_docs):
    """The committed docs/phasecost.{md,json} match a fresh build."""
    assert stale_docs("phasecost") == [], "run `make artifacts`"


def test_catalog_covers_every_technique(catalog):
    assert sorted(catalog["techniques"]) == TECHNIQUES
    for name, entry in catalog["techniques"].items():
        assert entry["matrix"]["requests"] > 0, name


def test_catalog_renderers_are_pure(catalog):
    assert render_catalog_markdown(catalog) == render_catalog_markdown(catalog)
    first = render_catalog_json(catalog)
    assert first == render_catalog_json(catalog)
    assert json.loads(first)["params"]["seed"] == catalog["params"]["seed"]


def test_check_phasecost_reports_missing_and_stale(
    catalog, built_once, tmp_path
):
    def check():
        return [
            (os.path.basename(path), state)
            for _name, path, state in artifacts.check(
                ["phasecost"], str(tmp_path), []
            )
        ]

    assert check() == [("phasecost.json", "missing"),
                       ("phasecost.md", "missing")]
    (tmp_path / "phasecost.md").write_text(render_catalog_markdown(catalog))
    (tmp_path / "phasecost.json").write_text("{}\n")
    assert check() == [("phasecost.json", "stale")]
    assert artifacts.write(["phasecost"], str(tmp_path), []) == [
        str(tmp_path / "phasecost.md"), str(tmp_path / "phasecost.json")
    ]
    assert check() == []


# ---------------------------------------------------------------------------
# CLI: python -m repro profile
# ---------------------------------------------------------------------------

def test_cli_profile_writes_deterministic_artifacts(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable, "-m", "repro", "profile", "active",
        "--seed", "3", "--requests", "4", "--out", str(tmp_path),
    ]
    result = subprocess.run(
        command, cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "dominant" in result.stdout or "RE" in result.stdout
    profile_path = tmp_path / "profile_active_seed3.json"
    counters_path = tmp_path / "profile_active_seed3.counters.trace.json"
    assert profile_path.exists() and counters_path.exists()
    profile = json.loads(profile_path.read_text())
    assert profile["technique"] == "active"
    assert profile["params"]["seed"] == 3
    json.loads(counters_path.read_text())  # valid Perfetto document
    first = profile_path.read_bytes()
    first_counters = counters_path.read_bytes()
    result = subprocess.run(
        command, cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert profile_path.read_bytes() == first
    assert counters_path.read_bytes() == first_counters


def test_cli_profile_rejects_unknown_technique(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "profile", "nope",
         "--out", str(tmp_path)],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert "unknown technique" in result.stderr


# ---------------------------------------------------------------------------
# S1: trace-ring overflow is visible in the metrics report
# ---------------------------------------------------------------------------

def run_small_workload(system, count=6):
    def loop():
        for i in range(count):
            yield system.client(0).submit([Operation.write("x", i)])
            yield system.sim.timeout(10.0)
    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)


def test_trace_overflow_surfaces_in_report():
    system = ReplicatedSystem(
        "active", replicas=3, seed=5, observe=True, trace_max_events=8,
    )
    run_small_workload(system)
    observer = system.observer
    observer.finalize()
    assert system.trace.dropped_events > 0
    snapshot = observer.metrics.snapshot()
    assert snapshot["gauges"]["trace.dropped_events"] == pytest.approx(
        float(system.trace.dropped_events)
    )
    assert "trace.dropped_events" in observer.metrics.report()


def test_unbounded_trace_reports_zero_drops():
    system = ReplicatedSystem("active", replicas=3, seed=5, observe=True)
    run_small_workload(system)
    system.observer.finalize()
    snapshot = system.observer.metrics.snapshot()
    assert snapshot["gauges"]["trace.dropped_events"] == 0.0


# ---------------------------------------------------------------------------
# S2: error paths close their spans, and exports enforce it
# ---------------------------------------------------------------------------

class Clock:
    def __init__(self, now=0.0):
        self.now = now


def test_span_contextmanager_tags_errors():
    tracer = SpanTracer(Clock())
    with pytest.raises(ValueError):
        with tracer.record_scope("work", "handle", "n0", "r1", None, (), ()) as span:
            raise ValueError("boom")
    assert tracer.get(span).end is not None
    assert tracer.get(span).status == "error:ValueError"
    assert tracer.current is None  # the context stack unwound


def test_assert_no_open_spans_raises_on_leak():
    observer = Observer(Clock())
    observer.finalize()
    assert_no_open_spans(observer)  # clean observer passes
    leaked = observer.tracer.start("zombie", "handle", "n0", trace_id="r1")
    with pytest.raises(ReplicationError, match="still open"):
        assert_no_open_spans(observer)
    assert observer.tracer.get(leaked).end is None  # it reports, it does not repair


def test_crash_closes_phase_spans_and_leaks_nothing():
    system = ReplicatedSystem("active", replicas=3, seed=11, observe=True)

    def loop():
        yield system.client(0).submit([Operation.write("x", 1)])
        system.replicas["r1"].node.crash()
        yield system.sim.timeout(50.0)
        yield system.client(0).submit([Operation.write("x", 2)])

    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    system.sim.run(until=system.sim.now + 100.0)
    observer = system.observer
    observer.finalize()
    assert_no_open_spans(observer)
    statuses = {span.status for span in observer.tracer.spans}
    assert "error:crash" in statuses  # r1's in-flight phases were closed
    assert observer.metrics.snapshot()["counters"]["nodes.crashed"] >= 1


# ---------------------------------------------------------------------------
# Span context across spawned processes
# ---------------------------------------------------------------------------

def test_with_span_context_passes_values_and_returns():
    tracer = SpanTracer(Clock())
    anchor = tracer.start("anchor", "handle", "n0", trace_id="r1")
    pushes = []

    def inner():
        pushes.append(tracer.current)
        received = yield "first"
        pushes.append(tracer.current)
        return received + 1

    wrapped = _with_span_context(tracer, anchor, inner())
    assert next(wrapped) == "first"
    assert tracer.current is None  # popped between resumptions
    with pytest.raises(StopIteration) as stop:
        wrapped.send(41)
    assert stop.value.value == 42
    assert pushes == [anchor, anchor]  # pushed during each resumption
    assert tracer.current is None


def test_with_span_context_propagates_throw():
    tracer = SpanTracer(Clock())
    anchor = tracer.start("anchor", "handle", "n0", trace_id="r1")
    seen = []

    def inner():
        try:
            yield "first"
        except KeyError:
            seen.append(tracer.current)
            yield "caught"

    wrapped = _with_span_context(tracer, anchor, inner())
    assert next(wrapped) == "first"
    assert wrapped.throw(KeyError("k")) == "caught"
    assert seen == [anchor]  # the span was current while handling the throw
    assert tracer.current is None


# ---------------------------------------------------------------------------
# The sim tick hook
# ---------------------------------------------------------------------------

def test_tick_hook_fires_at_bucket_boundaries():
    sim = Simulator(seed=1)
    fired = []
    sim.set_tick_hook(10.0, fired.append)
    for delay in (5.0, 15.0, 25.0, 34.0):
        sim.schedule(delay, lambda: None)
    sim.run()
    # Ticks fire as events carry the clock across multiples of the width;
    # the hook never schedules anything itself.
    assert fired == [10.0, 20.0, 30.0]
    assert sim.events_processed == 4


def test_tick_hook_clear_and_replace():
    sim = Simulator(seed=1)
    first, second = [], []
    sim.set_tick_hook(10.0, first.append)
    sim.schedule(12.0, lambda: None)
    sim.run()
    assert first == [10.0]
    sim.set_tick_hook(10.0, second.append)  # replace: one hook at a time
    sim.schedule(3.0, lambda: None)  # t=15: still inside the 10..20 bucket
    sim.run()
    assert first == [10.0] and second == []  # no boundary crossed yet
    sim.clear_tick_hook()
    sim.schedule(40.0, lambda: None)  # t=55: would cross 20, 30, 40, 50
    sim.run()
    assert second == []  # cleared hook never fires


def test_tick_hook_rejects_nonpositive_width():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.set_tick_hook(0.0, lambda b: None)
    with pytest.raises(SimulationError):
        sim.set_tick_hook(-1.0, lambda b: None)
