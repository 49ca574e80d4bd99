"""Tests for the open-loop engine and system-edge admission control."""

import gc
import json
import tracemalloc

import pytest

from repro import DB_TECHNIQUES, DS_TECHNIQUES, ReplicatedSystem, RunSpec
from repro.core.admission import (
    SHED_DEADLINE_QUEUED,
    SHED_QUEUE_FULL,
)
from repro.obs import write_artifacts
from repro.resilience import retrying_client
from repro.workload import (
    ArrivalSpec,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
    run_openloop,
)

ALL_TECHNIQUES = DS_TECHNIQUES + DB_TECHNIQUES


class TestArrivalSpec:
    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(process="pareto")

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(rate=0.0)
        with pytest.raises(ValueError):
            ArrivalSpec(rate=-1.0)

    def test_diurnal_amplitude_bounded(self):
        # The sinusoid's amplitude stays below the mean: the rate never
        # reaches zero.
        spec = ArrivalSpec(process="diurnal", rate=1.0)
        assert min(spec.rate_at(t / 10) for t in range(5000)) > 0.1

    def test_nonpositive_deadline_rejected(self):
        with pytest.raises(ValueError):
            ArrivalSpec(deadline_budget=0.0)

    def test_diurnal_rate_oscillates_around_mean(self):
        spec = ArrivalSpec(process="diurnal", rate=1.0)
        assert spec.rate_at(125.0) == pytest.approx(1.8)   # sin peak
        assert spec.rate_at(375.0) == pytest.approx(0.2)   # sin trough


class TestOpenLoopEngine:
    def test_deterministic_process_paces_arrivals(self):
        system, engine, summary = run_openloop(
            RunSpec("active", clients=4, seed=1),
            arrival=ArrivalSpec(process="deterministic", rate=0.5,
                                duration=100.0, clients=1_000),
            settle=50.0,
        )
        # Fixed gaps of 2.0 inside a 100-unit horizon: 49 arrivals (the
        # first fires after one full gap, the horizon is open-ended).
        assert engine.submitted == 49
        assert summary.requests == 49
        assert summary.offered == 49
        assert summary.shed == 0
        assert summary.committed == 49

    def test_served_plus_shed_equals_submitted(self):
        system, engine, summary = run_openloop(
            RunSpec("lazy_primary", clients=4, seed=2, admission_rate=1.0),
            arrival=ArrivalSpec(rate=3.0, duration=200.0, clients=5_000),
            settle=100.0,
        )
        assert engine.shed_results
        assert len(engine.results) + len(engine.shed_results) == engine.submitted
        assert summary.offered == engine.submitted
        assert summary.shed == len(engine.shed_results)

    def test_open_loop_offered_independent_of_technique(self):
        # The arrival schedule draws from its own named streams, so the
        # offered count must not change with protocol-internal randomness.
        arrival = ArrivalSpec(rate=0.2, duration=200.0, clients=2_000)
        offered = {
            run_openloop(
                RunSpec(name, replicas=2, clients=4, seed=4),
                arrival=arrival,
                settle=100.0,
            )[1].submitted
            for name in ("active", "certification", "lazy_primary")
        }
        assert len(offered) == 1

    @pytest.mark.parametrize("technique", ["eager_primary", "active"])
    def test_retrying_edges_drain_through_a_crash(self, technique):
        """Edges with the retrying policy behind admission control and
        per-arrival deadlines, through a crash and recovery of r0 (the
        primary under eager_primary): every arrival is accounted for and
        answered by its deadline."""
        system = ReplicatedSystem(
            technique, replicas=3, clients=0, seed=3, admission_rate=4.0,
        )
        edges = [
            retrying_client(system, index=i, request_timeout=15.0, deadline=150.0)
            for i in range(3)
        ]
        system.injector.crash_at(40.0, "r0")
        system.injector.recover_at(120.0, "r0")
        engine = OpenLoopEngine(
            system,
            WorkloadGenerator(WorkloadSpec(items=8, read_fraction=0.3), seed=3),
            ArrivalSpec(process="poisson", rate=5.5, duration=200.0, clients=50,
                        deadline_budget=100.0),
        )
        summary = engine.run(settle=400)
        assert engine.in_flight == 0
        assert summary.offered == summary.committed + summary.aborted + summary.shed
        assert summary.offered > 1000 and summary.shed > 0
        results = [r for edge in edges for r in edge.results]
        assert len(results) == summary.offered
        assert sum(r.retries for r in results) > 0, "the crash must force retries"
        assert all(r.completed_at - r.submitted_at <= 100.0 + 1e-6 for r in results)
        assert system.converged(), system.divergent_replicas()

    def test_sustains_100k_logical_clients(self):
        # Acceptance bar: one deterministic run carries a 10^5+ logical
        # client population (no per-client process) with the admission
        # edge absorbing the overload.
        system, engine, summary = run_openloop(
            RunSpec("active", clients=4, seed=11, admission_rate=1.0),
            arrival=ArrivalSpec(process="deterministic", rate=400.0,
                                duration=300.0, clients=1_000_000),
            settle=50.0,
        )
        stats = engine.stats()
        assert summary.offered == 120_000
        assert stats["logical_clients"] >= 100_000
        # Distinct ids among the 120 000 draws, as the set counted them.
        assert stats["logical_clients"] == 112_943
        snap = system.admission.snapshot()
        assert snap["offered"] == (
            snap["admitted"] + snap["shed"] + snap["queued"]
        )
        assert snap["queued"] == 0
        # The admitted stream still commits: goodput survives the overload.
        assert summary.committed > 0
        assert summary.abort_rate == 0.0


class TestSameSeedByteIdentical:
    @pytest.mark.parametrize("technique", ALL_TECHNIQUES)
    def test_summary_and_artifacts_identical(self, technique, tmp_path):
        arrival = ArrivalSpec(rate=0.15, duration=150.0, clients=2_000)

        def one(tag):
            system, engine, summary = run_openloop(
                RunSpec(technique, replicas=2, clients=4, seed=13, observe=True),
                arrival=arrival,
                settle=100.0,
            )
            stem = str(tmp_path / f"{technique}-{tag}")
            node_order = system.replica_names + [c.name for c in system.clients]
            paths = write_artifacts(system.observer, stem,
                                    node_order=node_order, title=technique)
            blobs = {
                kind: open(path, "rb").read() for kind, path in paths.items()
            }
            return json.dumps(summary.row(), sort_keys=True), blobs

        row_a, blobs_a = one("a")
        row_b, blobs_b = one("b")
        assert row_a == row_b
        assert blobs_a == blobs_b


class TestAdmissionControl:
    def test_queue_full_sheds(self):
        system, engine, summary = run_openloop(
            RunSpec("active", clients=4, seed=5, admission_rate=1.0),
            arrival=ArrivalSpec(process="deterministic", rate=10.0,
                                duration=100.0, clients=1_000),
            settle=100.0,
        )
        reasons = system.admission.shed_by_reason
        assert reasons.get(SHED_QUEUE_FULL, 0) > 0
        assert summary.shed_rate > 0.5

    def test_queued_deadline_expiry_sheds(self):
        system, engine, summary = run_openloop(
            RunSpec("active", clients=4, seed=6, admission_rate=0.05),
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=50.0, clients=1_000,
                                deadline_budget=15.0),
            settle=200.0,
        )
        reasons = system.admission.shed_by_reason
        assert reasons.get(SHED_DEADLINE_QUEUED, 0) > 0

    def test_conservation_invariant_holds(self):
        system, engine, _ = run_openloop(
            RunSpec("certification", clients=4, seed=7, admission_rate=1.0),
            arrival=ArrivalSpec(rate=4.0, duration=150.0, clients=3_000),
            settle=200.0,
        )
        snap = system.admission.snapshot()
        assert snap["offered"] == (
            snap["admitted"] + snap["shed"] + snap["queued"]
        )
        assert snap["offered"] == engine.submitted

    def test_shed_results_carry_shed_reason(self):
        system, engine, _ = run_openloop(
            RunSpec("active", clients=4, seed=8, admission_rate=1.0),
            arrival=ArrivalSpec(process="deterministic", rate=10.0,
                                duration=60.0, clients=500),
            settle=100.0,
        )
        assert engine.shed_results
        for result in engine.shed_results:
            assert not result.committed
            assert result.reason.startswith("shed:")

    def test_observer_records_edge_series(self):
        system, engine, _ = run_openloop(
            RunSpec("active", clients=4, seed=9, observe=True, admission_rate=1.0),
            arrival=ArrivalSpec(process="deterministic", rate=10.0,
                                duration=80.0, clients=500),
            settle=100.0,
        )
        series = system.observer.metrics.series_snapshot()
        assert "ts.offered" in series
        assert "ts.admitted" in series
        assert "ts.shed" in series
        assert sum(c for _, c in series["ts.offered"].counts()) == engine.submitted

    def test_rates_helper_reports_per_unit_rate(self):
        system, engine, _ = run_openloop(
            RunSpec("active", clients=4, seed=9, observe=True, admission_rate=0.2),
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=80.0, clients=500),
            settle=100.0,
        )
        series = system.observer.metrics.series_snapshot()["ts.offered"]
        for (t_rate, rate), (t_count, count) in zip(series.rates(),
                                                    series.counts()):
            assert t_rate == t_count
            assert rate == pytest.approx(count / series.width)

    def test_no_admission_means_no_gating(self):
        system, engine, summary = run_openloop(
            RunSpec("active", clients=4, seed=10),
            arrival=ArrivalSpec(process="deterministic", rate=1.0,
                                duration=60.0, clients=500),
            settle=100.0,
        )
        assert system.admission is None
        assert summary.offered == summary.requests
        assert summary.shed == 0


def _result_stores(system, engine):
    return ([(engine, "results"), (engine, "shed_results")]
            + [(client, "results") for client in system.clients])


def _tracked_objects_owned(stores):
    """gc-tracked objects reachable from the stores, classes excluded."""
    seen = set()
    todo = list(stores)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        todo.extend(gc.get_referents(obj))
    return len(seen)


def test_finished_requests_are_columns_the_collector_does_not_walk():
    """lazy_primary at rate 5.0 for 600, seed 7: 2 884 requests.

    A finished request is kept twice, by its client and by the engine.
    Measured with one-frame tracemalloc as the bytes that dropping every
    results store frees, a list of ``Result`` objects owned 441.7 bytes a
    completed request on CPython 3.11; the columns must own at most half
    of that.  More requests add no object the collector tracks.
    """
    tracemalloc.start(1)
    try:
        system, engine, summary = run_openloop(
            RunSpec("lazy_primary", clients=4, seed=7),
            arrival=ArrivalSpec(process="poisson", rate=5.0, duration=600.0),
            settle=50.0,
        )
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for owner, name in _result_stores(system, engine):
            setattr(owner, name, type(getattr(owner, name))())
        gc.collect()
        owned = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert summary.committed == 2884
    assert owned / summary.committed <= 441.7 / 2

    # The stores are empty now: fill them with a first run, then check
    # that 1 000 more completed requests leave as many tracked objects.
    def stores():
        return [getattr(owner, name) for owner, name in _result_stores(system, engine)]

    generator = WorkloadGenerator(WorkloadSpec(), seed=8)
    first = OpenLoopEngine(system, generator, ArrivalSpec(rate=5.0, duration=400.0))
    first.results, first.shed_results = engine.results, engine.shed_results
    first.run(settle=50.0)
    gc.collect()
    tracked = _tracked_objects_owned(stores())
    more = OpenLoopEngine(system, generator, ArrivalSpec(rate=5.0, duration=200.0))
    more.results, more.shed_results = engine.results, engine.shed_results
    more.run(settle=50.0)
    assert more.submitted >= 1000
    assert len(engine.results) == first.submitted + more.submitted
    gc.collect()
    assert _tracked_objects_owned(stores()) <= tracked
