"""Tests for workload generation and the closed population of the engine."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import RunSpec
from repro.workload import OpenLoopEngine, WorkloadGenerator, WorkloadSpec, run_workload


class TestWorkloadSpec:
    def test_invalid_read_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=1.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(items=0)
        with pytest.raises(ValueError):
            WorkloadSpec(ops_per_transaction=0)


class TestWorkloadGenerator:
    def test_transaction_size_matches_spec(self):
        generator = WorkloadGenerator(WorkloadSpec(ops_per_transaction=4), seed=1)
        assert len(generator.next_transaction()) == 4

    def test_read_fraction_zero_means_all_updates(self):
        generator = WorkloadGenerator(WorkloadSpec(read_fraction=0.0), seed=1)
        ops = [op for _ in range(20) for op in generator.next_transaction()]
        assert all(op.kind == "update" for op in ops)

    def test_read_fraction_one_means_all_reads(self):
        generator = WorkloadGenerator(WorkloadSpec(read_fraction=1.0), seed=1)
        ops = [op for _ in range(20) for op in generator.next_transaction()]
        assert all(op.kind == "read" for op in ops)

    def test_deterministic_given_seed(self):
        a = WorkloadGenerator(WorkloadSpec(), seed=5)
        b = WorkloadGenerator(WorkloadSpec(), seed=5)
        txa = [a.next_transaction() for _ in range(10)]
        txb = [b.next_transaction() for _ in range(10)]
        assert txa == txb

    def test_hotspot_concentrates_accesses(self):
        spec = WorkloadSpec(items=100, hot_fraction=0.02,
                            hot_access_probability=0.9)
        generator = WorkloadGenerator(spec, seed=2)
        picks = [generator.pick_item() for _ in range(500)]
        hot = [p for p in picks if p in ("item0", "item1")]
        assert len(hot) > 300

    @given(st.floats(0, 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_mix_ratio_roughly_respected(self, read_fraction, ops):
        spec = WorkloadSpec(read_fraction=read_fraction, ops_per_transaction=ops)
        generator = WorkloadGenerator(spec, seed=0)
        drawn = [op for _ in range(100) for op in generator.next_transaction()]
        reads = sum(1 for op in drawn if op.kind == "read")
        assert abs(reads / len(drawn) - read_fraction) < 0.2


class TestSpecValidation:
    # Regression: out-of-range skew knobs used to be accepted silently and
    # produced inverted skew downstream.

    def test_out_of_range_hot_fraction_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=-0.1)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=1.5)

    def test_out_of_range_hot_access_probability_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=-0.5)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=2.0)

    def test_nan_skew_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError):
            WorkloadSpec(hot_fraction=nan)
        with pytest.raises(ValueError):
            WorkloadSpec(hot_access_probability=nan)

    def test_boundary_values_accepted(self):
        WorkloadSpec(hot_fraction=1.0, hot_access_probability=1.0)


class TestHotSetRounding:
    # Regression: ``int(spec.items * spec.hot_fraction)`` truncated the
    # binary-float product, silently shrinking the hot set (0.29 * 100 is
    # 28.999... and became 28 items instead of 29).

    def test_hot_set_size_rounds_half_up(self):
        spec = WorkloadSpec(items=100, hot_fraction=0.29,
                            hot_access_probability=0.5)
        assert WorkloadGenerator(spec, seed=0).hot_set_size == 29

    def test_hot_set_share_pinned(self):
        # Under a hot probability of 1.0 every pick must land inside the
        # spec'd 29-item hot set, and all 29 items must be reachable.
        spec = WorkloadSpec(items=100, hot_fraction=0.29,
                            hot_access_probability=1.0)
        generator = WorkloadGenerator(spec, seed=1)
        picks = {generator.pick_item() for _ in range(5000)}
        assert picks == {f"item{i}" for i in range(29)}

    def test_tiny_hot_fraction_keeps_one_item(self):
        spec = WorkloadSpec(items=10, hot_fraction=0.01,
                            hot_access_probability=0.9)
        assert WorkloadGenerator(spec, seed=0).hot_set_size == 1

    def test_zero_hot_fraction_means_no_hot_set(self):
        assert WorkloadGenerator(WorkloadSpec(items=10), seed=0).hot_set_size == 0

    @given(st.integers(2, 500), st.floats(0.01, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_hot_set_share_within_one_item(self, items, fraction):
        spec = WorkloadSpec(items=items, hot_fraction=fraction,
                            hot_access_probability=0.5)
        generator = WorkloadGenerator(spec, seed=0)
        expected = items * fraction
        # A nonzero hot fraction keeps at least one hot item; above that
        # floor the size must track the exact product within half an item
        # (the truncation bug was off by up to a whole item).
        assert generator.hot_set_size >= 1
        if expected >= 1:
            assert abs(generator.hot_set_size - expected) <= 0.5


class TestDriver:
    def test_driver_completes_budget(self):
        system, driver, summary = run_workload(
            RunSpec("lazy_ue", replicas=2, clients=2, seed=1),
            WorkloadSpec(items=5),
            requests_per_client=5,
            settle=200.0,
        )
        assert summary.requests == 10
        assert len(driver.results) == 10

    def test_retry_aborts_resubmits(self):
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system, driver, summary = run_workload(
            RunSpec("certification", replicas=2, clients=3, seed=2),
            spec,
            requests_per_client=4,
            retry_aborts=True,
            settle=300.0,
        )
        # With one hot item, raw certification aborts are guaranteed; the
        # driver hides them by retrying.
        assert summary.abort_rate == 0.0
        assert driver.extra_attempts > 0

    def test_retry_attempts_reach_summary(self):
        # Regression: ``extra_attempts`` was a bare counter that never fed
        # the summary — retried aborts vanished from ``retries`` and no
        # per-attempt abort rate existed at all.
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system, driver, summary = run_workload(
            RunSpec("certification", replicas=2, clients=3, seed=2),
            spec,
            requests_per_client=4,
            retry_aborts=True,
            settle=300.0,
        )
        assert driver.extra_attempts > 0
        assert len(driver.attempts) == driver.extra_attempts
        assert summary.retries >= driver.extra_attempts
        assert summary.attempts == summary.requests + driver.extra_attempts
        # Final-result semantics are unchanged (retried-to-commit runs
        # still read as abort-free); the per-attempt view shows the
        # aborts the servers actually produced.
        assert summary.abort_rate == 0.0
        assert summary.attempt_abort_rate > 0.0
        assert summary.attempt_aborts == driver.extra_attempts

    def test_closed_clients_are_engine_records(self):
        # The closed loop runs on the open-loop engine: every physical
        # submission, resubmissions included, passes its accounting, and
        # an edge never has more than one request in flight.
        system, engine, summary = run_workload(
            RunSpec("certification", replicas=2, clients=3, seed=2),
            WorkloadSpec(items=1, read_fraction=0.0),
            requests_per_client=4,
            retry_aborts=True,
            settle=300.0,
        )
        assert isinstance(engine, OpenLoopEngine)
        stats = engine.stats()
        assert len(engine.attempts) > 0
        assert stats["submitted"] == summary.requests + len(engine.attempts)
        assert stats["submitted"] == sum(len(c.results) for c in system.clients)
        assert stats["max_in_flight"] <= len(system.clients)
        assert engine.in_flight == 0

    def test_retry_latency_spans_all_attempts(self):
        # Regression: a retried request's final Result carried the *last*
        # attempt's submission time, so its reported latency omitted every
        # earlier attempt and the think-time between them.
        spec = WorkloadSpec(items=1, read_fraction=0.0)
        system, driver, summary = run_workload(
            RunSpec("certification", replicas=2, clients=3, seed=2),
            spec,
            requests_per_client=4,
            retry_aborts=True,
            settle=300.0,
        )
        raw = {r.request_id: r for c in system.clients for r in c.results}
        spanned = [
            r for r in driver.results
            if r.submitted_at < raw[r.request_id].submitted_at
        ]
        assert spanned, "no driver result spans its earlier attempts"
        for result in spanned:
            assert result.latency > raw[result.request_id].latency

    def test_think_time_spreads_submissions(self):
        fast = run_workload(
            RunSpec("lazy_ue", replicas=2, clients=1, seed=3),
            requests_per_client=5,
            settle=0.0,
        )[2]
        slow = run_workload(
            RunSpec("lazy_ue", replicas=2, clients=1, seed=3),
            requests_per_client=5,
            think_time=50.0,
            settle=0.0,
        )[2]
        assert slow.duration > fast.duration

    def test_same_seed_same_summary(self):
        s1 = run_workload(
            RunSpec("eager_primary", replicas=3, clients=2, seed=11),
            requests_per_client=5,
            settle=100.0,
        )[2]
        s2 = run_workload(
            RunSpec("eager_primary", replicas=3, clients=2, seed=11),
            requests_per_client=5,
            settle=100.0,
        )[2]
        assert s1.row() == s2.row()
