"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import Cancelled, ProcessInterrupted, SimulationError
from repro.sim import Simulator, Timeout


@pytest.fixture
def sim():
    return Simulator(seed=42)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_events_run_in_time_order(self, sim):
        seen = []
        sim.schedule(3.0, seen.append, "c")
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self, sim):
        seen = []
        for tag in "abc":
            sim.schedule(1.0, seen.append, tag)
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_cancelled_timer_does_not_fire(self, sim):
        seen = []
        timer = sim.schedule(1.0, seen.append, "x")
        timer.cancel()
        sim.run()
        assert seen == []

    def test_cancel_is_idempotent(self, sim):
        timer = sim.schedule(1.0, lambda: None)
        timer.cancel()
        timer.cancel()
        sim.run()

    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        sim.run()
        assert sim.now == 10.0

    def test_nested_scheduling_from_callback(self, sim):
        seen = []
        def outer():
            sim.schedule(2.0, seen.append, sim.now)
        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [1.0]

    def test_determinism_same_seed_same_samples(self):
        a = Simulator(seed=7)
        b = Simulator(seed=7)
        assert [a.rng.random() for _ in range(10)] == [b.rng.random() for _ in range(10)]


class TestFuture:
    def test_result_before_resolution_raises(self, sim):
        future = sim.future()
        with pytest.raises(SimulationError):
            _ = future.result

    def test_set_result(self, sim):
        future = sim.future()
        future.set_result(41)
        assert future.done and future.result == 41

    def test_double_resolve_rejected(self, sim):
        future = sim.future()
        future.set_result(1)
        with pytest.raises(SimulationError):
            future.set_result(2)

    def test_try_set_result_races(self, sim):
        future = sim.future()
        assert future.try_set_result(1) is True
        assert future.try_set_result(2) is False
        assert future.result == 1

    def test_exception_propagates(self, sim):
        future = sim.future()
        future.set_exception(ValueError("boom"))
        assert future.failed
        with pytest.raises(ValueError):
            _ = future.result

    def test_callback_after_resolution_fires_immediately(self, sim):
        future = sim.future()
        future.set_result(3)
        seen = []
        future.add_callback(lambda f: seen.append(f.result))
        assert seen == [3]


class TestProcess:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield Timeout(2.5)
            return sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == 2.5

    def test_sequential_timeouts_accumulate(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            return sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == 3.0

    def test_process_waits_on_future(self, sim):
        future = sim.future()
        def proc():
            value = yield future
            return value * 2
        handle = sim.spawn(proc())
        sim.schedule(4.0, future.set_result, 21)
        sim.run()
        assert handle.result == 42

    def test_process_joins_process(self, sim):
        def child():
            yield sim.timeout(3.0)
            return "inner"
        def parent():
            value = yield sim.spawn(child())
            return ("outer", value, sim.now)
        handle = sim.spawn(parent())
        sim.run()
        assert handle.result == ("outer", "inner", 3.0)

    def test_exception_in_process_recorded(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("bad")
        handle = sim.spawn(proc())
        sim.run()
        assert handle.failed
        assert isinstance(handle.exception, RuntimeError)

    def test_failed_future_raises_inside_waiter(self, sim):
        future = sim.future()
        def proc():
            try:
                yield future
            except ValueError:
                return "caught"
        handle = sim.spawn(proc())
        sim.schedule(1.0, future.set_exception, ValueError("x"))
        sim.run()
        assert handle.result == "caught"

    def test_interrupt_while_waiting(self, sim):
        def proc():
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupted as exc:
                return ("interrupted", exc.cause, sim.now)
        handle = sim.spawn(proc())
        sim.schedule(5.0, handle.interrupt, "reason")
        sim.run()
        assert handle.result == ("interrupted", "reason", 5.0)

    def test_interrupt_finished_process_noop(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 1
        handle = sim.spawn(proc())
        sim.run()
        handle.interrupt("late")
        assert handle.result == 1

    def test_cancel_interrupts_at_the_yield_point(self, sim):
        def proc():
            try:
                yield sim.timeout(100.0)
            except Cancelled as exc:
                return ("cancelled", exc.reason, sim.now)
        first = sim.spawn(proc(), name="worker")
        second = sim.spawn(proc(), name="worker")
        sim.schedule(5.0, first.cancel, "stop")
        sim.schedule(6.0, second.cancel)  # no reason: the process name
        sim.run()
        # The generator itself returns: the process is not failed from outside.
        assert first.result == ("cancelled", "stop", 5.0)
        assert second.result == ("cancelled", "worker", 6.0)
        assert first.cancel() is False

    def test_yielding_garbage_fails_process(self, sim):
        def proc():
            yield 42
        handle = sim.spawn(proc())
        sim.run()
        assert handle.failed
        assert isinstance(handle.exception, SimulationError)

    def test_spawn_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.spawn(lambda: None)

    def test_run_until_done(self, sim):
        def proc():
            yield sim.timeout(2.0)
            return "ok"
        handle = sim.spawn(proc())
        assert sim.run_until_done(handle) == "ok"

    def test_run_until_done_unresolvable_raises(self, sim):
        future = sim.future()
        with pytest.raises(SimulationError):
            sim.run_until_done(future)


class TestCombinators:
    def test_any_of_returns_first(self, sim):
        slow = sim.future()
        fast = sim.future()
        sim.schedule(5.0, slow.set_result, "slow")
        sim.schedule(1.0, fast.set_result, "fast")
        def proc():
            index, value = yield sim.any_of([slow, fast])
            return index, value, sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == (1, "fast", 1.0)

    def test_any_of_with_timeout_waitable(self, sim):
        never = sim.future()
        def proc():
            index, value = yield sim.any_of([never, sim.timeout(3.0, "expired")])
            return index, value
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == (1, "expired")

    def test_all_of_collects_in_order(self, sim):
        a, b = sim.future(), sim.future()
        sim.schedule(2.0, a.set_result, "a")
        sim.schedule(1.0, b.set_result, "b")
        def proc():
            values = yield sim.all_of([a, b])
            return values, sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == (["a", "b"], 2.0)

    def test_all_of_empty_resolves(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == []

    def test_all_of_fails_fast(self, sim):
        a, b = sim.future(), sim.future()
        sim.schedule(1.0, a.set_exception, ValueError("boom"))
        def proc():
            try:
                yield sim.all_of([a, b])
            except ValueError:
                return sim.now
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == 1.0


class TestRunawayGuard:
    def test_max_events_guard_trips(self, sim):
        def rearm():
            sim.schedule(0.1, rearm)
        sim.schedule(0.1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_guard_trips_in_run_until_done(self, sim):
        def rearm():
            sim.schedule(0.1, rearm)
        sim.schedule(0.1, rearm)
        with pytest.raises(SimulationError, match="exceeded 100 events"):
            sim.run_until_done(sim.future(), max_events=100)
        assert sim.events_processed == 101


class TestControl:
    def test_stop_halts_run(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]
        assert sim.pending_events >= 1

    def test_call_soon_runs_after_current_event(self, sim):
        order = []
        def now():
            sim.call_soon(order.append, "later")
            order.append("first")
        sim.schedule(1.0, now)
        sim.run()
        assert order == ["first", "later"]

    def test_pending_events_counts_queue(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2

    def test_repr_smoke(self, sim):
        assert "Simulator" in repr(sim)
        future = sim.future(label="f")
        assert "pending" in repr(future)
        def proc():
            yield sim.timeout(1.0)
        handle = sim.spawn(proc(), name="p")
        assert "alive" in repr(handle)
        sim.run()
        assert "done" in repr(handle)


class TestTimeoutValidation:
    def test_negative_timeout_rejected(self):
        with pytest.raises(SimulationError):
            Timeout(-1.0)

    def test_nan_timeout_rejected(self):
        # NaN slips through naive `delay < 0` checks (every comparison is
        # False) and would poison the heap's tuple ordering.
        with pytest.raises(SimulationError):
            Timeout(float("nan"))

    def test_nan_timeout_rejected_via_sim(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(float("nan"))


class TestHeapCompaction:
    def test_mass_cancellation_compacts_heap(self, sim):
        timers = [sim.schedule(1_000.0 + i, lambda: None) for i in range(1000)]
        assert sim.pending_events == 1000
        for timer in timers:
            timer.cancel()
        # Lazy deletion plus compaction: the dead entries must not sit in
        # the queue until their distant fire times.
        assert sim.pending_events < 100
        assert sim.dead_events <= sim.pending_events

    def test_compaction_preserves_firing_order(self, sim):
        seen = []
        keep = []
        doomed = []
        for i in range(200):
            keep.append(sim.schedule(10.0 + i, seen.append, i))
            doomed.append(sim.schedule(5_000.0, lambda: None))
        for timer in doomed:
            timer.cancel()  # triggers compaction mid-stream
        sim.run()
        assert seen == list(range(200))

    def test_cancelled_events_do_not_count_as_processed(self, sim):
        sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        dead.cancel()
        sim.run()
        assert sim.events_processed == 1

    def test_run_until_done_skips_cancelled_entries(self, sim):
        """Timer entries and a timeout-slot entry, live and dead: only
        what fired is counted and nothing dead is left behind."""
        sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        dead.cancel()
        sim.run_until_done(sim._timeout_future(3.0))
        assert sim.events_processed == 2
        assert sim.dead_events == 0 and sim.pending_events == 0


class TestTimeoutFastPath:
    def test_timeout_value_and_clock(self, sim):
        def proc():
            got = yield sim.timeout(5.0, "payload")
            return (sim.now, got)
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == (5.0, "payload")

    def test_timeout_ties_resume_in_spawn_order(self, sim):
        # The slot-based fast path must consume sequence numbers exactly
        # like a full Timer: processes timing out at the same instant
        # resume in the order they yielded.
        order = []
        def proc(tag):
            yield sim.timeout(5.0)
            order.append(tag)
        for tag in ("a", "b", "c"):
            sim.spawn(proc(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_timeout_interrupt_discards_slot(self, sim):
        def proc():
            yield sim.timeout(50.0)
        handle = sim.spawn(proc())
        sim.schedule(1.0, handle.interrupt, ProcessInterrupted("stop"))
        sim.run()
        assert handle.failed
        # The abandoned timeout slot must not resurrect the process.
        assert sim.now == 50.0 or sim.now == 1.0


class TestEmptyCombinators:
    def test_any_of_empty_raises(self, sim):
        # any_of([]) can never resolve; it used to hang the waiter forever.
        with pytest.raises(SimulationError):
            sim.any_of([])

    def test_any_of_empty_raises_inside_process(self, sim):
        def proc():
            yield sim.any_of([])
        handle = sim.spawn(proc())
        sim.run()
        assert isinstance(handle.exception, SimulationError)

    def test_all_of_empty_still_resolves(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values
        handle = sim.spawn(proc())
        sim.run()
        assert handle.result == []


class TestStopReset:
    def test_stop_is_not_sticky_across_runs(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append("first"), sim.stop()))
        sim.schedule(2.0, fired.append, "second")
        sim.run()
        assert fired == ["first"]
        # A fresh run() must clear the previous stop request and drain the
        # remaining events; it used to return immediately forever.
        sim.run()
        assert fired == ["first", "second"]

    def test_stop_before_run_does_not_wedge(self, sim):
        sim.stop()
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.run()
        assert seen == [1]

    def test_run_until_done_returns_after_the_resolving_event(self, sim):
        fired = []
        future = sim.future()
        sim.schedule(1.0, fired.append, "before")
        sim.schedule(2.0, future.set_result, "done")
        sim.schedule(2.0, fired.append, "same instant, later")
        assert sim.run_until_done(future) == "done"
        assert fired == ["before"] and sim.now == 2.0
        assert sim.events_processed == 2 and sim.pending_events == 1

    def test_someone_elses_stop_does_not_end_run_until_done(self, sim):
        future = sim.future()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, future.set_result, "done")
        assert sim.run_until_done(future) == "done"

    def test_tick_hook_fires_under_run_until_done(self, sim):
        boundaries = []
        sim.set_tick_hook(1.0, boundaries.append)
        assert sim.run_until_done(sim._timeout_future(2.5, "late")) == "late"
        assert boundaries == [1.0, 2.0]
