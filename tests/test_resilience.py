"""The resilient client edge and the chaos campaign engine.

Covers the robustness layer bottom-up: named simulator streams (the
determinism substrate), the retry policy envelope, the circuit-breaker
state machine, the call timeout-guard cancellation, the resilient client's
outcome taxonomy, and the campaign engine's verdicts and determinism.
The full 5x10 campaign matrix runs under ``make chaos``; these tests pin
the mechanics it is built from.
"""

import dataclasses
import random

import pytest

from repro import Operation, ReplicatedSystem, RunSpec
from repro.analysis import counter_check
from repro.core.protocols import REGISTRY
from repro.errors import NetworkError
from repro.net import ConstantLatency, Network, Node
from repro.resilience import (
    CAMPAIGNS,
    ChaosCampaign,
    CircuitBreaker,
    FaultAction,
    backoff,
    retrying_client,
    run_campaign,
)
from repro.sim import Simulator
from repro.workload import (
    ClosedPopulation,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
)


# ---------------------------------------------------------------------------
# Named streams: the determinism substrate under retry jitter and faults
# ---------------------------------------------------------------------------

class TestNamedStreams:
    def test_same_seed_same_name_same_draws(self):
        a = Simulator(seed=42).stream("resilience.rc0")
        b = Simulator(seed=42).stream("resilience.rc0")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_are_cached_per_name(self):
        sim = Simulator(seed=1)
        assert sim.stream("x") is sim.stream("x")
        assert sim.stream("x") is not sim.stream("y")

    def test_stream_draws_do_not_perturb_main_rng(self):
        plain = Simulator(seed=7)
        mixed = Simulator(seed=7)
        for _ in range(50):
            mixed.stream("failures.injector").random()
        assert [plain.rng.random() for _ in range(10)] == [
            mixed.rng.random() for _ in range(10)
        ]

    def test_distinct_names_give_independent_sequences(self):
        sim = Simulator(seed=3)
        a = [sim.stream("a").random() for _ in range(5)]
        b = [sim.stream("b").random() for _ in range(5)]
        assert a != b


# ---------------------------------------------------------------------------
# Retry schedule: a pure function of (attempt, rng), bounded envelope
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        # Jitter only ever shortens a backoff, to at most half: each
        # attempt stays inside [raw / 2, raw], raw doubling from 5 to 60.
        rng = random.Random(0)
        for attempt, raw in zip(range(1, 8), (5.0, 10.0, 20.0, 40.0, 60.0, 60.0, 60.0)):
            assert raw / 2 <= backoff(attempt, rng) <= raw

    def test_jitter_stays_inside_envelope(self):
        rng = random.Random(1)
        draws = [backoff(5, rng) for _ in range(200)]
        assert all(30.0 <= draw <= 60.0 for draw in draws)
        assert len(set(draws)) == len(draws), "jitter desynchronizes retries"

    def test_same_stream_same_schedule(self):
        a = [backoff(n, random.Random(9)) for n in range(1, 8)]
        b = [backoff(n, random.Random(9)) for n in range(1, 8)]
        assert a == b

# ---------------------------------------------------------------------------
# Circuit breaker: closed -> open -> half-open -> closed
# ---------------------------------------------------------------------------

def advance(sim, delay):
    sim.run(until=sim.now + delay)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_refuses(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=3, reset_timeout=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()

    def test_half_open_admits_exactly_one_probe(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        advance(sim, 10.0)
        assert breaker.allow()           # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()       # second request while probe in flight

    def test_probe_success_closes_probe_failure_reopens(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure()
        advance(sim, 10.0)
        assert breaker.allow()
        breaker.record_failure()         # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.reopens_in() == pytest.approx(10.0)
        advance(sim, 10.0)
        assert breaker.allow()
        breaker.record_success()         # probe succeeded
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_success_resets_consecutive_failures(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=3, reset_timeout=60.0)
        for _ in range(2):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_transitions_are_recorded_for_evidence(self):
        sim = Simulator(seed=0)
        breaker = CircuitBreaker(sim, failure_threshold=1, reset_timeout=5.0)
        breaker.record_failure()
        advance(sim, 5.0)
        breaker.allow()
        breaker.record_success()
        assert [state for _, state in breaker.transitions] == [
            "open", "half_open", "closed"
        ]


# ---------------------------------------------------------------------------
# Call timeout guard: no dead timers queuing behind resolved calls
# ---------------------------------------------------------------------------

class TestCallTimeoutGuard:
    def _pair(self):
        sim = Simulator(seed=0)
        net = Network(sim, latency=ConstantLatency(1.0))
        a, b = Node(sim, net, "a"), Node(sim, net, "b")
        return sim, a, b

    def test_reply_cancels_the_guard_timer(self):
        sim, a, b = self._pair()
        b.on("ping", lambda msg: b.reply(msg, ok=True))
        future = a.call("b", "ping", timeout=500.0)
        sim.run(until=10.0)
        assert future.done and future.result["ok"]
        # The 500-unit guard was cancelled at reply time and now sits in
        # the queue as a dead event (discarded without firing when the run
        # reaches it) instead of keeping the clock hostage until t=500.
        assert sim.dead_events >= 1
        sim.run()
        assert sim.now < 500.0

    def test_abandoned_call_cancels_guard_and_pending_entry(self):
        sim, a, b = self._pair()
        b.on("ping", lambda msg: None)   # never replies
        future = a.call("b", "ping", timeout=500.0)
        advance(sim, 5.0)
        assert not future.done
        assert future.cancel("caller abandoned the retry attempt")
        # Cleanup ran: the reply-correlation entry is gone and the guard
        # timer is dead, so a retrying caller leaks nothing per attempt.
        assert not a._pending_calls
        assert sim.dead_events >= 1


# ---------------------------------------------------------------------------
# Fault injector: schedule-time validation, deterministic random schedules
# ---------------------------------------------------------------------------

class TestInjectorValidation:
    def _system(self, seed=0):
        return ReplicatedSystem("active", replicas=3, clients=0, seed=seed)

    def test_unknown_node_rejected_at_schedule_time(self):
        system = self._system()
        with pytest.raises(NetworkError):
            system.injector.crash_at(10.0, "r9")
        with pytest.raises(NetworkError):
            system.injector.partition_at(10.0, ["r0"], ["r1", "typo"])
        with pytest.raises(NetworkError):
            system.injector.drop_at(10.0, "nope", 0.5)

    def test_fault_values_validated_at_schedule_time(self):
        system = self._system()
        with pytest.raises(ValueError):
            system.injector.fault_at(5.0, "r0", "explode", 1.0)
        with pytest.raises(ValueError):
            system.injector.drop_at(5.0, "r0", 1.0)      # must be < 1
        with pytest.raises(ValueError):
            system.injector.slow_at(5.0, "r0", 0.5)      # must be >= 1

    def test_random_crashes_deterministic_per_seed(self):
        schedules = []
        for _ in range(2):
            system = self._system(seed=13)
            schedules.append(
                system.injector.random_crashes(
                    ["r0", "r1", "r2"], 2, (10.0, 100.0)
                )
            )
        assert schedules[0] == schedules[1]
        assert len(schedules[0]) == 2

    def test_random_crashes_do_not_perturb_workload_rng(self):
        plain = self._system(seed=13)
        chaotic = self._system(seed=13)
        chaotic.injector.random_crashes(["r0", "r1"], 1, (10.0, 50.0))
        assert [plain.sim.rng.random() for _ in range(5)] == [
            chaotic.sim.rng.random() for _ in range(5)
        ]


# ---------------------------------------------------------------------------
# Resilient client: outcome taxonomy and exactly-once retries
# ---------------------------------------------------------------------------

class TestResilientClient:
    def test_clean_run_commits_without_retries(self):
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=1)
        edge = retrying_client(system, index=0)
        future = edge.submit(Operation.update("x", "add", 1))
        result = system.sim.run_until_done(future)
        assert result.committed and result.retries == 0
        system.settle(300)
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 1

    @pytest.mark.parametrize("technique", sorted(REGISTRY))
    def test_fault_free_run_is_the_blocking_run(self, technique):
        """Nothing fails, so nothing may differ: same verdicts, values and
        timings, same stores, and not one message more than the blocking
        policy sends."""

        def run(retrying):
            system = ReplicatedSystem(
                technique, replicas=3, clients=0 if retrying else 2, seed=5
            )
            if retrying:
                for index in range(2):
                    retrying_client(system, index=index)
            generator = WorkloadGenerator(
                WorkloadSpec(items=6, read_fraction=0.3), seed=5
            )
            population = ClosedPopulation.thinking(
                requests=10, think_time=3.0, retry_aborts=False
            )
            OpenLoopEngine(system, generator, population).run(settle=300)
            verdicts = [
                (r.committed, r.reason, r.values, r.submitted_at,
                 r.completed_at, r.server, r.retries)
                for client in system.clients for r in client.results
            ]
            stores = [system.store_of(n).digest() for n in system.replica_names]
            return verdicts, stores, dict(system.net.stats.by_type)

        blocking, retrying = run(False), run(True)
        assert len(blocking[0]) == 20 and any(v[0] for v in blocking[0])
        assert retrying == blocking

    def test_retryable_classification(self):
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=1)
        edge = retrying_client(system, index=0).retry
        assert edge._retryable("not primary (primary is r1)")
        assert edge._retryable("deadline exceeded at server")
        assert not edge._retryable("lock timeout")
        assert not edge._retryable("certification conflict on ['x']")

    def test_deadline_budget_yields_indeterminate(self):
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=2)
        edge = retrying_client(
            system, index=0, request_timeout=20.0, deadline=120.0
        )
        # Cut the client off from every replica before it sends.
        system.injector.partition_at(
            1.0, [edge.name], list(system.replica_names)
        )

        def go():
            yield system.sim.timeout(5.0)
            return (yield edge.submit(Operation.update("x", "add", 1)))

        handle = system.sim.spawn(go())
        result = system.sim.run_until_done(handle)
        assert not result.committed
        assert result.reason == "deadline exceeded"
        # The budget is honoured: the edge gave up at its deadline.
        assert result.completed_at - result.submitted_at == pytest.approx(
            120.0, abs=1.0
        )

    def test_retries_reuse_the_same_request_id(self):
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=3)
        edge = retrying_client(system, index=0, request_timeout=15.0)
        # The first attempt goes silent by construction — the client is
        # cut off for longer than one request_timeout — and the retries
        # then face 60% loss everywhere.
        system.injector.partition_at(0.0, [edge.name], list(system.replica_names))
        system.injector.heal_at(16.0)
        for replica in system.replica_names:
            system.injector.drop_at(0.0, replica, 0.6, duration=80.0)
        future = edge.submit(Operation.update("x", "add", 1))
        result = system.sim.run_until_done(future)
        assert result.committed
        assert result.retries > 0, "the scenario must actually provoke retries"
        system.settle(300)
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        assert not counter_check([result], stores, strict=False)

    def test_abort_between_attempts_keeps_the_scheduled_resend(self):
        """A tainted abort that lands during a backoff asks for the resend
        that is already scheduled: it neither counts as another retry nor
        pushes the resend out by a longer backoff."""
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=1)
        edge = retrying_client(system, index=0, request_timeout=10.0)
        system.injector.partition_at(0.0, [edge.name], list(system.replica_names))
        system.injector.heal_at(10.5)
        future = edge.submit(Operation.update("x", "add", 1))
        (request_id,) = edge._pending

        def late_abort():  # from the attempt that went silent at t=10
            system.net.send("r0", edge.name, "client.response", payload=dict(
                request_id=request_id, committed=False, values=[],
                reason="lock timeout", server="r0",
            ))

        system.sim.schedule_at(10.6, late_abort)
        result = system.sim.run_until_done(future)
        assert result.committed and result.retries == 1
        assert system.net.stats.by_type["client.request"] == 6
        assert result.completed_at < 10.0 + 5.0 + 7.0  # one backoff, one round


# ---------------------------------------------------------------------------
# Campaign engine: composition, verdicts, determinism
# ---------------------------------------------------------------------------

class TestCampaignEngine:
    def test_at_least_four_composed_campaigns_ship(self):
        assert len(CAMPAIGNS) >= 4
        for campaign in CAMPAIGNS.values():
            assert campaign.actions, campaign.name
            assert campaign.horizon() > 0.0

    def test_schedule_validates_nodes_immediately(self):
        system = ReplicatedSystem("active", replicas=3, clients=0, seed=0)
        bogus = ChaosCampaign(
            name="bogus", description="",
            actions=(FaultAction("crash", at=10.0, node="r9"),),
        )
        with pytest.raises(NetworkError):
            bogus.schedule(system.injector)

    def test_strong_cell_passes_its_guarantee(self):
        report = run_campaign(
            RunSpec("active", clients=2), CAMPAIGNS["group_loss_under_load"]
        )
        assert report.passed, report.summary()
        assert report.consistency == "strong"
        assert report.indeterminate == 0 and not report.violations
        assert report.lost_updates == 0

    def test_strong_cell_that_breaks_its_guarantee_fails_with_violations(self):
        report = run_campaign(
            RunSpec("eager_primary", clients=2), CAMPAIGNS["primary_crash_mid_2pc"],
            deadline=8.0, request_timeout=5.0,
        )
        assert not report.passed and report.indeterminate == 1
        assert report.violations == ["indeterminate outcomes: 1"]
        assert report.summary().startswith("FAIL")

    def test_lazy_cell_converges_after_heal(self):
        report = run_campaign(
            RunSpec("lazy_ue", clients=2), CAMPAIGNS["partition_during_view_change"]
        )
        assert report.passed, report.summary()
        assert report.consistency != "strong"
        assert report.converged
        # Lost unshipped commits are the lazy price: a number, not a violation.
        assert report.lost_updates == 4 and not report.violations
        assert "violations" not in report.summary()

    def test_same_seed_same_report(self):
        cells = [
            run_campaign(
                RunSpec("eager_primary", clients=2, seed=0),
                CAMPAIGNS["primary_crash_mid_2pc"],
            )
            for _ in range(2)
        ]
        assert dataclasses.asdict(cells[0]) == dataclasses.asdict(cells[1])
