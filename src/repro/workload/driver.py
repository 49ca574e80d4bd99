"""Closed-loop workload driver.

Runs N client processes against a :class:`~repro.core.ReplicatedSystem`:
each submits a transaction, waits for the response, optionally thinks,
and repeats — the classic closed-loop model, which makes response time
and throughput directly comparable across techniques.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..analysis.metrics import WorkloadSummary, summarize
from ..core.operations import ResultStore
from ..core.spec import RunSpec
from ..core.system import ReplicatedSystem
from .generator import WorkloadGenerator, WorkloadSpec

__all__ = ["ClosedLoopDriver", "run_workload"]

# Resubmissions of one aborted transaction under ``retry_aborts``.
MAX_RETRIES = 20


class ClosedLoopDriver:
    """Drives every client of a system through a fixed request budget.

    Parameters
    ----------
    system:
        The replicated system under test (clients already built).
    generator:
        Source of transactions; shared across clients so the aggregate
        mix matches the spec exactly.
    requests_per_client:
        Closed-loop budget for each client.
    think_time:
        Pause between a response and the next submission.
    retry_aborts:
        Re-submit aborted transactions (fresh request id) until they
        commit, at most :data:`MAX_RETRIES` times, counting the extra
        attempts; how interactive database clients behave under
        deadlock/certification aborts.
    """

    def __init__(
        self,
        system: ReplicatedSystem,
        generator: WorkloadGenerator,
        requests_per_client: int = 20,
        think_time: float = 0.0,
        retry_aborts: bool = False,
    ) -> None:
        self.system = system
        self.generator = generator
        self.requests_per_client = requests_per_client
        self.think_time = think_time
        self.retry_aborts = retry_aborts
        self.results = ResultStore()
        # Intermediate aborted attempts under ``retry_aborts``.  These used
        # to be dropped on the floor — ``extra_attempts`` was a bare
        # counter that never reached the summary, so ``retries`` and the
        # per-attempt abort rate under-reported whenever retries happened.
        self.attempts = ResultStore()

    @property
    def extra_attempts(self) -> int:
        """Number of resubmissions performed by the driver."""
        return len(self.attempts)

    def run(self, settle: float = 0.0, max_events: int = 50_000_000) -> WorkloadSummary:
        """Run all clients to completion; returns the aggregate summary."""
        handles = [
            self.system.sim.spawn(self._client_loop(index), name=f"driver-c{index}")
            for index in range(len(self.system.clients))
        ]
        done = self.system.sim.all_of(handles)
        start = self.system.sim.now
        self.system.sim.run_until_done(done, max_events=max_events)
        duration = self.system.sim.now - start
        if settle > 0:
            self.system.settle(settle)
        return summarize(self.results, duration=duration,
                         extra_attempts=self.attempts)

    def _client_loop(self, index: int):
        client = self.system.clients[index]
        for _ in range(self.requests_per_client):
            operations = self.generator.next_transaction()
            first_submitted = self.system.sim.now
            result = yield client.submit(operations)
            attempts = 0
            while (
                self.retry_aborts
                and not result.committed
                and attempts < MAX_RETRIES
            ):
                attempts += 1
                self.attempts.append(result)
                if self.think_time > 0:
                    yield self.system.sim.timeout(self.think_time)
                result = yield client.submit(operations)
            if attempts:
                # The logical request started at the first submission, so
                # its latency must span every attempt, not just the last.
                result = replace(result, submitted_at=first_submitted)
            self.results.append(result)
            if self.think_time > 0:
                yield self.system.sim.timeout(self.think_time)


def run_workload(
    spec: RunSpec,
    workload: Optional[WorkloadSpec] = None,
    requests_per_client: int = 15,
    think_time: float = 0.0,
    retry_aborts: bool = False,
    settle: float = 300.0,
) -> tuple:
    """One-call experiment: build the system ``spec`` describes, drive the
    workload from every client, summarize.

    Returns ``(system, driver, summary)`` so callers can inspect stores,
    traces and network statistics afterwards.  The workload generator
    draws from ``spec.seed``.  With ``spec.observe`` the system carries a
    :class:`~repro.obs.Observer`; export its spans and metrics via
    :func:`repro.obs.write_artifacts`.
    """
    workload = workload if workload is not None else WorkloadSpec()
    system = ReplicatedSystem(spec)
    generator = WorkloadGenerator(workload, seed=spec.seed)
    driver = ClosedLoopDriver(
        system,
        generator,
        requests_per_client=requests_per_client,
        think_time=think_time,
        retry_aborts=retry_aborts,
    )
    summary = driver.run(settle=settle)
    return system, driver, summary
