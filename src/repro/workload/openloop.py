"""The workload engine: arrival sources over lightweight client records.

No client is a simulator process: each outstanding request is a
callback record on its reply future.  Arrivals come from one of two
sources.  An **open-loop arrival process** (:class:`ArrivalSpec`)
decides *when* requests enter, independent of how the system is doing,
and attributes each arrival to one of up to 10⁵–10⁶ **logical
clients**: offered load is an input, goodput is an output, and the
difference — queueing, shedding, aborts — is the saturation behaviour
Section 6 is about.  A **closed population** (:class:`ClosedPopulation`)
is one interactive client per edge, submitting again a pause after each
reply: response times compare directly across techniques, but offered
load collapses exactly when the system slows down (the
coordinated-omission trap).

Arrival timing draws from named :meth:`~repro.sim.Simulator.stream`
RNGs, so the arrival schedule is deterministic per seed and independent
of protocol-internal randomness: two techniques swept with the same seed
face the byte-identical offered sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, NamedTuple, Optional, Union

from ..analysis.metrics import WorkloadSummary, summarize
from ..core.operations import Result, ResultStore
from ..core.spec import RunSpec
from ..core.system import ClientNode, ReplicatedSystem
from .generator import WorkloadGenerator, WorkloadSpec

__all__ = ["ArrivalSpec", "ClosedPopulation", "OpenLoopEngine", "run_openloop",
           "run_workload"]

_PROCESSES = ("poisson", "deterministic", "diurnal")

# The diurnal process's sinusoid: its period in time units and its
# amplitude relative to ``rate``.
DIURNAL_PERIOD = 500.0
DIURNAL_AMPLITUDE = 0.8

# Resubmissions of one aborted transaction under ``retry_aborts``.
MAX_RETRIES = 20


@dataclass(frozen=True)
class ArrivalSpec:
    """Shape of an open-loop arrival process.

    ``process`` selects the inter-arrival law:

    * ``"poisson"`` — exponential gaps at ``rate`` (memoryless traffic);
    * ``"deterministic"`` — fixed gaps of ``1/rate`` (paced load tester);
    * ``"diurnal"`` — Poisson whose rate follows a sinusoid of period
      ``DIURNAL_PERIOD`` and relative amplitude ``DIURNAL_AMPLITUDE``
      around ``rate`` — a compressed day/night cycle.

    Each arrival is attributed to one of ``clients`` logical clients and
    may carry a ``deadline_budget`` (relative give-up time stamped on
    the message envelope, enforced by admission control and replicas).
    """

    process: str = "poisson"
    rate: float = 1.0
    duration: float = 1000.0
    clients: int = 100_000
    deadline_budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.process not in _PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"available: {sorted(_PROCESSES)}"
            )
        if not self.rate > 0:
            raise ValueError("rate must be > 0")
        if not self.duration > 0:
            raise ValueError("duration must be > 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.deadline_budget is not None and not self.deadline_budget > 0:
            raise ValueError("deadline_budget must be > 0 when set")

    def rate_at(self, time: float) -> float:
        """Instantaneous target rate at simulated ``time``."""
        if self.process == "diurnal":
            wave = math.sin(2 * math.pi * time / DIURNAL_PERIOD)
            return self.rate * (1.0 + DIURNAL_AMPLITUDE * wave)
        return self.rate


class ClosedPopulation(NamedTuple):
    """Each client edge submits ``requests`` transactions, one at a time.

    ``resubmit(result, resubmits)`` says whether an outcome's operations
    go again as a fresh request; ``pause(edge, resubmitting)`` is how long
    the edge waits before that resubmission, or else before its next
    request (and after its last).  A pause of 0 submits at once.
    """

    requests: int
    pause: Callable[[ClientNode, bool], float]
    resubmit: Callable[[Result, int], bool]

    @classmethod
    def thinking(cls, requests: int, think_time: float,
                 retry_aborts: bool) -> "ClosedPopulation":
        """Interactive clients that think ``think_time`` after every reply
        and, with ``retry_aborts``, resubmit an abort until it commits, at
        most :data:`MAX_RETRIES` times."""
        def resubmit(result: Result, resubmits: int) -> bool:
            return retry_aborts and not result.committed and resubmits < MAX_RETRIES
        return cls(requests, lambda _edge, _resubmitting: think_time, resubmit)


class _InFlight:
    """One outstanding request: a future callback, not a process.

    The per-client state (who submitted, when) fits in three slots,
    which is what lets a single run carry hundreds of thousands of
    logical clients.
    """

    __slots__ = ("engine", "client_id", "submitted_at")

    def __init__(self, engine: "OpenLoopEngine", client_id: int,
                 submitted_at: float) -> None:
        self.engine = engine
        self.client_id = client_id
        self.submitted_at = submitted_at

    def __call__(self, future) -> None:
        self.engine._on_done(self, future.result)


class _Turn(_InFlight):
    """A closed-population edge's current request, ``submitted_at`` its
    first attempt, and how many requests the edge has ``left``."""

    __slots__ = ("edge", "left", "operations", "resubmits")

    def __call__(self, future) -> None:
        self.engine._on_turn_done(self, future.result)


class OpenLoopEngine:
    """Submits an arrival source against a :class:`ReplicatedSystem`.

    With an :class:`ArrivalSpec` the engine draws arrival gaps from the
    ``openloop.arrivals`` stream and logical-client attribution from
    ``openloop.clients``; requests enter through the system's (physical)
    client edges round-robin by logical client id, so admission control
    and routing policies apply unchanged.  With a
    :class:`ClosedPopulation` each edge is one client, started in edge
    order at the current time.  Results split into served (``results``)
    and shed (``shed_results``) by the admission edge's ``shed:`` reason
    prefix; the aborted attempts a closed population resubmitted are
    kept in ``attempts``.
    """

    def __init__(self, system: ReplicatedSystem, generator: WorkloadGenerator,
                 arrival: Union[ArrivalSpec, ClosedPopulation]) -> None:
        self.system = system
        self.generator = generator
        self.arrival = arrival
        self._gap_rng = system.sim.stream("openloop.arrivals")
        self._client_rng = system.sim.stream("openloop.clients")
        self.results = ResultStore()
        self.shed_results = ResultStore()
        self.attempts = ResultStore()
        self.submitted = 0
        self.in_flight = 0
        self.max_in_flight = 0
        # One bit per logical client, set on its first arrival.
        self._touched = bytearray()
        self._logical_clients = 0
        # Closed-population edges that have not finished.
        self._edges_left = 0
        self._started_at = 0.0
        self._arrivals_done = False
        self._drained = None

    @property
    def extra_attempts(self) -> int:
        """Number of resubmissions a closed population made."""
        return len(self.attempts)

    # -- driving ---------------------------------------------------------------

    def run(self, settle: float = 0.0, max_events: int = 50_000_000) -> WorkloadSummary:
        """Play the arrival source to its end and drain all in-flight work."""
        sim = self.system.sim
        self._started_at = sim.now
        self._drained = sim.future(label="openloop-drained")
        if isinstance(self.arrival, ClosedPopulation):
            self._populate(self.arrival.requests)
        else:
            self._touched = bytearray((self.arrival.clients + 7) // 8)
            sim.schedule(self._next_gap(), self._arrive)
        sim.run_until_done(self._drained, max_events=max_events)
        duration = sim.now - self._started_at
        if settle > 0:
            self.system.settle(settle)
        return self.summary(duration=duration)

    def _arrive(self) -> None:
        sim = self.system.sim
        client_id = self._client_rng.randrange(self.arrival.clients)
        byte, bit = client_id >> 3, 1 << (client_id & 7)
        if not self._touched[byte] & bit:
            self._touched[byte] |= bit
            self._logical_clients += 1
        edge = self.system.clients[client_id % len(self.system.clients)]
        deadline = None
        if self.arrival.deadline_budget is not None:
            deadline = sim.now + self.arrival.deadline_budget
        record = _InFlight(self, client_id, sim.now)
        self.submitted += 1
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        if self.system.admission is None:
            self._observe("ts.offered")
        future = edge.submit(self.generator.next_transaction(), deadline=deadline)
        future.add_callback(record)
        elapsed = sim.now - self._started_at
        gap = self._next_gap()
        if elapsed + gap < self.arrival.duration:
            sim.schedule(gap, self._arrive)
        else:
            self._arrivals_done = True
            self._maybe_drained()

    def _next_gap(self) -> float:
        arrival = self.arrival
        if arrival.process == "deterministic":
            return 1.0 / arrival.rate
        # Nonhomogeneous processes approximate by drawing the exponential
        # gap at the instantaneous rate — accurate while the rate changes
        # slowly relative to the gap, which the diurnal period respects.
        rate = arrival.rate_at(self.system.sim.now - self._started_at)
        rate = max(rate, 1e-9)
        return self._gap_rng.expovariate(rate)

    def _on_done(self, record: _InFlight, result: Result) -> None:
        self.in_flight -= 1
        if (result.reason or "").startswith("shed:"):
            self.shed_results.append(result)
        else:
            self.results.append(result)
        self._maybe_drained()

    # -- the closed population -------------------------------------------------

    def _populate(self, requests: int) -> None:
        edges = self.system.clients
        self._logical_clients = self._edges_left = len(edges)
        for index, edge in enumerate(edges):
            turn = _Turn(self, index, 0.0)
            turn.edge, turn.left = edge, requests
            self.system.sim.call_soon(self._next_request, turn)
        if not edges:
            self._arrivals_done = True
            self._maybe_drained()

    def _next_request(self, turn: _Turn) -> None:
        if turn.left == 0:
            self._edges_left -= 1
            if self._edges_left == 0:
                self._arrivals_done = True
                self._maybe_drained()
            return
        turn.left -= 1
        turn.operations = self.generator.next_transaction()
        turn.submitted_at = self.system.sim.now
        turn.resubmits = 0
        self.in_flight += 1
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight
        self._submit(turn)

    def _submit(self, turn: _Turn) -> None:
        self.submitted += 1
        turn.edge.submit(turn.operations).add_callback(turn)

    def _on_turn_done(self, turn: _Turn, result: Result) -> None:
        population = self.arrival
        if population.resubmit(result, turn.resubmits):
            turn.resubmits += 1
            self.attempts.append(result)
            self._pause(population.pause(turn.edge, True), self._submit, turn)
            return
        if turn.resubmits:
            result = replace(result, submitted_at=turn.submitted_at)
        self._on_done(turn, result)
        self._pause(population.pause(turn.edge, False), self._next_request, turn)

    def _pause(self, delay: float, then: Callable, turn: _Turn) -> None:
        if delay > 0:
            self.system.sim.schedule(delay, then, turn)
        else:
            then(turn)

    # -- completion -------------------------------------------------------------

    def _maybe_drained(self) -> None:
        if self._arrivals_done and self.in_flight == 0:
            admission = self.system.admission
            if admission is None or admission.queued == 0:
                self._drained.try_set_result(None)

    def _observe(self, series: str) -> None:
        observer = self.system.observer
        if observer is not None:
            observer.metrics.sample(series, self.system.sim.now)

    # -- accounting ------------------------------------------------------------

    def summary(self, duration: Optional[float] = None) -> WorkloadSummary:
        """Aggregate served results with the edge's offered/shed counters.

        Without an admission edge every request is offered once: a
        resubmission is a further attempt of it, not another offer.
        """
        admission = self.system.admission
        offered = (admission.offered if admission is not None
                   else self.submitted - len(self.attempts))
        shed = admission.shed if admission is not None else len(self.shed_results)
        return summarize(
            self.results, duration=duration, extra_attempts=self.attempts,
            offered=offered, shed=shed,
        )

    def stats(self) -> Dict[str, Any]:
        """Engine-side accounting next to the admission snapshot."""
        row: Dict[str, Any] = {
            "submitted": self.submitted,
            "logical_clients": self._logical_clients,
            "max_in_flight": self.max_in_flight,
            "served": len(self.results),
            "shed": len(self.shed_results),
        }
        if self.system.admission is not None:
            row["admission"] = self.system.admission.snapshot()
        return row


def run_openloop(
    spec: RunSpec,
    workload: Optional[WorkloadSpec] = None,
    arrival: Optional[Union[ArrivalSpec, ClosedPopulation]] = None,
    settle: float = 300.0,
) -> tuple:
    """One-call open-loop experiment: build the system ``spec`` describes,
    play arrivals, summarize.

    Returns ``(system, engine, summary)``.  ``spec.clients`` is the number
    of *physical* client edges; the logical population lives in
    ``arrival.clients`` (a :class:`ClosedPopulation` is one client per
    edge).  The workload generator draws from ``spec.seed``.
    """
    workload = workload if workload is not None else WorkloadSpec()
    arrival = arrival if arrival is not None else ArrivalSpec()
    system = ReplicatedSystem(spec)
    generator = WorkloadGenerator(workload, seed=spec.seed)
    engine = OpenLoopEngine(system, generator, arrival)
    summary = engine.run(settle=settle)
    return system, engine, summary


def run_workload(
    spec: RunSpec,
    workload: Optional[WorkloadSpec] = None,
    requests_per_client: int = 15,
    think_time: float = 0.0,
    retry_aborts: bool = False,
    settle: float = 300.0,
) -> tuple:
    """One-call closed-loop experiment: :func:`run_openloop` with
    :meth:`ClosedPopulation.thinking` clients on every client edge.

    Returns ``(system, engine, summary)`` so callers can inspect stores,
    traces and network statistics afterwards.  With ``spec.observe`` the
    system carries a :class:`~repro.obs.Observer`; export its spans and
    metrics via :func:`repro.obs.write_artifacts`.
    """
    population = ClosedPopulation.thinking(requests_per_client, think_time, retry_aborts)
    return run_openloop(spec, workload, population, settle)
