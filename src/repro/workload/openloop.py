"""Open-loop workload engine: arrival processes over lightweight clients.

The closed-loop driver models each client as a simulator process that
waits for its previous response before submitting again — faithful to
interactive terminals, but it caps the client population at the number
of processes the run can afford, and offered load collapses exactly when
the system slows down (the coordinated-omission trap).  An open-loop
engine decouples the two: an **arrival process** decides *when* requests
enter, independent of how the system is doing, and each arrival is
attributed to one of up to 10⁵–10⁶ **logical clients** represented as
lightweight in-flight records instead of processes.  Offered load is an
input, goodput is an output, and the difference — queueing, shedding,
aborts — is the saturation behaviour Section 6 is about.

Arrival timing draws from named :meth:`~repro.sim.Simulator.stream`
RNGs, so the arrival schedule is deterministic per seed and independent
of protocol-internal randomness: two techniques swept with the same seed
face the byte-identical offered sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..analysis.metrics import WorkloadSummary, summarize
from ..core.operations import Result, ResultStore
from ..core.spec import RunSpec
from ..core.system import ReplicatedSystem
from .generator import WorkloadGenerator, WorkloadSpec

__all__ = ["ArrivalSpec", "OpenLoopEngine", "run_openloop"]

_PROCESSES = ("poisson", "deterministic", "diurnal")

# The diurnal process's sinusoid: its period in time units and its
# amplitude relative to ``rate``.
DIURNAL_PERIOD = 500.0
DIURNAL_AMPLITUDE = 0.8


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


class _InFlight:
    """One outstanding open-loop request: a future callback, not a process.

    The per-client state a closed-loop driver keeps in a generator frame
    (who submitted, when) fits in three slots here, which is what lets a
    single run carry hundreds of thousands of logical clients.
    """

    __slots__ = ("engine", "client_id", "submitted_at")

    def __init__(self, engine: "OpenLoopEngine", client_id: int,
                 submitted_at: float) -> None:
        self.engine = engine
        self.client_id = client_id
        self.submitted_at = submitted_at

    def __call__(self, future) -> None:
        self.engine._on_done(self, future.result)


class OpenLoopEngine:
    """Submits an arrival process against a :class:`ReplicatedSystem`.

    The engine draws arrival gaps from the ``openloop.arrivals`` stream
    and logical-client attribution from ``openloop.clients``; requests
    enter through the system's (physical) client edges round-robin by
    logical client id, so admission control and routing policies apply
    unchanged.  Results split into served (``results``) and shed
    (``shed_results``) by the admission edge's ``shed:`` reason prefix.
    """

    def __init__(self, system: ReplicatedSystem, generator: WorkloadGenerator,
                 arrival: ArrivalSpec) -> None:
        self.system = system
        self.generator = generator
        self.arrival = arrival
        self._gap_rng = system.sim.stream("openloop.arrivals")
        self._client_rng = system.sim.stream("openloop.clients")
        self.results = ResultStore()
        self.shed_results = ResultStore()
        self.submitted = 0
        self.in_flight = 0
        self.max_in_flight = 0
        # One bit per logical client, set on its first arrival.
        self._touched = bytearray((arrival.clients + 7) // 8)
        self._logical_clients = 0
        self._started_at = 0.0
        self._arrivals_done = False
        self._drained = None

    # -- driving ---------------------------------------------------------------

    def run(self, settle: float = 0.0, max_events: int = 50_000_000) -> WorkloadSummary:
        """Play the arrival process to the end and drain all in-flight work."""
        sim = self.system.sim
        self._started_at = sim.now
        self._drained = sim.future(label="openloop-drained")
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

    def _maybe_drained(self) -> None:
        if self._arrivals_done and self.in_flight == 0:
            queued = (
                self.system.admission.queued
                if self.system.admission is not None
                else 0
            )
            if queued == 0:
                self._drained.try_set_result(None)

    def _observe(self, series: str) -> None:
        observer = self.system.observer
        if observer is not None:
            observer.metrics.sample(series, self.system.sim.now)

    # -- accounting ------------------------------------------------------------

    def summary(self, duration: Optional[float] = None) -> WorkloadSummary:
        """Aggregate served results with the edge's offered/shed counters."""
        admission = self.system.admission
        offered = admission.offered if admission is not None else self.submitted
        shed = admission.shed if admission is not None else len(self.shed_results)
        return summarize(
            self.results, duration=duration, offered=offered, shed=shed
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
    arrival: Optional[ArrivalSpec] = None,
    settle: float = 300.0,
) -> tuple:
    """One-call open-loop experiment: build the system ``spec`` describes,
    play arrivals, summarize.

    Returns ``(system, engine, summary)``.  ``spec.clients`` is the number
    of *physical* client edges; the logical population lives in
    ``arrival.clients``.  The workload generator draws from ``spec.seed``.
    """
    workload = workload if workload is not None else WorkloadSpec()
    arrival = arrival if arrival is not None else ArrivalSpec()
    system = ReplicatedSystem(spec)
    generator = WorkloadGenerator(workload, seed=spec.seed)
    engine = OpenLoopEngine(system, generator, arrival)
    summary = engine.run(settle=settle)
    return system, engine, summary
