"""Profile runner: one observed run → one deterministic profile document.

The profile is the measured answer to "where does this technique's
response time go": per-request critical paths and phase attributions
(:mod:`repro.obs.critpath`) aggregated into the technique's phase cost
matrix, the run's windowed time series, and enough run metadata to
reproduce it.  Byte-deterministic for a given (technique, seed,
parameters) — the regression tests compare two runs' JSON verbatim.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Tuple

from ..analysis import messages_per_request
from ..core.spec import RunSpec
from ..obs import phase_matrix, request_profile
from ..workload import WorkloadSpec, run_workload

__all__ = [
    "ClosedLoop",
    "STANDARD_SPEC",
    "STANDARD_LOOP",
    "profile_run",
    "profiles_for",
    "matrix_for",
    "dominant_phase_for",
    "profile_json",
    "write_profile",
]


@dataclass(frozen=True)
class ClosedLoop:
    """A closed-loop workload shape, run by the workload engine's closed
    population: each client edge submits ``requests_per_client``
    transactions from ``workload``, thinking ``think_time`` after each
    reply; then the run settles for ``settle``."""

    workload: WorkloadSpec
    requests_per_client: int
    think_time: float
    settle: float

    def run(self, spec: RunSpec) -> Tuple[Any, Any, Any]:
        """Drive the system ``spec`` describes: ``(system, engine, summary)``."""
        return run_workload(
            spec, self.workload, requests_per_client=self.requests_per_client,
            think_time=self.think_time, settle=self.settle,
        )


# The standard experiment behind ``python -m repro run|compare|observe|
# profile`` and the phase cost catalog, with any technique for ``active``.
STANDARD_SPEC = RunSpec("active", clients=2, seed=7, abcast="sequencer")
STANDARD_LOOP = ClosedLoop(
    WorkloadSpec(items=8, read_fraction=0.0),
    requests_per_client=10, think_time=10.0, settle=500.0,
)


def profiles_for(observer: Any, request_ids: Iterable[str]) -> List[Dict]:
    """Per-request profiles for ``request_ids``, in sorted id order.

    Finalizes the observer (idempotent) so every span is bounded before
    the walk; requests whose root span never materialised (none, in a
    healthy run) are skipped rather than fabricated.
    """
    observer.finalize()
    spans = list(observer.tracer.spans)  # built once, scanned per request
    out = []
    for request_id in sorted(str(r) for r in request_ids):
        profile = request_profile(spans, request_id)
        if profile is not None:
            out.append(profile)
    return out


def matrix_for(observer: Any, request_ids: Iterable[str]) -> Dict:
    """The phase cost matrix over ``request_ids`` (see ``phase_matrix``)."""
    return phase_matrix(profiles_for(observer, request_ids))


def dominant_phase_for(observer: Any, request_ids: Iterable[str]) -> str:
    """The phase carrying the most summed response time (benchmark column)."""
    return matrix_for(observer, request_ids)["dominant_phase"]


def profile_run(spec: RunSpec, loop: ClosedLoop = STANDARD_LOOP) -> Tuple[Any, Any, Dict]:
    """Drive one observed run of ``spec`` and build its profile document.

    Returns ``(system, engine, profile)`` so callers can keep digging
    into the observer; the profile dict alone is what the exporters
    serialise.
    """
    system, engine, summary = loop.run(replace(spec, observe=True))
    observer = system.observer
    profiles = profiles_for(observer, (r.request_id for r in engine.results))
    info = system.info
    profile = {
        "technique": spec.technique,
        "title": info.title,
        "figure": info.figure,
        "phase_row": " ".join(info.descriptor.phase_names()),
        "consistency": info.consistency,
        "params": {
            "seed": spec.seed,
            "replicas": spec.replicas,
            "clients": spec.clients,
            "requests_per_client": loop.requests_per_client,
            "think_time": loop.think_time,
            "settle": loop.settle,
        },
        "summary": {
            "requests": summary.requests,
            "committed": summary.committed,
            "aborted": summary.aborted,
            "messages_per_request": round(
                messages_per_request(system.net.stats, summary.requests), 6
            ),
        },
        "matrix": phase_matrix(profiles),
        "requests": profiles,
        "timeseries": {
            name: series.summary()
            for name, series in observer.metrics.series_snapshot().items()
        },
    }
    return system, engine, profile


def profile_json(profile: Dict) -> str:
    """Canonical byte-stable serialisation of a profile document."""
    return json.dumps(profile, sort_keys=True, separators=(",", ":")) + "\n"


def write_profile(profile: Dict, path: str) -> str:
    """Write ``profile`` as canonical JSON; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(profile_json(profile))
    return path
