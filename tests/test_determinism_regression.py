"""Dynamic twin of the static determinism rules (repro.lint D1xx).

Runs the same seeded workload twice through every registered technique
and asserts the two executions are observably identical: same trace (the
source of every regenerated figure), same final stores, same client
results.  Any nondeterminism the linter's static rules cannot see —
unordered container state, leaked object identity, global RNG reached
through a helper — shows up here as a diff.
"""

import pytest

from repro import REGISTRY, RunSpec
from repro.net import UniformLatency
from repro.workload import WorkloadSpec, run_workload


def _run(technique: str, seed: int):
    spec = WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2)
    system, driver, summary = run_workload(
        RunSpec(technique, replicas=3, clients=2, seed=seed, abcast="sequencer"),
        spec,
        requests_per_client=3,
        think_time=5.0,
        settle=300.0,
    )
    trace = [
        (
            event.time,
            event.category,
            event.source,
            tuple(sorted((key, repr(value)) for key, value in event.data.items())),
        )
        for event in system.trace
    ]
    stores = {
        name: system.store_of(name).digest() for name in system.live_replicas()
    }
    results = [
        (r.request_id, r.committed, repr(r.values), r.server)
        for r in driver.results
    ]
    return trace, stores, results, (summary.requests, summary.committed,
                                    summary.aborted)


@pytest.mark.parametrize("technique", sorted(REGISTRY))
def test_same_seed_same_execution(technique):
    first = _run(technique, seed=1301)
    second = _run(technique, seed=1301)
    for label, a, b in zip(("trace", "stores", "results", "summary"),
                           first, second):
        assert a == b, f"{technique}: {label} diverged between identical seeds"


def test_different_seeds_actually_differ():
    """Guard against the comparison being vacuous (e.g. empty traces).

    With the default constant-latency network the *trace* of a failure-free
    run can be timing-identical across seeds, but the seeded workload mix
    must still show up in the stores and client results.
    """
    base = _run("active", seed=1301)
    other = _run("active", seed=1302)
    assert base != other
    assert len(base[0]) > 50


def _sampled_latency_run(seed: int):
    """A contended run whose every message latency is drawn from ``sim.rng``."""
    spec = WorkloadSpec(items=3, read_fraction=0.2, ops_per_transaction=2)
    system, driver, _summary = run_workload(
        RunSpec("eager_ue_locking", replicas=3, clients=3, seed=seed,
                latency=UniformLatency(0.5, 2.5)),
        spec,
        requests_per_client=4,
        think_time=1.0,
        settle=300.0,
    )
    results = [
        (r.request_id, r.committed, repr(r.values), r.server,
         r.submitted_at, r.completed_at)
        for r in driver.results
    ]
    stores = {
        name: system.store_of(name).digest() for name in system.live_replicas()
    }
    stats = vars(system.net.stats)
    return results, stores, stats


def test_seed_zero_draws_the_same_latencies():
    """Seed 0 is a seed like any other: ``sim.rng`` is seeded from it, not
    from the wall clock or the OS, so a run that samples its latencies
    repeats exactly."""
    first = _sampled_latency_run(seed=0)
    second = _sampled_latency_run(seed=0)
    for label, a, b in zip(("results", "stores", "net.stats"), first, second):
        assert a == b, f"{label} diverged between two runs at seed 0"
    assert first[2]["sent"] > 0 and len(first[0]) == 12
