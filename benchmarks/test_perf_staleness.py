"""Performance study (Section 6) — the staleness window of lazy replication.

Measures, with a periodic probe, how long secondaries lag the primary as
the propagation delay grows.  Eager primary copy is the control: its
staleness window is (by construction) zero at response boundaries.
Also reports lazy update everywhere's reconciliation casualties ("which
transactions must be undone") as conflict probability rises.
"""

from conftest import format_rows, report
from repro import Operation, ReplicatedSystem, RunSpec
from repro.analysis import StalenessProbe
from repro.profiling import dominant_phase_for
from repro.workload import WorkloadSpec, run_workload

DELAYS = [5.0, 20.0, 60.0]


def staleness_of(protocol, delay):
    system = ReplicatedSystem(
        protocol, replicas=3, seed=23, observe=True,
        propagation_delay=delay,
    )
    probe = StalenessProbe(system, "x")
    probe.every(2.0, 400.0)
    results = []

    def loop():
        for i in range(8):
            result = yield system.client(0).submit([Operation.write("x", i)])
            results.append(result)
            yield system.sim.timeout(40.0)

    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    system.sim.run(until=400.0)
    dominant = dominant_phase_for(
        system.observer, (r.request_id for r in results)
    )
    return probe, dominant


def undone_at_conflict(items):
    spec = WorkloadSpec(items=items, read_fraction=0.0)
    system, driver, summary = run_workload(
        RunSpec("lazy_ue", replicas=3, clients=3, seed=29, propagation_delay=15.0),
        spec,
        requests_per_client=6,
        settle=600.0,
    )
    assert system.converged(), "lazy UE must still converge"
    return sum(system.protocol_at(n).undone_transactions for n in system.replica_names)


def sweep():
    lazy = {delay: staleness_of("lazy_primary", delay) for delay in DELAYS}
    eager, eager_dominant = staleness_of("eager_primary", 0.0)
    undone = {items: undone_at_conflict(items) for items in (32, 4, 1)}
    return lazy, (eager, eager_dominant), undone


def test_perf_staleness(once):
    lazy, (eager, eager_dominant), undone = once(sweep)

    fractions = [lazy[delay][0].stale_fraction() for delay in DELAYS]
    windows = [lazy[delay][0].max_staleness_duration() for delay in DELAYS]
    # The staleness window grows with the propagation delay.
    assert fractions == sorted(fractions), fractions
    assert windows == sorted(windows), windows
    assert fractions[-1] > 0.2
    # Eager primary copy never shows a stale window at the probe.
    assert eager.stale_fraction() <= 0.1, eager.stale_fraction()  # only in-flight 2PC skew
    # Reconciliation casualties grow with conflict probability.
    assert undone[1] >= undone[32], undone
    assert undone[1] >= 1

    rows = [
        [f"lazy_primary (delay={delay:g})",
         f"{lazy[delay][0].stale_fraction():.2f}",
         f"{lazy[delay][0].max_staleness_duration():.0f}",
         lazy[delay][1]]
        for delay in DELAYS
    ]
    rows.append(["eager_primary", f"{eager.stale_fraction():.2f}",
                 f"{eager.max_staleness_duration():.0f}", eager_dominant])
    undone_rows = [[str(items), str(count)] for items, count in sorted(undone.items())]
    report(
        "perf_staleness",
        "Performance study: weak consistency made visible\n\n"
        "staleness of secondaries (probe every 2 time units):\n"
        + format_rows(
            ["configuration", "stale fraction", "max window", "dominant phase"],
            rows,
        )
        + "\n\nlazy update everywhere: transactions undone by reconciliation "
        "vs data-set size (hotter = fewer items):\n"
        + format_rows(["items", "undone txns"], undone_rows),
    )
