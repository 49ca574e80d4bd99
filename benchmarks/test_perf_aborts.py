"""Performance study (Section 6) — conflicts: blocking vs. aborting.

Sweeps contention (shrinking item count concentrates the update traffic)
and contrasts the two eager update-everywhere strategies:

* distributed locking *blocks* — conflicting transactions queue on locks,
  so latency climbs with contention while aborts stay rare (only
  distributed deadlocks / timeouts);
* certification *aborts* — latency stays flat (optimistic execution) but
  the abort rate climbs with contention.

This is the classic optimistic-vs-pessimistic crossover.
"""

from conftest import format_rows, report
from repro import RunSpec
from repro.workload import WorkloadSpec, run_workload

CONTENTION = [32, 8, 2, 1]  # items: fewer items = hotter


def sweep():
    table = {}
    for items in CONTENTION:
        for name in ("eager_ue_locking", "certification"):
            spec = WorkloadSpec(items=items, read_fraction=0.0,
                                ops_per_transaction=2)
            system, driver, summary = run_workload(
                RunSpec(name, replicas=3, clients=4, seed=13, abcast="sequencer"),
                spec,
                requests_per_client=6,
                settle=500.0,
            )
            table[(name, items)] = summary
    return table


def test_perf_abort_behaviour(once):
    table = once(sweep)

    cert_aborts = [table[("certification", items)].abort_rate for items in CONTENTION]
    lock_latency = [
        table[("eager_ue_locking", items)].latency.mean for items in CONTENTION
    ]
    cert_latency = [
        table[("certification", items)].latency.mean for items in CONTENTION
    ]

    # Certification aborts grow monotonically with contention...
    assert cert_aborts[-1] > cert_aborts[0], cert_aborts
    assert cert_aborts[-1] >= 0.3, "hot spot must cause substantial aborts"
    # ...while its latency stays essentially flat (no blocking).
    assert max(cert_latency) <= min(cert_latency) * 2.5, cert_latency
    # Locking blocks: latency under the hottest setting far exceeds the
    # cold setting, and exceeds certification's.
    assert lock_latency[-1] > lock_latency[0] * 1.5, lock_latency
    assert lock_latency[-1] > cert_latency[-1]

    rows = []
    for items in CONTENTION:
        for name in ("eager_ue_locking", "certification"):
            summary = table[(name, items)]
            rows.append([
                name, str(items), f"{summary.latency.mean:.2f}",
                f"{summary.abort_rate:.2f}",
            ])
    report(
        "perf_aborts",
        "Performance study: contention — blocking (locking) vs aborting "
        "(certification)\n\n"
        + format_rows(["technique", "items", "mean latency", "abort rate"], rows)
        + "\n\nshape: locking latency climbs under contention; "
        "certification latency flat but abort rate climbs",
    )
