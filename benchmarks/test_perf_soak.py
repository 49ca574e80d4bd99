"""Performance study — sustained mixed workload across every technique.

The closest thing to the paper's "different workloads" axis run at scale:
5 replicas, 4 clients, 30 transactions each (120 total), a 50/50
read/update mix over a 24-item database, one seed.  Reported per
technique: throughput, latency, abort rate, messages per transaction —
with every consistency oracle checked at the end.  This is the soak test
that catches slow corruption the single-shot benchmarks cannot.
"""

from conftest import format_rows, report
from repro import DB_TECHNIQUES, DS_TECHNIQUES, RunSpec
from repro.analysis import counter_check, messages_per_request
from repro.workload import WorkloadSpec, run_workload

SPEC = WorkloadSpec(items=24, read_fraction=0.5, ops_per_transaction=1)
STRONG = {"active", "passive", "semi_active", "semi_passive",
          "eager_primary", "eager_ue_locking", "eager_ue_abcast",
          "certification"}


def sweep():
    rows = {}
    for name in DS_TECHNIQUES + DB_TECHNIQUES:
        system, driver, summary = run_workload(
            # Soak runs generate the longest traces; bound the structured
            # log so memory stays flat (the summaries are already computed
            # from results, not the trace).
            RunSpec(name, replicas=5, clients=4, seed=101,
                    trace_max_events=200_000, abcast="sequencer"),
            SPEC, requests_per_client=30, think_time=8.0, retry_aborts=True,
            settle=600.0,
        )
        committed = [r for r in driver.results if r.committed]
        stores = {n: system.store_of(n) for n in system.live_replicas()}
        exact = (
            not counter_check(committed, stores, strict=False)
            if name in STRONG else None
        )
        rows[name] = {
            "summary": summary,
            "messages": messages_per_request(system.net.stats, summary.requests),
            "converged": system.converged(),
            "exact": exact,
            "extra_attempts": driver.extra_attempts,
        }
    return rows


def test_perf_soak(once):
    rows = once(sweep)

    for name, row in rows.items():
        assert row["summary"].requests == 120, name
        assert row["summary"].abort_rate == 0.0, (name, "driver retries aborts")
        assert row["converged"], name
        if name in STRONG:
            assert row["exact"], f"{name} corrupted counters under soak"

    table = []
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["summary"].throughput):
        summary = row["summary"]
        table.append([
            name,
            f"{summary.throughput:.3f}",
            f"{summary.latency.mean:.2f}",
            f"{summary.latency.p95:.2f}",
            f"{summary.latency.p99:.2f}",
            f"{row['messages']:.1f}",
            str(row["extra_attempts"]),
            "n/a" if row["exact"] is None else ("yes" if row["exact"] else "NO"),
        ])
    report(
        "perf_soak",
        "Performance study: 120-transaction soak, 5 replicas, 4 clients, "
        "50% reads\n(aborted transactions retried by the driver)\n\n"
        + format_rows(
            ["technique", "throughput", "mean lat", "p95 lat", "p99 lat",
             "msgs/txn", "retried aborts", "exact"],
            table,
        ),
    )
