"""Performance study (Section 6) — message overhead per technique.

Counts protocol messages (heartbeats excluded) per update transaction.
Expected shape: lazy primary is the cheapest (one log ship per
secondary); distributed locking + 2PC is the most expensive (per-item
lock round at every site plus the vote round); broadcast-based
techniques sit in between; active replication's relayed reliable
broadcast costs O(n^2) dissemination.
"""

from conftest import format_rows, report
from repro import RunSpec
from repro.analysis import messages_per_request
from repro.workload import WorkloadSpec, run_workload

TECHNIQUES = [
    "active", "passive", "semi_passive",
    "eager_primary", "eager_ue_locking", "eager_ue_abcast",
    "lazy_primary", "lazy_ue", "certification",
]

SPEC = WorkloadSpec(items=16, read_fraction=0.0, ops_per_transaction=1)


def sweep():
    rows = {}
    for name in TECHNIQUES:
        system, driver, summary = run_workload(
            RunSpec(name, replicas=3, clients=1, seed=33, abcast="sequencer"),
            SPEC,
            requests_per_client=10,
            think_time=20.0,
            settle=400.0,
        )
        rows[name] = messages_per_request(system.net.stats, summary.requests)
    return rows


def test_perf_message_overhead(once):
    rows = once(sweep)

    # Shapes from the paper's cost discussion:
    assert rows["lazy_primary"] < rows["eager_primary"], rows
    assert rows["eager_ue_locking"] > rows["eager_ue_abcast"], (
        "per-op lock rounds + 2PC must beat one broadcast"
    )
    assert rows["eager_ue_locking"] > rows["eager_primary"]
    assert rows["lazy_primary"] == min(rows.values()), (
        "lazy primary ships one log record per secondary and nothing else"
    )

    table = [
        [name, f"{rows[name]:.1f}"]
        for name in sorted(TECHNIQUES, key=lambda n: rows[n])
    ]
    report(
        "perf_messages",
        "Performance study: protocol messages per update transaction\n"
        "(3 replicas, heartbeats excluded; includes acks/retransmission frames)\n\n"
        + format_rows(["technique", "messages/txn"], table),
    )
