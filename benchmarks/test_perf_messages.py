"""Performance study (Section 6) — message overhead per technique.

Counts messages (heartbeats excluded) per update transaction, in two
columns: protocol messages sent directly, and the reliable transport's
frames (``rt.data`` carrying group-communication traffic, ``rt.ack``
acknowledging it).  Expected shape: lazy primary is the cheapest (one
log ship per secondary); distributed locking + 2PC is the most
expensive (per-item lock round at every site plus the vote round);
broadcast-based techniques sit in between.  Every technique runs on the
sequencer ABCAST; ``active (consensus)`` is active replication on the
consensus ABCAST, which adds a consensus instance per batch to the
dissemination.
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


RUNS = [(name, name, "sequencer") for name in TECHNIQUES] + [
    ("active (consensus)", "active", "consensus"),
]


def sweep():
    """Per row: (protocol messages, transport frames) per request."""
    rows = {}
    for row, name, abcast in RUNS:
        system, driver, summary = run_workload(
            RunSpec(name, replicas=3, clients=1, seed=33, abcast=abcast),
            SPEC,
            requests_per_client=10,
            think_time=20.0,
            settle=400.0,
        )
        stats, requests = system.net.stats, summary.requests
        protocol = messages_per_request(stats, requests, exclude_prefixes=("fd.", "rt."))
        rows[row] = (protocol, messages_per_request(stats, requests) - protocol)
    return rows


def test_perf_message_overhead(once):
    split = once(sweep)
    rows = {name: protocol + frames for name, (protocol, frames) in split.items()}

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
        [name, f"{split[name][0]:.1f}", f"{split[name][1]:.1f}", f"{rows[name]:.1f}"]
        for name in sorted(rows, key=lambda n: rows[n])
    ]
    report(
        "perf_messages",
        "Performance study: messages per update transaction\n"
        "(3 replicas, heartbeats excluded; protocol = sent directly,\n"
        "rt.* = reliable-transport data frames and acks)\n\n"
        + format_rows(["technique", "protocol/txn", "rt.*/txn", "total/txn"], table),
    )
