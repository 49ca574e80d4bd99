"""Performance study (Section 6) — scaling the number of replicas.

Sweeps the group size and reports per-technique message cost and response
time.  Expected shape: coordination-bound techniques pay linearly (or
worse) more messages per transaction as replicas are added, while their
response time stays roughly flat (rounds run in parallel); lazy primary's
response time is independent of the group size, it only ships more log
copies afterwards.
"""

from conftest import format_rows, report
from repro import RunSpec
from repro.analysis import messages_per_request
from repro.workload import WorkloadSpec, run_workload

SPEC = WorkloadSpec(items=16, read_fraction=0.0, ops_per_transaction=1)
SIZES = [2, 3, 5, 7]
# (row, technique, ABCAST): every technique on the sequencer ABCAST, and
# active replication on the consensus ABCAST too.
RUNS = [
    ("eager_primary", "eager_primary", "sequencer"),
    ("eager_ue_locking", "eager_ue_locking", "sequencer"),
    ("lazy_primary", "lazy_primary", "sequencer"),
    ("active", "active", "sequencer"),
    ("active (consensus)", "active", "consensus"),
]
TECHNIQUES = [row for row, _name, _abcast in RUNS]


def sweep():
    table = {}
    for row, name, abcast in RUNS:
        for n in SIZES:
            system, driver, summary = run_workload(
                RunSpec(name, replicas=n, clients=1, seed=5, abcast=abcast),
                SPEC,
                requests_per_client=8,
                think_time=15.0,
                settle=300.0,
            )
            table[(row, n)] = (
                summary.latency.mean,
                messages_per_request(system.net.stats, summary.requests),
            )
    return table


def test_perf_scalability(once):
    table = once(sweep)

    for name in TECHNIQUES:
        messages = [table[(name, n)][1] for n in SIZES]
        assert messages == sorted(messages), (
            f"{name}: message cost must not shrink as replicas grow: {messages}"
        )
        assert messages[-1] > messages[0], f"{name}: cost must grow with group size"
    # Locking pays the steepest growth (per-op lock round at every site
    # plus 2PC), lazy primary the shallowest (one ship per secondary).
    lock_growth = table[("eager_ue_locking", 7)][1] - table[("eager_ue_locking", 2)][1]
    lazy_growth = table[("lazy_primary", 7)][1] - table[("lazy_primary", 2)][1]
    assert lock_growth > lazy_growth
    # Lazy primary's response time does not depend on the group size.
    lazy_latencies = {round(table[("lazy_primary", n)][0], 2) for n in SIZES}
    assert len(lazy_latencies) == 1, lazy_latencies

    rows = []
    for name in TECHNIQUES:
        for n in SIZES:
            latency, msgs = table[(name, n)]
            rows.append([name, str(n), f"{latency:.2f}", f"{msgs:.1f}"])
    report(
        "perf_scalability",
        "Performance study: scaling the replica count\n\n"
        + format_rows(["technique", "replicas", "mean latency", "messages/txn"], rows)
        + "\n\nshape: message cost grows with group size; steepest for "
        "distributed locking, shallowest for lazy primary",
    )
