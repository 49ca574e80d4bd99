"""Performance study (Section 6) — the point of replicating at all.

Section 4 opens: "Replication in database systems is done mainly for
performance reasons.  The objective is to access data locally in order to
improve response times and eliminate the overhead of having to
communicate with other sites."

This benchmark builds a WAN: three sites, each client co-located with one
replica (0.2-unit link) and far from the others (8-unit links), running a
read-heavy workload.  The baseline is the same workload against a single
unreplicated server that two of the three clients must reach over the
WAN.  Expected shape: replication collapses read latency to the local
round-trip for every technique that serves reads locally, while the
*update* cost depends on the technique — lazy pays nothing, eager pays
WAN coordination.
"""

from conftest import format_rows, report
from repro import ReplicatedSystem
from repro.analysis import LatencyStats
from repro.net import ConstantLatency, PerLinkLatency
from repro.workload import (
    ClosedPopulation,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
)

LOCAL = 0.2
WAN = 8.0
SPEC = WorkloadSpec(items=12, read_fraction=0.8, ops_per_transaction=1)


def wan_latency(replicas, clients):
    """Each client is local to at most one distinct site.

    With fewer replicas than clients (the unreplicated baseline), the
    surplus clients have no nearby copy and must cross the WAN — which is
    the whole point of the comparison.
    """
    latency = PerLinkLatency(default=ConstantLatency(WAN))
    for i in range(min(clients, replicas)):
        latency.set_link(f"c{i}", f"r{i}", ConstantLatency(LOCAL))
    return latency


def run_one(protocol, replicas=3):
    system = ReplicatedSystem(
        protocol, replicas=replicas, clients=3, seed=51,
        latency=wan_latency(replicas, 3),
        abcast="sequencer", propagation_delay=10.0,
    )
    engine = OpenLoopEngine(
        system, WorkloadGenerator(SPEC, seed=51),
        ClosedPopulation.thinking(requests=12, think_time=5.0, retry_aborts=False),
    )
    engine.run(settle=300.0)
    reads = [r for r in engine.results if r.committed and not any(
        op.is_write for op in r.operations)]
    writes = [r for r in engine.results if r.committed and any(
        op.is_write for op in r.operations)]
    return {
        "read": LatencyStats.of(r.latency for r in reads).mean,
        "write": LatencyStats.of(r.latency for r in writes).mean,
        "reads": len(reads),
        "writes": len(writes),
    }


def sweep():
    rows = {
        name: run_one(name)
        for name in ("lazy_ue", "lazy_primary", "eager_ue_abcast", "eager_primary")
    }
    rows["unreplicated"] = run_one("lazy_primary", replicas=1)
    return rows


def test_perf_local_reads(once):
    rows = once(sweep)

    unreplicated_read = rows["unreplicated"]["read"]
    # Replication's raison d'etre: local reads beat WAN reads by ~the
    # WAN/LAN ratio for every technique that reads locally.
    for name in ("lazy_ue", "lazy_primary", "eager_ue_abcast", "eager_primary"):
        assert rows[name]["read"] < unreplicated_read / 5, (name, rows)
    # Lazy UE also keeps updates local; eager techniques pay WAN rounds.
    assert rows["lazy_ue"]["write"] < rows["eager_ue_abcast"]["write"]
    assert rows["lazy_ue"]["write"] < rows["eager_primary"]["write"]

    table = [
        [name, f"{row['read']:.2f}", f"{row['write']:.2f}",
         f"{row['reads']}/{row['writes']}"]
        for name, row in rows.items()
    ]
    report(
        "perf_local_reads",
        "Performance study: local access on a WAN "
        f"(local link {LOCAL}, WAN link {WAN}; 80% reads)\n\n"
        + format_rows(["configuration", "mean read lat", "mean write lat",
                       "reads/writes"], table)
        + "\n\nshape: replication collapses read latency to the local "
        "round-trip;\nupdate latency then depends on eager vs lazy coordination",
    )
