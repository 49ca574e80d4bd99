"""The benchmark's two tables: workloads and metrics.

Imports nothing from ``repro``: the parent (``run.py``), the child
(``child.py``), ``compare.py`` and the test all read names, units and
bounds from here, and ``BENCHMARK.json`` is :func:`manifest` written to
disk (``python benchmarks/e2e/workloads.py > BENCHMARK.json``; the test
fails when the two drift).

Every number names one of two clocks.  ``host`` is what the simulator
costs to run (noisy: report medians).  ``sim`` is what the modelled
technique would take (exact per seed: two commits compare exactly).
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Tuple

# One driver run measures RUN_SECONDS of host time, split over REPEATS
# fresh children; ``duration`` below is the simulated arrival window of
# one child at that nominal size and scales linearly with ``--seconds``.
RUN_SECONDS = 12
REPEATS = 3
# setup_s is ~0.1 s of process start and imports, the noisiest thing
# measured: each run adds this many children that stop before engine.run().
SETUP_SAMPLES = 10

# Shared by every workload.  Stated because they shape the result: with
# ConstantLatency(1.0) and zero-cost handlers, simulated latency is hop
# count plus queueing for locks and batches, not processor time.
REPLICAS = 3
CLIENT_EDGES = 4
LOGICAL_CLIENTS = 100_000
RATE = 5.0
SETTLE = 300.0
WORKLOAD_SPEC = dict(
    items=50, hot_fraction=0.1, hot_access_probability=0.5, ops_per_transaction=1
)


class Workload(NamedTuple):
    name: str
    technique: str
    read_fraction: float
    duration: float
    observe: bool
    # (action, fraction of duration, node): fractions, so a scaled run
    # keeps the crash inside the arrival window.
    faults: Tuple[Tuple[str, float, str], ...]
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "ds_abcast", "active", 0.5, 2000.0, False, (),
        "consensus ABCAST carries every request (16 msgs/request): stresses "
        "net, groupcomm and the always-on TraceLog; db does no work",
    ),
    Workload(
        "db_locking", "eager_ue_locking", 0.2, 1800.0, False, (),
        "distributed 2PL + 2PC past its knee, 80 % writes: db is the top layer, "
        "groupcomm is bypassed; the only workload with aborts (63 % commit)",
    ),
    Workload(
        "lazy_reads", "lazy_primary", 0.9, 10000.0, False, (),
        "local reads beside lazy writes, 3 msgs/request: per-request fixed "
        "cost (client edge, wire format, generator) dominates, not messaging",
    ),
    Workload(
        "ds_failover", "active", 0.5, 1700.0, False,
        (("crash", 0.30, "r0"), ("recover", 0.45, "r0")),
        "ds_abcast shape through a crash of the round-0 coordinator: round "
        "changes, failure detector, retransmission to a dead node",
    ),
    Workload(
        "ds_abcast_observed", "active", 0.5, 330.0, True, (),
        "ds_abcast with observe=True and artifacts exported in the timed "
        "region: the only workload where repro.obs works",
    ),
)


class Metric(NamedTuple):
    name: str
    unit: str
    clock: str    # "host" | "sim"
    better: str   # "higher" | "lower"
    bound: float  # end-to-end only: relative worsening that is a regression
    why: str


# Bounds are relative to the parent's median.  The driver draws another
# seed per run, so a bound also has to clear the spread *across seeds*
# (README.md, "A/A spread"); at one seed the sim metrics repeat exactly
# and compare.py reports any difference at all.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "host", "lower", 0.25,
           "child start to just before engine.run(): interpreter, import "
           "repro, ReplicatedSystem, generator, fault schedule"),
    Metric("req_per_wall_s", "req/s", "host", "higher", 0.25,
           "offered requests resolved per wall second of the timed region"),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10,
           "child ru_maxrss at the end of the timed region"),
    Metric("sim_p50", "simtime", "sim", "lower", 0.05,
           "median latency of committed requests from their arrival instant"),
    Metric("sim_p99", "simtime", "sim", "lower", 0.15,
           "99th percentile of the same (>= 1.5k committed samples each)"),
    Metric("sim_goodput", "req/simtime", "sim", "higher", 0.15,
           "committed requests per simulated time unit, window + drain"),
    Metric("committed_share", "share", "sim", "higher", 0.08,
           "committed / offered: aborts, sheds and give-ups all count "
           "against it (1 - failed_share, so it is never 0)"),
)

_LAYER_WHY = "host seconds spent in this layer's own code (traced run)"

PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(name, unit, clock, better, 0.0, why)
    for name, unit, clock, better, why in (
        # sim: kernel is 25-33 % everywhere -> req_per_wall_s on all five.
        ("sim.events", "count", "sim", "lower", "events the kernel dispatched"),
        ("sim.us_per_event", "us", "host", "lower", "untraced timed wall / events"),
        ("sim.self_s", "s", "host", "lower", _LAYER_WHY),
        ("sim.schedules", "count", "sim", "lower", "schedule_at + timeout-slot pushes"),
        ("sim.peak_pending", "count", "sim", "lower", "largest event-heap size seen at a push"),
        ("sim.dead_events_end", "count", "sim", "lower", "cancelled timers still queued at the end"),
        ("sim.tracelog_records", "count", "sim", "lower", "TraceLog records kept with observation off"),
        ("sim.tracelog_self_s", "s", "host", "lower", "self time of TraceLog.record"),
        # net: moves ds_abcast / ds_failover most, lazy_reads ~5x less.
        ("net.sent", "count", "sim", "lower", "NetworkStats.sent"),
        ("net.delivered", "count", "sim", "lower", "NetworkStats.delivered"),
        ("net.dropped", "count", "sim", "lower", "all NetworkStats.dropped_*; only ds_failover has any"),
        ("net.msgs_per_request", "count", "sim", "lower", "sent minus fd.* heartbeats, per offered request"),
        ("net.us_per_msg", "us", "host", "lower", "(send + deliver self time) / sent, traced"),
        ("net.self_s", "s", "host", "lower", _LAYER_WHY),
        ("net.send_self_s", "s", "host", "lower", "self time of Network/Node send, call, reply, after"),
        ("net.deliver_self_s", "s", "host", "lower", "self time of Network._deliver and Node dispatch"),
        # groupcomm: ds_* only; prediction no change on db_locking, lazy_reads.
        ("groupcomm.abcasts", "count", "sim", "lower", "ConsensusAtomicBroadcast.abcast calls"),
        ("groupcomm.consensus_instances", "count", "sim", "lower", "decided consensus instances"),
        ("groupcomm.consensus_rounds", "count", "sim", "lower", "rounds over all instances (> instances after a crash)"),
        ("groupcomm.batch_mean", "count", "sim", "higher", "requests per decided batch; larger cuts msgs, delays the first"),
        ("groupcomm.transmits", "count", "sim", "lower", "rt.data frames put on the wire"),
        ("groupcomm.retransmits", "count", "sim", "lower", "transmits beyond the first per frame"),
        ("groupcomm.self_s", "s", "host", "lower", _LAYER_WHY),
        # db: db_locking; prediction no change on ds_abcast.
        ("db.lock_acquires", "count", "sim", "lower", "LockManager.acquire calls"),
        ("db.lock_waits", "count", "sim", "lower", "acquires not granted at once"),
        ("db.lock_wait_sim", "simtime", "sim", "lower", "sim time between acquire() and its future resolving, summed"),
        ("db.lock_timeouts", "count", "sim", "lower", "LockManager.timeouts over all sites"),
        ("db.deadlocks", "count", "sim", "lower", "LockManager.deadlocks_detected over all sites"),
        ("db.txn_commits", "count", "sim", "higher", "TransactionManager commits + 2PC commit decisions"),
        ("db.txn_aborts", "count", "sim", "lower", "TransactionManager aborts + 2PC abort decisions"),
        ("db.commit_ratio", "share", "sim", "higher", "txn_commits / (txn_commits + txn_aborts); 1 when idle"),
        ("db.twophase_rounds", "count", "sim", "lower", "TwoPhaseCoordinator.rounds over all sites"),
        ("db.wal_appends", "count", "sim", "lower", "WriteAheadLog entries over all sites"),
        ("db.self_s", "s", "host", "lower", _LAYER_WHY),
        # failures: constant background; suspicions set the failover gap.
        ("failures.heartbeats", "count", "sim", "lower", "fd.* messages sent"),
        ("failures.suspicions", "count", "sim", "lower", "fd suspect records"),
        ("failures.wrong_suspicions", "count", "sim", "lower", "FailureDetector.wrong_suspicions over all sites"),
        ("failures.crashes", "count", "sim", "lower", "injected crashes"),
        ("failures.max_reply_gap_sim", "simtime", "sim", "lower", "longest gap between consecutive committed replies: time without service"),
        ("failures.self_s", "s", "host", "lower", _LAYER_WHY),
        # core: lazy_reads first (client edge + wire format), ds_abcast second.
        ("core.submits", "count", "sim", "lower", "ClientNode.submit calls"),
        ("core.client_retries", "count", "sim", "lower", "Result.retries summed"),
        ("core.wire_encodes", "count", "sim", "lower", "Request.as_wire calls"),
        ("core.wire_decodes", "count", "sim", "lower", "Request.from_wire calls"),
        ("core.decodes_per_request", "count", "sim", "lower", "wire_decodes / offered"),
        ("core.phase_records", "count", "sim", "lower", "PhaseTracer.record calls"),
        ("core.self_s", "s", "host", "lower", _LAYER_WHY),
        ("protocols.handler_calls", "count", "sim", "lower", "handle_request calls over all replicas"),
        ("protocols.replies", "count", "sim", "lower", "respond calls over all replicas"),
        ("protocols.replies_per_request", "count", "sim", "lower", "replies / offered: 3 on ds_*, 1 on the DB workloads"),
        ("protocols.self_s", "s", "host", "lower", _LAYER_WHY),
        # workload: lazy_reads (8 %), <= 2 % elsewhere.
        ("workload.arrivals", "count", "sim", "lower", "OpenLoopEngine._arrive calls"),
        ("workload.max_in_flight", "count", "sim", "lower", "engine.stats()['max_in_flight']"),
        ("workload.arrival_lateness_sim", "simtime", "sim", "lower", "largest (arrival instant - due instant); asserted 0"),
        ("workload.self_s", "s", "host", "lower", _LAYER_WHY),
        # obs: ds_abcast_observed only, 0 elsewhere.
        ("obs.spans", "count", "sim", "lower", "spans the observer recorded"),
        ("obs.trace_events", "count", "sim", "lower", "TraceLog events mirrored to the observer"),
        ("obs.dropped_events", "count", "sim", "lower", "TraceLog ring-buffer drops"),
        ("obs.hook_calls", "count", "sim", "lower", "Observer.on_* and context hook calls"),
        ("obs.self_s", "s", "host", "lower", _LAYER_WHY),
        ("obs.export_s", "s", "host", "lower", "write_artifacts wall time, untraced"),
        ("obs.overhead_ratio", "ratio", "host", "lower", "wall per request / same run with observe=False; budget 1.3"),
        # the harness itself: how far to trust the shares.
        ("trace.overhead_ratio", "ratio", "host", "lower", "traced / untraced timed wall"),
        ("trace.coverage", "share", "host", "higher", "sum of *_self_s / traced timed wall"),
        ("trace.unattributed_s", "s", "host", "lower", "traced timed wall outside every span"),
    )
)

# Layer of each *_self_s metric, in report order.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "groupcomm", "db", "failures", "core", "core.protocols",
    "workload", "obs",
)


def self_metric(layer: str) -> str:
    return ("protocols" if layer == "core.protocols" else layer) + ".self_s"


def layer_shares(per_layer: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the attributed self time of one traced run."""
    total = sum(per_layer[self_metric(layer)] for layer in LAYERS)
    return {layer: per_layer[self_metric(layer)] / total for layer in LAYERS}


def workload(name: str) -> Workload:
    for spec in WORKLOADS:
        if spec.name == name:
            return spec
    raise SystemExit(
        f"unknown workload {name!r}; available: {[w.name for w in WORKLOADS]}"
    )


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    def rows(metrics: Tuple[Metric, ...], bounded: bool) -> List[dict]:
        out = []
        for m in metrics:
            row = {"name": m.name, "unit": m.unit, "better": m.better}
            if bounded:
                row["bound"] = m.bound
            out.append(row)
        return out

    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": rows(END_TO_END, bounded=True),
        "per_layer": rows(PER_LAYER, bounded=False),
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
