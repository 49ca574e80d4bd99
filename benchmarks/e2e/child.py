"""One benchmark run in a fresh interpreter; prints one JSON object.

Started by ``run.py`` once per repeat so that ``setup_s`` includes the
interpreter and ``import repro``.  Builds the system for one workload,
plays the open-loop arrival process, checks the outputs and reports the
end-to-end metrics plus every per-layer count the program keeps a public
counter for.  With ``--traced`` the wrappers of ``trace.py`` go in
*before* the system is built and the report gains self times, call
counts and probe values.  Any failed output check raises: the run then
exits non-zero without a result, rather than reporting a number.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before the imports it times
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
# The checkout is run in place, never installed.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"output check failed: {message}")


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sim_digest(system, summary, latencies: list) -> str:
    """sha256 over every simulated statistic a kernel change must keep.

    Kernel event counts stay out: a faster kernel may schedule fewer
    events and still simulate the same system.
    """
    stats = system.net.stats
    digest = hashlib.sha256()
    digest.update(json.dumps([
        stats.sent, stats.delivered, stats.dropped_loss, stats.dropped_partition,
        stats.dropped_crash, stats.dropped_fault, stats.duplicated,
        sorted(stats.by_type.items()),
        summary.offered, summary.committed, summary.aborted, summary.shed,
    ]).encode())
    digest.update(repr(latencies).encode())
    for name in system.replica_names:
        digest.update(repr(system.store_of(name).values_digest()).encode())
    return digest.hexdigest()


def scan_trace_log(trace) -> dict:
    """What groupcomm and the failure layer narrate into the TraceLog."""
    last_round: dict = {}
    delivered = set()
    suspicions = crashes = 0
    for event in trace:
        category, data = event.category, event.data
        if category == "consensus":
            instance = data["instance"]
            last_round[instance] = max(last_round.get(instance, 0), data["round"])
        elif category == "abcast":
            delivered.add(data["uid"])
        elif category == "fd" and data["action"] == "suspect":
            suspicions += 1
        elif category == "fault" and data["action"] == "crash":
            crashes += 1
    instances = len(last_round)
    return {
        "groupcomm.consensus_instances": instances,
        "groupcomm.consensus_rounds": sum(r + 1 for r in last_round.values()),
        "groupcomm.batch_mean": len(delivered) / instances if instances else 0.0,
        "failures.suspicions": suspicions,
        "failures.crashes": crashes,
    }


def counter_metrics(system, engine, summary, reply_gap: float) -> dict:
    """Per-layer metrics read from the program's own public counters."""
    sim, stats, trace = system.sim, system.net.stats, system.trace
    replicas = list(system.replicas.values())
    managers = [replica.tm for replica in replicas]
    coordinators = [
        replica.protocol.coordinator for replica in replicas
        if hasattr(replica.protocol, "coordinator")
    ]
    dropped = (stats.dropped_loss + stats.dropped_partition
               + stats.dropped_crash + stats.dropped_fault)
    heartbeats = stats.messages_matching("fd.")
    commits = (sum(tm.committed_count for tm in managers)
               + sum(c.committed for c in coordinators))
    aborts = (sum(tm.aborted_count for tm in managers)
              + sum(c.aborted for c in coordinators))
    observer = system.observer
    metrics = {
        "sim.events": sim.events_processed,
        "sim.dead_events_end": sim.dead_events,
        "sim.tracelog_records": len(trace) + trace.dropped_events,
        "net.sent": stats.sent,
        "net.delivered": stats.delivered,
        "net.dropped": dropped,
        "net.msgs_per_request": (stats.sent - heartbeats) / summary.offered,
        "groupcomm.transmits": stats.by_type.get("rt.data", 0),
        "db.lock_timeouts": sum(tm.locks.timeouts for tm in managers),
        "db.deadlocks": sum(tm.locks.deadlocks_detected for tm in managers),
        "db.txn_commits": commits,
        "db.txn_aborts": aborts,
        "db.commit_ratio": commits / (commits + aborts) if commits + aborts else 1.0,
        "db.twophase_rounds": sum(c.rounds for c in coordinators),
        "db.wal_appends": sum(len(tm.wal) for tm in managers),
        "failures.heartbeats": heartbeats,
        "failures.wrong_suspicions": sum(r.detector.wrong_suspicions for r in replicas),
        "failures.max_reply_gap_sim": reply_gap,
        "core.client_retries": summary.retries,
        "workload.max_in_flight": engine.stats()["max_in_flight"],
        "obs.spans": len(observer.tracer) if observer else 0,
        "obs.trace_events": len(trace) + trace.dropped_events if observer else 0,
        "obs.dropped_events": trace.dropped_events,
    }
    metrics.update(scan_trace_log(trace))
    return metrics


def traced_metrics(tracer, offered: int, sent: int, timed_s: float) -> dict:
    """Per-layer metrics only the wrappers can give."""
    layer_self = tracer.layer_self()
    attributed = sum(layer_self.values())
    metrics = {workloads.self_metric(layer): layer_self[layer]
               for layer in workloads.LAYERS}
    send_self = tracer.self_of(
        "Network.send", "Network.broadcast", "Node.send", "Node.call",
        "Node.reply", "Node.after", "Node.spawn",
    )
    deliver_self = tracer.self_of("Network._deliver", "Node._dispatch")
    first_transmits = (tracer.calls_of("ReliableTransport.send")
                       - tracer.calls_of("ReliableTransport._deliver_local"))
    decodes = tracer.calls_of("Request.from_wire")
    replies = tracer.calls_in("core.protocols", suffix=".respond")
    metrics.update({
        "sim.schedules": tracer.calls_of("Simulator.schedule_at",
                                         "Simulator._timeout_future"),
        "sim.peak_pending": tracer.probes["sim.peak_pending"],
        "sim.tracelog_self_s": tracer.self_of("TraceLog.record"),
        "net.send_self_s": send_self,
        "net.deliver_self_s": deliver_self,
        "net.us_per_msg": 1e6 * (send_self + deliver_self) / sent,
        "groupcomm.abcasts": tracer.calls_of("ConsensusAtomicBroadcast.abcast"),
        "groupcomm.retransmits":
            tracer.calls_of("ReliableTransport._transmit") - first_transmits,
        "db.lock_acquires": tracer.calls_of("LockManager.acquire"),
        "db.lock_waits": tracer.probes["db.lock_waits"],
        "db.lock_wait_sim": tracer.probes["db.lock_wait_sim"],
        "core.submits": tracer.calls_of("ClientNode.submit"),
        "core.wire_encodes": tracer.calls_of("Request.as_wire"),
        "core.wire_decodes": decodes,
        "core.decodes_per_request": decodes / offered,
        "core.phase_records": tracer.calls_of("PhaseTracer.record"),
        "protocols.handler_calls":
            tracer.calls_in("core.protocols", suffix=".handle_request"),
        "protocols.replies": replies,
        "protocols.replies_per_request": replies / offered,
        "workload.arrivals": tracer.calls_of("OpenLoopEngine._arrive"),
        "workload.arrival_lateness_sim":
            tracer.probes["workload.arrival_lateness_sim"],
        "obs.hook_calls": tracer.calls_in("obs", prefix="Observer."),
        "trace.coverage": attributed / timed_s,
        "trace.unattributed_s": timed_s - attributed,
    })
    return metrics


def run(args: argparse.Namespace) -> dict:
    spec = workloads.workload(args.workload)
    duration = spec.duration * args.scale
    observe = spec.observe and not args.no_observe
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = None
    if args.traced:
        import trace
        tracer = trace.install()
    from repro.core.system import ReplicatedSystem
    from repro.net import ConstantLatency
    from repro.obs import export
    from repro.workload import (
        ArrivalSpec, OpenLoopEngine, WorkloadGenerator, WorkloadSpec,
    )

    system = ReplicatedSystem(
        spec.technique, replicas=workloads.REPLICAS, clients=workloads.CLIENT_EDGES,
        seed=args.seed, latency=ConstantLatency(1.0), observe=observe,
    )
    for action, fraction, node in spec.faults:
        at = getattr(system.injector, f"{action}_at")
        at(fraction * duration, node)
    generator = WorkloadGenerator(
        WorkloadSpec(read_fraction=spec.read_fraction, **workloads.WORKLOAD_SPEC),
        seed=args.seed,
    )
    engine = OpenLoopEngine(system, generator, ArrivalSpec(
        process="poisson", rate=workloads.RATE, duration=duration,
        clients=workloads.LOGICAL_CLIENTS,
    ))

    export_s = 0.0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        gc.collect()
        ready = time.perf_counter()
        setup_s = ready - (args.spawned_at or _STARTED)
        if args.setup_only:
            return {"end_to_end": {"setup_s": setup_s}}
        summary = engine.run(settle=workloads.SETTLE)
        if observe:
            export_from = time.perf_counter()
            node_order = system.replica_names + [c.name for c in system.clients]
            export.write_artifacts(
                system.observer, os.path.join(scratch, spec.name),
                node_order=node_order, title=spec.name,
            )
            export_s = time.perf_counter() - export_from
        done = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    timed_s = done - ready

    # -- output checks ------------------------------------------------------
    stats = system.net.stats
    served = engine.results
    committed = [result for result in served if result.committed]
    check(engine.in_flight == 0, f"{engine.in_flight} requests never resolved")
    check(summary.offered == summary.committed + summary.aborted + summary.shed,
          f"offered {summary.offered} != committed {summary.committed} + "
          f"aborted {summary.aborted} + shed {summary.shed}")
    check(len(committed) == summary.committed and summary.committed > 0,
          "committed results do not match the summary")
    in_fabric = (stats.sent + stats.duplicated - stats.delivered
                 - stats.dropped_loss - stats.dropped_partition
                 - stats.dropped_crash - stats.dropped_fault)
    check(0 <= in_fabric <= system.sim.pending_events,
          f"NetworkStats conservation: {in_fabric} envelopes unaccounted for, "
          f"{system.sim.pending_events} events pending")
    check(system.converged(), f"replicas diverge: {system.divergent_replicas()}")
    if observe:
        observer = system.observer
        forced = observer.metrics.gauge("spans.force_closed").value
        unanswered = sum(1 for span in observer.tracer.spans
                         if span.status == "unanswered")
        # Only the flight spans of envelopes still in the fabric (heartbeats)
        # may have needed closing at the horizon.
        check(not observer.tracer.open_spans() and forced == in_fabric
              and unanswered == 0,
              f"observer left spans open: {forced} force-closed with "
              f"{in_fabric} envelopes in flight, {unanswered} unanswered")
    # A request "fails" when the system gives it no definitive outcome (it
    # is shed or the client gives up: no server named).  A transaction the
    # protocol aborts is a definitive outcome and lowers committed_share.
    failed = sum(1 for result in served if not result.committed and not result.server)
    failed += len(engine.shed_results)

    latencies = sorted(result.latency for result in committed)
    replied_at = sorted(result.completed_at for result in committed)
    reply_gap = max(
        (later - earlier for earlier, later in zip(replied_at, replied_at[1:])),
        default=0.0,
    )
    report = {
        "workload": spec.name,
        "seed": args.seed,
        "duration": duration,
        "observe": observe,
        "traced": bool(args.traced),
        "timed_s": timed_s,
        "export_s": export_s,
        "attempted": summary.offered,
        "committed": summary.committed,
        "aborted": summary.aborted,
        "failed": failed,
        "sim_digest": sim_digest(system, summary, latencies),
        "end_to_end": {
            "setup_s": setup_s,
            "req_per_wall_s": summary.offered / timed_s,
            "peak_rss_mb": peak_rss_mb,
            "sim_p50": percentile(latencies, 0.50),
            "sim_p99": percentile(latencies, 0.99),
            "sim_goodput": summary.committed / summary.duration,
            "committed_share": summary.committed / summary.offered,
        },
        "per_layer": counter_metrics(system, engine, summary, reply_gap),
    }
    if tracer is not None:
        traced = traced_metrics(tracer, summary.offered, stats.sent, timed_s)
        check(traced["workload.arrival_lateness_sim"] == 0.0,
              f"arrivals ran {traced['workload.arrival_lateness_sim']} late")
        report["per_layer"].update(traced)
        report["spans_by_name"] = tracer.by_name()
        if args.spans:
            tracer.write_spans(
                os.path.join(OUT_DIR, f"{spec.name}.spans.jsonl"), origin=ready
            )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the workload's nominal duration")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="parent's time.perf_counter() just before the spawn")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop before engine.run(): one more setup_s sample")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", action="store_true",
                        help="with --traced: write out/<workload>.spans.jsonl")
    parser.add_argument("--no-observe", action="store_true",
                        help="run an observed workload's observe=False twin")
    print(json.dumps(run(parser.parse_args())))


if __name__ == "__main__":
    main()
