"""Kernel & network hot-path microbenchmarks — the perf trajectory seed.

Measures the raw cost of the discrete-event kernel and the network
fabric under workloads shaped like the Section 6 performance study:

* ``timer_churn`` — events/sec through the bare event loop under the
  RPC-guard pattern (arm a far-future timer, do a short wait, cancel
  the guard).  This is exactly the load ``Node.call(timeout=...)`` puts
  on the heap, and the one lazy-deletion compaction targets.
* ``rpc`` — messages/sec through ``Node.call``/``Node.reply`` round
  trips with a timeout guard on every call.
* ``broadcast`` — messages/sec through ``Network.broadcast`` fan-out
  with a nested payload, across partition/heal churn.  Only tests and
  this file call ``Network.broadcast``: protocols send to a group
  through ``ReliableTransport.send_to_group``, one ``Network.send`` per
  member with the payload passed by reference.  ``broadcast`` deep-copies
  the payload per destination, so this figure measures that copy, not a
  path any replication technique takes.
* ``soak`` — events/sec and messages/sec of the real soak workload
  (same spec as ``benchmarks/test_perf_soak.py``) for one DS and one DB
  technique: kernel + protocols + the workload engine's closed
  population, end to end.
* ``record`` — the ``soak_active`` run with ``observe=True``, timed end
  to end: ``spans``, ``wall_s`` and ``record_ratio``, that wall over the
  unobserved ``soak_active`` run made in the same repeat (the recording
  half of the observation budget).
* ``export`` — ``write_artifacts`` of the ``soak_active`` run recorded
  with ``observe=True``, the export alone: ``us_per_span``.  ``record``
  and ``export`` have no pre-optimization baseline, so no speedup.

``python benchmarks/perf_kernel.py --json BENCH_kernel.json`` (or
``make bench-json``) appends one row to the trajectory file: the
measured figures, the speedup per workload against the recorded
pre-optimization baseline (``benchmarks/kernel_baseline.json``, copied
into the file once) and ``calibration_s``, the host's speed when the row
was taken (:func:`bench_e2e_row.calibration_s`), so that rows from
different hosts and days compare.  Earlier rows are never rewritten.
``--record-baseline`` rewrites the baseline file instead — only done
once, on the commit *before* a round of kernel work, so every later run
has a fixed reference point.

Wall-clock timing lives here, outside ``src/repro`` — the library
itself must stay free of real time, so a seed fixes every run; the simulated
executions these benchmarks time are fully deterministic, only their
duration varies by machine.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import sys
import tempfile
import time
from typing import Any, Callable, Dict, Optional

if __name__ == "__main__":  # direct script run: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_e2e_row import calibration_s
from repro import RunSpec
from repro.net import Network, Node
from repro.net.latency import ConstantLatency
from repro.obs import write_artifacts
from repro.sim import Simulator
from repro.workload import WorkloadSpec, run_workload

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "kernel_baseline.json")

SOAK_SPEC = WorkloadSpec(items=24, read_fraction=0.5, ops_per_transaction=1)
SOAK_TECHNIQUES = ("active", "eager_ue_locking")


def _noop() -> None:
    return None


# -- workloads ---------------------------------------------------------------


def bench_timer_churn(procs: int = 32, iters: int = 4000,
                      guard_delay: float = 50_000.0) -> Dict[str, float]:
    """Event-loop throughput under timer arm/cancel churn.

    Every iteration mirrors one guarded RPC: schedule a far-future
    timeout guard, wait a short simulated delay, cancel the guard.  The
    cancelled guards are dead heap entries until compaction (or, before
    it existed, until their fire time)."""
    sim = Simulator(seed=7)

    def churn():
        for _ in range(iters):
            guard = sim.schedule(guard_delay, _noop)
            yield sim.timeout(1.0)
            guard.cancel()

    for index in range(procs):
        sim.spawn(churn(), name=f"churn-{index}")
    start = time.perf_counter()
    sim.run(until=iters / 2.0)
    mid_pending = sim.pending_events  # dead-entry bloat shows up here
    sim.run()
    wall = time.perf_counter() - start
    return {
        "events": sim.events_processed,
        "wall_s": round(wall, 4),
        "events_per_sec": round(sim.events_processed / wall, 1),
        "mid_run_pending": mid_pending,
    }


class _EchoServer(Node):
    def __init__(self, sim: Simulator, network: Network, name: str) -> None:
        super().__init__(sim, network, name)
        self.on("req", self._on_req)

    def _on_req(self, message) -> None:
        self.reply(message, ack=message["seq"])


def bench_rpc(clients: int = 8, servers: int = 4, calls: int = 2000,
              call_timeout: float = 400.0) -> Dict[str, float]:
    """Request/reply throughput with a timeout guard on every call."""
    sim = Simulator(seed=11)
    net = Network(sim, latency=ConstantLatency(1.0))
    for index in range(servers):
        _EchoServer(sim, net, f"s{index}")

    def client(node: Node) -> Any:
        for seq in range(calls):
            yield node.call(f"s{seq % servers}", "req",
                            timeout=call_timeout, seq=seq)

    for index in range(clients):
        node = Node(sim, net, f"c{index}")
        node.spawn(client(node))
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    expected = clients * calls * 2  # one data + one reply per call
    assert net.stats.delivered == expected, (net.stats.delivered, expected)
    return {
        "messages": net.stats.delivered,
        "events": sim.events_processed,
        "wall_s": round(wall, 4),
        "messages_per_sec": round(net.stats.delivered / wall, 1),
        "events_per_sec": round(sim.events_processed / wall, 1),
    }


def bench_broadcast(fanout: int = 40, rounds: int = 400) -> Dict[str, float]:
    """Broadcast fan-out with a nested payload and partition churn."""
    sim = Simulator(seed=13)
    net = Network(sim, latency=ConstantLatency(1.0))
    hub = Node(sim, net, "hub")
    sinks = []
    for index in range(fanout):
        node = Node(sim, net, f"r{index}")
        node.on("state", lambda message: None)
        sinks.append(node.name)
    half = ["hub"] + sinks[: fanout // 2]
    payload = {"vector": {name: 0 for name in sinks[:8]},
               "body": "x" * 64, "round": 0}

    def driver():
        for round_no in range(rounds):
            if round_no % 50 == 25:
                net.partition(half)
            elif round_no % 50 == 0:
                net.heal()
            payload["round"] = round_no
            net.broadcast("hub", sinks, "state", payload=payload)
            yield sim.timeout(1.0)

    hub.spawn(driver())
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return {
        "messages": net.stats.sent,
        "delivered": net.stats.delivered,
        "events": sim.events_processed,
        "wall_s": round(wall, 4),
        "messages_per_sec": round(net.stats.sent / wall, 1),
        "events_per_sec": round(sim.events_processed / wall, 1),
    }


def _soak(technique: str, observe: bool = False) -> Any:
    system, driver, summary = run_workload(
        RunSpec(technique, replicas=5, clients=4, seed=101,
                trace_max_events=200_000, abcast="sequencer", observe=observe),
        SOAK_SPEC, requests_per_client=30, think_time=8.0, retry_aborts=True,
        settle=600.0,
    )
    assert summary.requests == 120, summary.requests
    return system


def bench_soak(technique: str) -> Dict[str, float]:
    """The real Section 6 soak row for one technique, timed end to end."""
    start = time.perf_counter()
    system = _soak(technique)
    wall = time.perf_counter() - start
    events = system.sim.events_processed
    messages = system.net.stats.sent
    return {
        "events": events,
        "messages": messages,
        "wall_s": round(wall, 4),
        "events_per_sec": round(events / wall, 1),
        "messages_per_sec": round(messages / wall, 1),
    }


def bench_record() -> Dict[str, float]:
    """The observed ``soak_active`` run against the unobserved one.

    Both runs are made here, one after the other, so the ratio compares
    two walls taken on the same host in the same moment.
    """
    start = time.perf_counter()
    _soak("active")
    unobserved = time.perf_counter() - start
    # The observed run is the one ``export`` writes out: recorded afresh
    # here and kept, so ``export`` need not make one more.
    _observed_soak.cache_clear()
    start = time.perf_counter()
    system = _observed_soak()
    wall = time.perf_counter() - start
    return {
        "spans": len(system.observer.tracer),
        "wall_s": round(wall, 4),
        "record_ratio": round(wall / unobserved, 3),
    }


@functools.lru_cache(maxsize=1)
def _observed_soak() -> Any:
    """The observed ``soak_active`` system, kept for the life of the
    process (or until the next ``record`` repeat), so that each repeat of
    ``export`` costs one export and not one more run."""
    return _soak("active", observe=True)


def bench_export() -> Dict[str, float]:
    """``write_artifacts`` of one observed ``soak_active`` run, timed alone.

    Only the export is timed, not the run that recorded the spans: that
    run is made once and exported again at every repeat.  The end-to-end
    ``ds_abcast_observed`` workload times both together.
    """
    system = _observed_soak()
    spans = len(system.observer.tracer)
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        write_artifacts(system.observer, os.path.join(directory, "soak_active"),
                        node_order=system.replica_names, title="soak_active")
        wall = time.perf_counter() - start
    return {
        "spans": spans,
        "wall_s": round(wall, 4),
        "us_per_span": round(1e6 * wall / spans, 3),
    }


WORKLOADS: Dict[str, Callable[[], Dict[str, float]]] = {
    "timer_churn": bench_timer_churn,
    "rpc": bench_rpc,
    "broadcast": bench_broadcast,
}
for _technique in SOAK_TECHNIQUES:
    WORKLOADS[f"soak_{_technique}"] = (
        lambda technique=_technique: bench_soak(technique)
    )
WORKLOADS["record"] = bench_record
WORKLOADS["export"] = bench_export


# -- harness -----------------------------------------------------------------


def run_benchmarks(repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Run every workload ``repeats`` times; keep the fastest wall time.

    Event counts (span counts, for the export) are asserted identical
    across repeats — the simulated executions are deterministic, only
    wall time moves.
    """
    results: Dict[str, Dict[str, float]] = {}
    for name, workload in WORKLOADS.items():
        best: Optional[Dict[str, float]] = None
        for _ in range(repeats):
            # Collect between samples so one workload's garbage (e.g. the
            # churn bench's heap) is not paid for by the next sample.
            gc.collect()
            sample = workload()
            if best is not None:
                count = "events" if "events" in sample else "spans"
                assert sample[count] == best[count], name
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
        assert best is not None
        results[name] = best
    return results


def load_baseline() -> Optional[Dict[str, Any]]:
    if not os.path.exists(BASELINE_PATH):
        return None
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def trajectory(results: Dict[str, Dict[str, float]],
               baseline: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine measured figures with the recorded baseline into one doc."""
    doc: Dict[str, Any] = {
        "unit": "per wall-clock second, best of N repeats",
        "python": platform.python_version(),
        "workloads": results,
        "events_per_sec": results["timer_churn"]["events_per_sec"],
        "messages_per_sec": results["rpc"]["messages_per_sec"],
        "soak": {
            name[len("soak_"):]: {
                "events_per_sec": row["events_per_sec"],
                "messages_per_sec": row["messages_per_sec"],
            }
            for name, row in results.items() if name.startswith("soak_")
        },
    }
    if baseline is not None:
        speedup_events = {}
        speedup_wall = {}
        for name, row in results.items():
            base_row = baseline.get("workloads", {}).get(name)
            if not base_row:
                continue
            if base_row.get("events_per_sec"):
                speedup_events[name] = round(
                    row["events_per_sec"] / base_row["events_per_sec"], 2
                )
            if base_row.get("wall_s") and row.get("wall_s"):
                # Fair even when an optimization removes dead events:
                # same simulated workload, less wall time.
                speedup_wall[name] = round(base_row["wall_s"] / row["wall_s"], 2)
        doc["baseline"] = baseline
        doc["speedup_events_per_sec"] = speedup_events
        doc["speedup_wall"] = speedup_wall
    return doc


def append_row(path: str, doc: Dict[str, Any], note: str) -> int:
    """Append ``doc`` as the next row of the trajectory file at ``path``.

    The baseline goes into the file once, beside the rows; a row keeps the
    rest of ``doc`` plus ``note`` and ``calibration_s``.  Returns the
    number of rows now in the file.
    """
    history: Dict[str, Any] = {
        "schema": 2,
        "what": "kernel & network micro-benchmarks, best of N repeats per "
                "workload; append-only, one row per run",
        "command": "python benchmarks/perf_kernel.py --json BENCH_kernel.json",
        "rows": [],
    }
    if os.path.exists(path):
        with open(path) as handle:
            history = json.load(handle)
    row = {key: value for key, value in doc.items() if key != "baseline"}
    if "baseline" in doc:
        history.setdefault("baseline", doc["baseline"])
    row["note"] = note
    row["calibration_s"] = calibration_s()
    history["rows"].append(row)
    with open(path, "w") as handle:
        json.dump(history, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(history["rows"])


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="PATH",
                        help="append this run as a row of the trajectory at PATH")
    parser.add_argument("--note", default="",
                        help="with --json: one line on what the row measures")
    parser.add_argument("--record-baseline", action="store_true",
                        help="rewrite benchmarks/kernel_baseline.json "
                             "with this run's figures")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    results = run_benchmarks(repeats=args.repeats)
    if args.record_baseline:
        doc = {
            "schema": 1,
            "recorded": "pre-optimization kernel (see CHANGES.md)",
            "python": platform.python_version(),
            "workloads": results,
        }
        with open(BASELINE_PATH, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"baseline recorded -> {BASELINE_PATH}")

    doc = trajectory(results, load_baseline())
    print(json.dumps(doc, indent=1, sort_keys=True))
    if args.json:
        rows = append_row(args.json, doc, args.note)
        print(f"row {rows} appended -> {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
