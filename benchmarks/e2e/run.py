"""End-to-end benchmark: five open-loop workloads, two clocks, per-layer ledger.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                 [--repeats R] [--trace 0|1 | --traced] [--out F]

Every run is a fresh ``child.py`` process; workloads are interleaved
round-robin over the repeats and every host metric is reported as median
and quartiles with its sample count (``setup_s`` gets ``SETUP_SAMPLES``
extra children that stop before the timed region).  ``--seconds`` scales each child's
simulated arrival window: at the default every child's timed region is
about ``RUN_SECONDS / REPEATS`` seconds on the seed commit, so the
default repeats measure for ``RUN_SECONDS``.  ``--trace 1`` adds one
traced child per workload (and, for an observed workload, its
``observe=False`` twin) and reports the per-layer table; end-to-end
numbers always come from untraced children.  Results go to ``--out``
(default ``benchmarks/e2e/out/results.json``) for ``compare.py``.

With one ``--workload`` the last line of output is the JSON object the
benchmark driver reads (see ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 170


def spawn(name: str, seed: int, scale: float, *flags: str) -> dict:
    """Run one child to completion; its failure is this process's failure."""
    command = [
        sys.executable, CHILD, "--workload", name, "--seed", str(seed),
        "--scale", repr(scale), "--spawned-at", repr(time.perf_counter()), *flags,
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: List[float]) -> dict:
    """Median, quartiles and sample count of one metric's repeats."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def same_digest(name: str, runs: List[dict], what: str) -> None:
    digests = {run["sim_digest"] for run in runs}
    if len(digests) != 1:
        raise SystemExit(f"output check failed: {name}: sim_digest differs across {what}")


def measure(names: List[str], seed: int, scale: float, repeats: int,
            traced: bool, spans: bool) -> Dict[str, dict]:
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    setups: Dict[str, List[float]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            runs[name].append(spawn(name, seed, scale))
    for _ in range(workloads.SETUP_SAMPLES):
        for name in names:
            setups[name].append(
                spawn(name, seed, scale, "--setup-only")["end_to_end"]["setup_s"]
            )
    results = {}
    for name in names:
        untraced = runs[name]
        same_digest(name, untraced, "repeats")
        first = untraced[0]
        setups[name] += [run["end_to_end"]["setup_s"] for run in untraced]
        result = {
            "duration": first["duration"],
            "attempted": first["attempted"],
            "committed": first["committed"],
            "aborted": first["aborted"],
            "failed": first["failed"],
            "sim_digest": first["sim_digest"],
            "end_to_end": {
                metric.name: spread([run["end_to_end"][metric.name] for run in untraced])
                for metric in workloads.END_TO_END
            },
        }
        result["end_to_end"]["setup_s"] = spread(setups[name])
        if traced:
            result["per_layer"], result["spans_by_name"] = per_layer(
                name, seed, scale, untraced, spans
            )
        results[name] = result
    return results


def per_layer(name: str, seed: int, scale: float, untraced: List[dict],
              spans: bool):
    """One traced child; ratios against the untraced repeats' median wall."""
    traced = spawn(name, seed, scale, "--traced", *(["--spans"] if spans else []))
    same_digest(name, untraced + [traced], "traced and untraced runs")
    wall = statistics.median(run["timed_s"] for run in untraced)
    layers = dict(traced["per_layer"])
    layers["sim.us_per_event"] = 1e6 * wall / layers["sim.events"]
    layers["trace.overhead_ratio"] = traced["timed_s"] / wall
    layers["obs.export_s"] = statistics.median(run["export_s"] for run in untraced)
    layers["obs.overhead_ratio"] = 1.0
    if untraced[0]["observe"]:
        twin = spawn(name, seed, scale, "--no-observe")
        # Observation is neutral: same simulated statistics with it off.
        same_digest(name, untraced + [twin], "observed and unobserved runs")
        layers["obs.overhead_ratio"] = wall / twin["timed_s"]
    return layers, traced["spans_by_name"]


# -- printing -------------------------------------------------------------------

def print_end_to_end(results: Dict[str, dict]) -> None:
    print(f"{'workload':<20}{'metric':<17}{'unit':<13}{'clock':<6}"
          f"{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for name, result in results.items():
        for metric in workloads.END_TO_END:
            row = result["end_to_end"][metric.name]
            print(f"{name:<20}{metric.name:<17}{metric.unit:<13}{metric.clock:<6}"
                  f"{row['median']:>14.6g}{row['q1']:>14.6g}{row['q3']:>14.6g}"
                  f"{row['n']:>4}")
        print(f"{name:<20}attempted {result['attempted']}  committed "
              f"{result['committed']}  aborted {result['aborted']}  failed "
              f"{result['failed']}  sim_digest {result['sim_digest'][:16]}")


def print_per_layer(results: Dict[str, dict]) -> None:
    names = list(results)
    print()
    print(f"{'per-layer metric':<32}{'unit':<9}{'clock':<6}"
          + "".join(f"{name[:15]:>16}" for name in names))
    for metric in workloads.PER_LAYER:
        cells = "".join(
            f"{results[name]['per_layer'][metric.name]:>16.6g}" for name in names
        )
        print(f"{metric.name:<32}{metric.unit:<9}{metric.clock:<6}{cells}")
    print()
    print(f"{'share of attributed self time':<47}"
          + "".join(f"{name[:15]:>16}" for name in names))
    shares = {name: workloads.layer_shares(results[name]["per_layer"]) for name in names}
    for layer in workloads.LAYERS:
        cells = "".join(f"{100 * shares[name][layer]:>15.1f}%" for name in names)
        print(f"{layer:<47}{cells}")


def driver_line(result: dict, traced: bool, repeats: int) -> str:
    """The one JSON object the benchmark driver reads from the last line."""
    if traced:
        metrics = {
            metric.name: {"value": result["per_layer"][metric.name], "unit": metric.unit}
            for metric in workloads.PER_LAYER
        }
    else:
        metrics = {
            metric.name: {"value": result["end_to_end"][metric.name]["median"],
                          "unit": metric.unit}
            for metric in workloads.END_TO_END
        }
    return json.dumps({
        "correct": True,   # a failed output check exits before this line
        "attempted": result["attempted"] * repeats,
        "failed": result["failed"] * repeats,
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[w.name for w in workloads.WORKLOADS],
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds ReplicatedSystem and WorkloadGenerator "
                             "(default 7; 11 is held out for later claims)")
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"untraced children per workload (default "
                             f"{workloads.REPEATS}, or 1 with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--spans", action="store_true",
                        help="with --trace 1: also write every span to "
                             "out/<workload>.spans.jsonl (200-400 MB each)")
    parser.add_argument("--out", default=os.path.join(HERE, "out", "results.json"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    traced = bool(args.trace)
    repeats = args.repeats or (1 if traced else workloads.REPEATS)
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]

    results = measure(names, args.seed, args.seconds / workloads.RUN_SECONDS,
                      repeats, traced, args.spans)
    print_end_to_end(results)
    if traced:
        print_per_layer(results)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "repeats": repeats,
                   "workloads": results}, handle, indent=1)
    print(f"all output checks passed; results written to {args.out}")
    if args.workload:
        print(driver_line(results[args.workload], traced, repeats))


if __name__ == "__main__":
    main()
