"""Append one PR's row to the end-to-end trajectory ``BENCH_e2e.json``.

    python benchmarks/bench_e2e_row.py --pr 14 --note "..." \
        benchmarks/output/e2e/results.json

The input is a result file of ``benchmarks/e2e/run.py --repeats 5
--traced`` (what ``make bench-e2e`` writes; ``benchmarks/e2e/
baseline.json`` is one too).  The row keeps, per workload, the median,
quartiles and sample count of every end-to-end metric, the request
counts, the ``sim_digest`` and the whole per-layer ledger — not the raw
repeats or the span tables, which stay in the result file.  The
trajectory is append-only: a PR number that already has a row is
refused.

Rows are taken on a shared host on different days, so each one also
stores ``calibration_s``: the median of five timings of a fixed
pure-Python loop (:func:`calibration_loop`), taken when the row is
appended.  Two rows' host metrics compare after dividing by it; rows
from before it existed have none and stay valid.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import statistics
import time

TRAJECTORY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_e2e.json"
)


def empty_trajectory() -> dict:
    return {
        "schema": 1,
        "what": "end-to-end benchmark medians per PR (BENCHMARK.json workloads); "
                "append-only, one row per PR that measured",
        "command": "python benchmarks/e2e/run.py --repeats 5 --traced",
        "rows": {},
    }


def calibration_loop() -> int:
    """A fixed amount of the interpreter work a simulation is made of:
    heap pushes and pops, dict writes, tuple builds, a method call each."""
    heap: list = []
    table: dict = {}
    for i in range(300_000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 1023] = (i, "x")
        if i & 1:
            heapq.heappop(heap)
    return len(heap) + len(table)


def calibration_s(samples: int = 5) -> float:
    """Median wall seconds of :func:`calibration_loop` on this host, now."""
    timings = []
    for _ in range(samples):
        started = time.perf_counter()
        calibration_loop()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


def row_of(results: dict, note: str) -> dict:
    workloads = {}
    for name, result in results["workloads"].items():
        workloads[name] = {
            "attempted": result["attempted"],
            "committed": result["committed"],
            "aborted": result["aborted"],
            "failed": result["failed"],
            "sim_digest": result["sim_digest"],
            "end_to_end": {
                metric: {key: row[key] for key in ("median", "q1", "q3", "n")}
                for metric, row in result["end_to_end"].items()
            },
            "per_layer": result.get("per_layer", {}),
        }
    return {"note": note, "seed": results["seed"], "seconds": results["seconds"],
            "repeats": results["repeats"], "calibration_s": calibration_s(),
            "workloads": workloads}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="result file of benchmarks/e2e/run.py")
    parser.add_argument("--pr", required=True, help="row key: the PR number")
    parser.add_argument("--note", default="", help="one line on what the PR did")
    args = parser.parse_args()
    with open(args.results) as handle:
        results = json.load(handle)
    trajectory = empty_trajectory()
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as handle:
            trajectory = json.load(handle)
    if args.pr in trajectory["rows"]:
        raise SystemExit(f"BENCH_e2e.json already has a row for PR {args.pr}")
    trajectory["rows"][args.pr] = row_of(results, args.note)
    with open(TRAJECTORY, "w") as handle:
        json.dump(trajectory, handle, indent=1)
        handle.write("\n")
    print(f"appended row {args.pr} to {TRAJECTORY}")


if __name__ == "__main__":
    main()
