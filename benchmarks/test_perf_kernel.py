"""Performance study — kernel & network hot-path microbenchmarks.

Pytest wrapper around :mod:`benchmarks.perf_kernel`: runs every kernel
workload (timer churn, RPC round trips, broadcast fan-out, the two soak
rows, the observed soak run and its export), prints the figures next to
the recorded pre-optimization baseline and asserts the simulated
executions still look right (event/message counts, timeout hygiene).  ``make bench-json`` runs the same harness
from the command line and appends a row to ``BENCH_kernel.json`` at the
repo root.

Wall-clock thresholds are deliberately absent — CI machines vary too
much for hard time limits; the trajectory file is the artefact, and the
recorded baseline in ``benchmarks/kernel_baseline.json`` is the fixed
reference point for speedup claims.
"""

import json

import perf_kernel
from conftest import format_rows, report
from perf_kernel import append_row, load_baseline, run_benchmarks, trajectory


def test_perf_kernel(once):
    results = once(lambda: run_benchmarks(repeats=3))

    churn = results["timer_churn"]
    # Lazy-deletion compaction: the cancelled guard timers must not pile
    # up in the heap (pre-compaction this figure was ~64k).
    assert churn["mid_run_pending"] < 5_000, churn

    rpc = results["rpc"]
    assert rpc["messages"] == 8 * 2000 * 2, rpc

    for name in ("soak_active", "soak_eager_ue_locking"):
        assert results[name]["events"] > 0, name
    assert results["export"]["spans"] > 0, results["export"]
    # The recording workload observes the very run the export writes out.
    assert results["record"]["spans"] == results["export"]["spans"], results
    assert results["record"]["record_ratio"] > 0, results["record"]

    doc = trajectory(results, load_baseline())
    table = []
    for name, row in results.items():
        speedup = doc.get("speedup_wall", {}).get(name)
        table.append([
            name,
            f"{row['events_per_sec']:.0f}" if "events_per_sec" in row else "-",
            f"{row.get('messages_per_sec', 0):.0f}" if "messages_per_sec" in row else "-",
            f"{row['wall_s']:.4f}",
            f"{speedup:.2f}x" if speedup else "n/a",
        ])
    report(
        "perf_kernel",
        "Kernel & network hot paths: best-of-3 wall clock per workload\n"
        "(speedup vs benchmarks/kernel_baseline.json, recorded "
        "pre-optimization)\n\n"
        + format_rows(
            ["workload", "events/s", "msgs/s", "wall s", "speedup"],
            table,
        ),
    )


def test_json_appends_a_row_and_keeps_the_rest(tmp_path, monkeypatch):
    monkeypatch.setattr(perf_kernel, "calibration_s", lambda: 0.25)
    path = str(tmp_path / "BENCH_kernel.json")
    baseline = {"workloads": {"rpc": {"wall_s": 2.0}}}
    first = {"baseline": baseline, "workloads": {"rpc": {"wall_s": 1.0}}}
    assert append_row(path, first, "one") == 1
    with open(path) as handle:
        before = json.load(handle)
    second = {"baseline": {"workloads": {}}, "workloads": {"rpc": {"wall_s": 0.5}}}
    assert append_row(path, second, "two") == 2
    with open(path) as handle:
        after = json.load(handle)
    assert after["rows"][0] == before["rows"][0]
    assert after["rows"][1] == {
        "workloads": {"rpc": {"wall_s": 0.5}}, "note": "two", "calibration_s": 0.25,
    }
    assert after["baseline"] == baseline  # recorded once, never replaced
