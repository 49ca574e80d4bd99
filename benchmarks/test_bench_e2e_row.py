"""The end-to-end trajectory writer, ``benchmarks/bench_e2e_row.py``.

``main()`` runs on a temporary trajectory file with a fixed
``calibration_s``; its input is ``benchmarks/e2e/baseline.json``, a
result file of ``benchmarks/e2e/run.py --repeats 5 --traced`` like the
ones ``make bench-e2e`` writes.
"""

import json
import os
import sys

import pytest

import bench_e2e_row

RESULTS = os.path.join(os.path.dirname(__file__), "e2e", "baseline.json")
CLOSING = "\n }\n}\n"  # the end of "rows", then the end of the file


@pytest.fixture
def trajectory(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_e2e.json"
    monkeypatch.setattr(bench_e2e_row, "TRAJECTORY", str(path))
    monkeypatch.setattr(bench_e2e_row, "calibration_s", lambda: 0.25)
    return path


def append(monkeypatch, pr, note=""):
    monkeypatch.setattr(sys, "argv", [
        "bench_e2e_row.py", "--pr", pr, "--note", note, RESULTS,
    ])
    bench_e2e_row.main()


def test_a_row_is_appended_and_earlier_rows_stay_byte_identical(
        trajectory, monkeypatch):
    append(monkeypatch, "1", "first")
    before = trajectory.read_text()
    assert before.endswith(CLOSING)
    append(monkeypatch, "2", "second")
    after = trajectory.read_text()
    assert after.startswith(before[: -len(CLOSING)] + ",\n")
    rows = json.loads(after)["rows"]
    assert list(rows) == ["1", "2"]
    assert rows["2"]["note"] == "second"
    assert rows["2"]["calibration_s"] == 0.25


def test_a_pr_that_has_a_row_is_refused_and_the_file_is_unchanged(
        trajectory, monkeypatch):
    append(monkeypatch, "1", "first")
    before = trajectory.read_bytes()
    with pytest.raises(SystemExit):
        append(monkeypatch, "1", "again")
    assert trajectory.read_bytes() == before


def test_a_row_keeps_median_quartiles_and_count_of_each_metric(
        trajectory, monkeypatch):
    append(monkeypatch, "1")
    with open(RESULTS) as handle:
        results = json.load(handle)
    row = json.loads(trajectory.read_text())["rows"]["1"]
    assert set(row["workloads"]) == set(results["workloads"])
    for name, workload in results["workloads"].items():
        kept = row["workloads"][name]["end_to_end"]
        assert set(kept) == set(workload["end_to_end"])
        for metric, summary in workload["end_to_end"].items():
            assert kept[metric] == {
                key: summary[key] for key in ("median", "q1", "q3", "n")
            }, (name, metric)
