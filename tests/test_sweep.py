"""Tests for the seed-sweep runner: cells, merge determinism, saturation."""

import json
import pickle
import random

import pytest

from repro.__main__ import main
from repro.workload import SweepConfig
from repro.workload.openloop import _PROCESSES
from repro.workload.sweep import (
    merge_rows,
    render_saturation,
    run_cell,
    run_sweep,
    saturation_table,
    write_sweep,
)

TINY = SweepConfig(
    techniques=("active", "lazy_primary"),
    seeds=(0, 1),
    rates=(0.1, 0.3),
    duration=100.0,
    clients=2_000,
)


def _point(rate, goodput, p99):
    return {
        "technique": "t",
        "seed": 0,
        "rate": rate,
        "offered_load": rate,
        "goodput": goodput,
        "shed_rate": 0.0,
        "p99_latency": p99,
    }


class TestCells:
    def test_cell_count_is_full_cross_product(self):
        assert len(TINY.cells()) == 2 * 2 * 2

    def test_cells_are_picklable_plain_dicts(self):
        # A cell reaches a worker process pickled: (RunSpec, WorkloadSpec,
        # ArrivalSpec), each frozen and compared by value.
        for cell in TINY.cells():
            assert pickle.loads(pickle.dumps(cell)) == cell

    def test_run_cell_returns_json_safe_row(self):
        row = run_cell(TINY.cells()[0])
        json.dumps(row)
        assert row["technique"] == "active"
        assert row["summary"]["requests"] > 0
        assert row["converged"] is True


class TestMergeDeterminism:
    def test_merge_independent_of_row_order(self):
        rows = [run_cell(cell) for cell in TINY.cells()]
        shuffled = list(rows)
        random.Random(42).shuffle(shuffled)
        merged_a = merge_rows(rows, TINY)
        merged_b = merge_rows(shuffled, TINY)
        assert json.dumps(merged_a, sort_keys=True) == json.dumps(
            merged_b, sort_keys=True
        )

    def test_serial_matches_parallel(self):
        config = SweepConfig(
            techniques=("active",), seeds=(0, 1), rates=(0.1, 0.3),
            duration=100.0, clients=2_000,
        )
        serial = run_sweep(config, jobs=1)
        parallel = run_sweep(config, jobs=2)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        config = SweepConfig(
            techniques=("lazy_primary",), seeds=(0,), rates=(0.2,),
            duration=100.0, clients=2_000,
        )
        paths_a = write_sweep(run_sweep(config, jobs=1), str(tmp_path / "a"))
        paths_b = write_sweep(run_sweep(config, jobs=1), str(tmp_path / "b"))
        for kind in paths_a:
            assert open(paths_a[kind], "rb").read() == open(
                paths_b[kind], "rb"
            ).read()


class TestSaturation:
    def test_knee_on_p99_blowup(self):
        rows = [
            _point(0.1, 0.1, 10.0),
            _point(0.2, 0.2, 12.0),
            _point(0.4, 0.4, 50.0),  # p99 > 2x the low-load baseline
        ]
        table = saturation_table(rows)
        assert table[0]["knee_rate"] == 0.4

    def test_knee_on_goodput_collapse(self):
        rows = [
            _point(0.1, 0.1, 10.0),
            _point(0.2, 0.15, 11.0),  # goodput < 0.9 x offered
        ]
        table = saturation_table(rows)
        assert table[0]["knee_rate"] == 0.2

    def test_no_knee_inside_swept_range(self):
        rows = [_point(0.1, 0.1, 10.0), _point(0.2, 0.2, 11.0)]
        table = saturation_table(rows)
        assert table[0]["knee_rate"] is None

    def test_seeds_average_per_rate(self):
        a = dict(_point(0.1, 0.2, 10.0), seed=0)
        b = dict(_point(0.1, 0.4, 20.0), seed=1)
        table = saturation_table([a, b])
        point = table[0]["points"][0]
        assert point["goodput"] == 0.3
        assert point["p99_latency"] == 15.0

    def test_render_marks_knee(self):
        rows = [
            _point(0.1, 0.1, 10.0),
            _point(0.4, 0.1, 50.0),
        ]
        text = render_saturation(saturation_table(rows))
        assert "<-- knee" in text
        assert "technique" in text


class TestWriteSweep:
    def test_writes_json_and_table(self, tmp_path):
        merged = merge_rows(
            [run_cell(TINY.cells()[0])], TINY
        )
        paths = write_sweep(merged, str(tmp_path / "out"))
        doc = json.load(open(paths["json"]))
        assert doc["rows"] and doc["saturation"]
        assert open(paths["table"]).read().strip()


@pytest.mark.parametrize("process", _PROCESSES)
def test_cli_sweeps_every_arrival_process(process, tmp_path):
    out = str(tmp_path / process)
    assert main(["sweep", "--process", process, "--technique", "active",
                 "--seeds", "0", "--rates", "0.2", "--duration", "50",
                 "--jobs", "1", "--out", out]) == 0
    doc = json.load(open(f"{out}/sweep.json"))
    assert doc["config"]["process"] == process
    assert doc["rows"]
