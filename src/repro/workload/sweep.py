"""Seed-sweep runner: seeds × offered rates × techniques across CPU cores.

One deterministic run is one measurement; the performance study needs a
*matrix* of them — every technique at every offered load over several
seeds — and PR 1's determinism makes the matrix embarrassingly parallel:
each cell is an independent simulation fixed by ``(technique, seed,
rate)``, so worker scheduling cannot change any result, only the order
rows come back in.  The merge step sorts rows into canonical ``(
technique, seed, rate)`` order and serialises with sorted keys, so the
merged JSON is byte-identical however many workers ran the sweep and in
whatever order they finished — the merge-determinism test shuffles the
rows to pin exactly that.

The headline artifact is the **saturation table**: goodput and p99
latency versus offered load per technique, with the knee — the first
offered rate where p99 exceeds ``KNEE_P99_FACTOR`` × the technique's
low-load p99, or goodput falls below ``KNEE_GOODPUT_FLOOR`` × offered —
marked per technique.  That table is the missing half of the paper's
Section 6 performance study.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.protocols import DB_TECHNIQUES, DS_TECHNIQUES
from ..core.spec import RunSpec
from .generator import WorkloadSpec
from .openloop import ArrivalSpec, run_openloop

__all__ = [
    "SweepConfig",
    "run_cell",
    "run_sweep",
    "merge_rows",
    "saturation_table",
    "render_saturation",
    "write_sweep",
]

ALL_TECHNIQUES: Tuple[str, ...] = tuple(DS_TECHNIQUES + DB_TECHNIQUES)

# Knee detection: the saturation point is the first offered rate where
# p99 blows past this multiple of the technique's lowest-load p99 ...
KNEE_P99_FACTOR = 2.0
# ... or goodput drops below this fraction of the offered load.
KNEE_GOODPUT_FLOOR = 0.9


# Every cell's transaction mix: a 50-item store, half reads, a hot tenth
# of the items drawing half the accesses.
WORKLOAD = WorkloadSpec(items=50, read_fraction=0.5, hot_fraction=0.1,
                        hot_access_probability=0.5)
# Physical client edges the logical clients enter through.
EDGES = 4


@dataclass(frozen=True)
class SweepConfig:
    """The sweep matrix and the per-cell run shape.

    ``rates`` is the offered-load axis (arrivals per time unit);
    ``clients`` is the *logical* client population each cell draws
    arrivals from, entering through ``EDGES`` physical client nodes.
    Every cell draws its transactions from ``WORKLOAD``.
    ``admission_rate > 0`` gates every cell behind a token-bucket
    admission edge at that sustained rate (0 disables admission, letting
    offered load hit the replicas raw).
    """

    techniques: Tuple[str, ...] = ALL_TECHNIQUES
    seeds: Tuple[int, ...] = (0, 1)
    rates: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4)
    process: str = "poisson"
    duration: float = 600.0
    clients: int = 100_000
    replicas: int = 3
    admission_rate: float = 0.0
    deadline_budget: Optional[float] = None

    def cells(self) -> List[Tuple[RunSpec, WorkloadSpec, ArrivalSpec]]:
        """One picklable work item per (technique, seed, rate)."""
        return [
            (
                RunSpec(technique, replicas=self.replicas, clients=EDGES,
                        seed=seed, admission_rate=self.admission_rate),
                WORKLOAD,
                ArrivalSpec(process=self.process, rate=rate, duration=self.duration,
                            clients=self.clients, deadline_budget=self.deadline_budget),
            )
            for technique in self.techniques
            for seed in self.seeds
            for rate in self.rates
        ]


def run_cell(cell: Tuple[RunSpec, WorkloadSpec, ArrivalSpec]) -> Dict[str, Any]:
    """Run one sweep cell; returns a JSON-safe row.

    Module-level (not a closure) so ``multiprocessing`` can import it by
    reference in worker processes under both fork and spawn; the cell's
    three specs reach the worker pickled.
    """
    spec, workload, arrival = cell
    system, engine, summary = run_openloop(spec, workload, arrival, settle=200.0)
    return {
        "technique": spec.technique,
        "seed": spec.seed,
        "rate": arrival.rate,
        "summary": summary.row(),
        "offered_load": round(summary.offered_load, 6),
        "goodput": round(summary.goodput, 6),
        "shed_rate": round(summary.shed_rate, 6),
        "p99_latency": round(summary.latency.p99, 6),
        "engine": engine.stats(),
        "converged": system.converged(),
    }


def merge_rows(rows: Iterable[Dict[str, Any]],
               config: SweepConfig) -> Dict[str, Any]:
    """Canonical merged document, independent of row arrival order."""
    ordered = sorted(
        rows, key=lambda r: (r["technique"], r["seed"], r["rate"])
    )
    return {
        "config": asdict(config),
        "rows": ordered,
        "saturation": saturation_table(ordered),
    }


def run_sweep(config: SweepConfig, jobs: Optional[int] = None) -> Dict[str, Any]:
    """Run every cell, fanned across CPU cores; returns the merged doc.

    ``jobs=1`` runs serially in-process (no pool), which is what the
    determinism tests use; ``jobs=None`` uses one worker per core,
    capped at the cell count.
    """
    cells = config.cells()
    if jobs is None:
        jobs = min(os.cpu_count() or 1, len(cells))
    if jobs <= 1 or len(cells) <= 1:
        rows = [run_cell(cell) for cell in cells]
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=jobs) as pool:
            rows = list(pool.imap_unordered(run_cell, cells))
    return merge_rows(rows, config)


# -- saturation ---------------------------------------------------------------


def saturation_table(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-technique goodput/p99 versus offered load, with the p99 knee.

    Seeds are averaged per (technique, rate).  The knee is the first
    rate breaking either threshold; ``None`` means the technique never
    saturated inside the swept range.
    """
    by_cell: Dict[Tuple[str, float], List[Dict[str, Any]]] = {}
    techniques: List[str] = []
    for row in rows:
        key = (row["technique"], row["rate"])
        by_cell.setdefault(key, []).append(row)
        if row["technique"] not in techniques:
            techniques.append(row["technique"])

    table: List[Dict[str, Any]] = []
    for technique in sorted(techniques):
        rates = sorted(rate for tech, rate in by_cell if tech == technique)
        points = []
        for rate in rates:
            cell_rows = by_cell[(technique, rate)]
            n = len(cell_rows)
            points.append({
                "rate": rate,
                "offered_load": round(
                    sum(r["offered_load"] for r in cell_rows) / n, 6),
                "goodput": round(sum(r["goodput"] for r in cell_rows) / n, 6),
                "shed_rate": round(
                    sum(r["shed_rate"] for r in cell_rows) / n, 6),
                "p99_latency": round(
                    sum(r["p99_latency"] for r in cell_rows) / n, 6),
            })
        base_p99 = points[0]["p99_latency"] if points else 0.0
        knee = None
        for point in points:
            saturated_p99 = (
                base_p99 > 0 and point["p99_latency"] > KNEE_P99_FACTOR * base_p99
            )
            starved = (
                point["offered_load"] > 0
                and point["goodput"] < KNEE_GOODPUT_FLOOR * point["offered_load"]
            )
            if saturated_p99 or starved:
                knee = point["rate"]
                break
        table.append({
            "technique": technique,
            "points": points,
            "knee_rate": knee,
        })
    return table


def render_saturation(table: Sequence[Dict[str, Any]]) -> str:
    """Plain-text saturation table (also written next to the JSON)."""
    lines = [
        f"{'technique':18s} {'rate':>7s} {'offered':>9s} {'goodput':>9s} "
        f"{'shed':>7s} {'p99':>9s}  knee",
        "-" * 68,
    ]
    for entry in table:
        knee = entry["knee_rate"]
        for i, point in enumerate(entry["points"]):
            marker = ""
            if knee is not None and point["rate"] == knee:
                marker = "<-- knee"
            name = entry["technique"] if i == 0 else ""
            lines.append(
                f"{name:18s} {point['rate']:7.3f} {point['offered_load']:9.4f} "
                f"{point['goodput']:9.4f} {point['shed_rate']:7.3f} "
                f"{point['p99_latency']:9.2f}  {marker}"
            )
    return "\n".join(lines) + "\n"


def write_sweep(merged: Dict[str, Any], out_dir: str) -> Dict[str, str]:
    """Write ``sweep.json`` + ``saturation.txt``; byte-stable per config."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    json_path = os.path.join(out_dir, "sweep.json")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, sort_keys=True, indent=1)
        handle.write("\n")
    paths["json"] = json_path
    txt_path = os.path.join(out_dir, "saturation.txt")
    with open(txt_path, "w", encoding="utf-8") as handle:
        handle.write(render_saturation(merged["saturation"]))
    paths["table"] = txt_path
    return paths
