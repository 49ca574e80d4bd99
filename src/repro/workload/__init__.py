"""Workload generation: one engine for closed and open-loop arrivals, sweeps."""

from .generator import WorkloadGenerator, WorkloadSpec
from .openloop import (
    ArrivalSpec,
    ClosedPopulation,
    OpenLoopEngine,
    run_openloop,
    run_workload,
)
from .sweep import (
    SweepConfig,
    merge_rows,
    render_saturation,
    run_cell,
    run_sweep,
    saturation_table,
    write_sweep,
)
from .scenarios import (
    SCENARIOS,
    bank_transfer,
    hotspot,
    read_mostly,
    uniform_updates,
)

__all__ = [
    "WorkloadSpec",
    "WorkloadGenerator",
    "ClosedPopulation",
    "run_workload",
    "ArrivalSpec",
    "OpenLoopEngine",
    "run_openloop",
    "SweepConfig",
    "run_cell",
    "run_sweep",
    "merge_rows",
    "saturation_table",
    "render_saturation",
    "write_sweep",
    "SCENARIOS",
    "uniform_updates",
    "read_mostly",
    "hotspot",
    "bank_transfer",
]
