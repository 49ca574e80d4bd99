"""Workload generation: closed-loop driving, open-loop arrivals, sweeps."""

from .driver import ClosedLoopDriver, run_workload
from .generator import WorkloadGenerator, WorkloadSpec
from .openloop import ArrivalSpec, OpenLoopEngine, run_openloop
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
    "ClosedLoopDriver",
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
