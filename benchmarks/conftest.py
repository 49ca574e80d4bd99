"""Shared helpers for the paper-reproduction benchmarks.

Every benchmark regenerates one artefact of the paper — a phase-diagram
figure (2-4, 7-14), a classification matrix (5, 6, 15, 16) or a row of
the Section 6 performance study — prints it, and writes it under
``benchmarks/output/`` for inspection.
"""

from __future__ import annotations

import os
from typing import List

import pytest

from repro import Operation, ReplicatedSystem
from repro.obs import write_artifacts
from repro.viz import render_figure, render_phase_timeline

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


def report(name: str, text: str, system=None) -> str:
    """Print a reproduction block and persist it to benchmarks/output/.

    When ``system`` is an observed :class:`ReplicatedSystem`, the run's
    span trace (Perfetto JSON + JSONL) and metrics report are written
    beside the text artefact under the same stem.
    """
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if system is not None and getattr(system, "observer", None) is not None:
        node_order = system.replica_names + [c.name for c in system.clients]
        write_artifacts(
            system.observer, os.path.join(OUTPUT_DIR, name),
            node_order=node_order, title=name,
        )
    print()
    print(text)
    return path


def run_single_request(
    protocol: str,
    operations: List[Operation],
    replicas: int = 3,
    seed: int = 1,
    settle: float = 300.0,
    observe: bool = True,
):
    """Build a system, execute one request, let background work finish.

    Observed by default so every figure benchmark can drop its trace
    beside its text output (pass the system to :func:`report`).
    """
    system = ReplicatedSystem(protocol, replicas=replicas, seed=seed, observe=observe)
    result = system.execute(operations)
    system.settle(settle)
    return system, result


def figure_block(system, result, title: str, lanes=None, notes=None) -> str:
    """Render a figure: declared descriptor + observed swim-lane timeline."""
    lanes = lanes if lanes is not None else system.replica_names
    descriptor = system.info.descriptor_for(len(result.operations))
    timeline = render_phase_timeline(system.trace, result.request_id, lanes)
    return render_figure(title, descriptor.render(), timeline, notes=notes)


def format_rows(headers: List[str], rows: List[List[object]]) -> str:
    """Aligned text table for performance-study outputs."""
    table = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    return "\n".join(lines)


@pytest.fixture
def once(benchmark):
    """Run a scenario exactly once under pytest-benchmark timing."""
    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return runner
