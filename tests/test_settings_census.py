"""The settings the code offers equal the census in docs/internals.md.

Every field of the counted specs and every defaulted keyword of the
counted constructors and entry points is one settable value.  The
"Settings census" table in docs/internals.md lists them; a setting added
to the code without a row change, or removed without one, fails here, so
each new setting shows up in review next to the rule it has to meet.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import repro.core.admission
import repro.resilience
from repro import RunSpec
from repro.core.phases import PhaseDescriptor, PhaseStep
from repro.core.protocols.base import ProtocolInfo
from repro.db.twophase import TwoPhaseCoordinator
from repro.net import Network
from repro.profiling import ClosedLoop
from repro.resilience import RetryingPolicy, run_campaign
from repro.workload import ArrivalSpec, SweepConfig, WorkloadSpec

DOC = Path(__file__).resolve().parent.parent / "docs" / "internals.md"

COUNTED = {
    "RunSpec": RunSpec,
    "WorkloadSpec": WorkloadSpec,
    "ArrivalSpec": ArrivalSpec,
    "SweepConfig": SweepConfig,
    "ClosedLoop": ClosedLoop,
    "ProtocolInfo": ProtocolInfo,
    "PhaseDescriptor": PhaseDescriptor,
    "PhaseStep": PhaseStep,
    "run_campaign": run_campaign,
    "RetryingPolicy": RetryingPolicy,
    "TwoPhaseCoordinator": TwoPhaseCoordinator,
    "Network": Network,
}

# Counted classes whose every value became a constant, and where they lived.
GONE = {
    "AdmissionConfig": repro.core.admission,
    "RetryPolicy": repro.resilience,
}


def settable(obj):
    if dataclasses.is_dataclass(obj):
        return [field.name for field in dataclasses.fields(obj)]
    return [
        param.name for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    ]


def census():
    """``{name: (before, after, [values])}`` and the total row."""
    text = DOC.read_text()
    section = text[text.index("## Settings census"):]
    rows, total = {}, None
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            values = re.findall(r"`(\w+)`", cells[3])
            rows[cells[0].strip("`")] = (int(cells[1]), int(cells[2]), values)
        elif line.startswith("| **total**"):
            total = (int(cells[1]), int(cells[2]))
    return rows, total


def test_census_names_every_counted_setting():
    rows, _ = census()
    assert sorted(rows) == sorted(set(COUNTED) | set(GONE))
    for name, obj in COUNTED.items():
        assert rows[name][2] == settable(obj), name


def test_counts_add_up():
    rows, total = census()
    for name, (_before, after, values) in rows.items():
        assert after == len(values), name
    assert total == (
        sum(before for before, _, _ in rows.values()),
        sum(after for _, after, _ in rows.values()),
    )


def test_gone_classes_are_gone():
    rows, _ = census()
    for name, module in GONE.items():
        assert rows[name][1:] == (0, [])
        assert not hasattr(module, name)
