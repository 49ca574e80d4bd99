"""The paper's classification figures, derived from protocol metadata.

Figures 5, 6, 15 and 16 are not illustrations in this reproduction — they
are *computed* from the ``ProtocolInfo`` records of the implemented
techniques, and the figure benchmarks additionally cross-check the phase
rows of Figure 16 against live execution traces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .phases import PhaseDescriptor
from .protocols import REGISTRY
from .protocols.base import ProtocolInfo

__all__ = [
    "ds_matrix",
    "db_matrix",
    "strong_consistency_combinations",
    "synthetic_view",
    "render_matrix",
    "render_synthetic_view",
]


def _infos(community: str = None) -> List[ProtocolInfo]:
    infos = [cls.info for cls in REGISTRY.values()]
    if community is not None:
        infos = [info for info in infos if info.community == community]
    return infos


def ds_matrix() -> Dict[Tuple[bool, bool], List[str]]:
    """Figure 5: distributed-systems techniques by
    (failure transparent?, determinism needed?)."""
    matrix: Dict[Tuple[bool, bool], List[str]] = {}
    for info in _infos("ds"):
        key = (info.failure_transparent, info.requires_determinism)
        matrix.setdefault(key, []).append(info.name)
    return matrix


def db_matrix() -> Dict[Tuple[str, str], List[str]]:
    """Figure 6: database techniques by (propagation, update location).

    Gray et al.'s two dimensions: eager vs. lazy update propagation, and
    primary copy vs. update everywhere.
    """
    matrix: Dict[Tuple[str, str], List[str]] = {}
    for info in _infos("db"):
        matrix.setdefault((info.propagation, info.update_location), []).append(info.name)
    return matrix


def strong_consistency_combinations() -> List[List[str]]:
    """Figure 15: the legal phase combinations for strong consistency.

    The paper's rule: "any replication technique that ensures strong
    consistency has either an SC and/or AC step before the END step".
    Returns the distinct (collapsed) phase sequences used by the
    implemented strong-consistency techniques — which turn out to be the
    paper's three rows.
    """
    sequences = []
    for info in _infos():
        if info.consistency != "strong":
            continue
        names = _collapsed_phases(info.descriptor)
        if names not in sequences:
            sequences.append(names)
    return sorted(sequences, key=len, reverse=True)


def _collapsed_phases(descriptor: PhaseDescriptor) -> List[str]:
    names: List[str] = []
    for name in descriptor.phase_names():
        if not names or names[-1] != name:
            names.append(name)
    return names


def synthetic_view() -> List[dict]:
    """Figure 16: every technique's phase row and consistency class."""
    rows = []
    for info in _infos():
        rows.append(
            {
                "technique": info.name,
                "title": info.title,
                "community": info.community,
                "phases": _collapsed_phases(info.descriptor),
                "rendered": info.descriptor.render(),
                "consistency": info.consistency,
                "figure": info.figure,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Text renderings (the library's stand-in for the paper's diagrams)
# ---------------------------------------------------------------------------

def render_matrix(
    matrix: Dict[tuple, List[str]],
    row_labels: Dict[object, str],
    column_labels: Dict[object, str],
) -> str:
    """Render a 2x2 classification matrix as aligned text."""
    rows = sorted(row_labels)
    columns = sorted(column_labels)
    cells = {
        (r, c): ", ".join(sorted(matrix.get((r, c), []))) or "-"
        for r in rows
        for c in columns
    }
    col_width = max(
        [len(column_labels[c]) for c in columns]
        + [len(cells[(r, c)]) for r in rows for c in columns]
    ) + 2
    row_width = max(len(row_labels[r]) for r in rows) + 2
    lines = [
        " " * row_width + "".join(column_labels[c].ljust(col_width) for c in columns)
    ]
    for r in rows:
        lines.append(
            row_labels[r].ljust(row_width)
            + "".join(cells[(r, c)].ljust(col_width) for c in columns)
        )
    return "\n".join(lines)


def render_synthetic_view() -> str:
    """Figure 16 as a text table: one phase row per technique."""
    rows = synthetic_view()
    name_width = max(len(row["title"]) for row in rows) + 2
    lines = []
    for row in sorted(rows, key=lambda r: (r["community"], r["technique"])):
        phases = " ".join(row["phases"])
        lines.append(
            f"{row['title']:<{name_width}}{phases:<22}"
            f"{row['consistency']} consistency"
        )
    return "\n".join(lines)
