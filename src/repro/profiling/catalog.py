"""The phase cost catalog: measured Figure 5/6 companion for all ten techniques.

The paper classifies techniques by *which* phases they use; the catalog
reports what each phase measurably *costs* under the standard workload —
sim-time share of summed response time, message count and byte count per
phase, plus the critical-path kind split (blocked / execution /
transit).  ``docs/phasecost.{md,json}`` are generated artifacts, written
and freshness-gated through :mod:`repro.artifacts` (entry
``phasecost``): a protocol change that shifts where latency goes fails
the gate until the catalog is regenerated and the diff reviewed.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, List

from ..core.protocols import DB_TECHNIQUES, DS_TECHNIQUES
from ..obs import KINDS, PHASES
from .runner import STANDARD_LOOP, STANDARD_SPEC, profile_run

__all__ = [
    "build_catalog",
    "render_catalog_markdown",
    "render_catalog_json",
]

def build_catalog() -> Dict:
    """Run every technique under the standard experiment, pinned so the
    committed numbers mean one reproducible thing; collect matrices."""
    techniques: Dict[str, Dict] = {}
    for name in DS_TECHNIQUES + DB_TECHNIQUES:
        _system, _driver, profile = profile_run(replace(STANDARD_SPEC, technique=name))
        techniques[name] = {
            "title": profile["title"],
            "figure": profile["figure"],
            "phase_row": profile["phase_row"],
            "consistency": profile["consistency"],
            "summary": profile["summary"],
            "matrix": profile["matrix"],
        }
    # The run parameters are the same for every technique.
    return {"params": profile["params"], "techniques": techniques}


def _pct(share: float) -> str:
    return f"{share * 100:.1f}%"


def render_catalog_markdown(catalog: Dict) -> str:
    """The human-facing catalog: summary table + one matrix per technique."""
    # What profile_run runs: the standard experiment, observed.
    spec, loop = replace(STANDARD_SPEC, observe=True), STANDARD_LOOP
    lines: List[str] = [
        "# Phase cost matrix",
        "",
        "Where each technique's response time measurably goes, by the",
        "paper's five generic phases (RE = request, SC = server",
        "coordination, EX = execution, AC = agreement coordination,",
        "END = response).  Generated from live runs by",
        "`python -m repro artifacts phasecost` — do not edit by hand; `make",
        "artifacts-check` fails if this file disagrees with the code.",
        "",
        f"Experiment: `{spec.describe()}`, each technique in place of "
        f"`{spec.technique}`; every client submits "
        f"{loop.requests_per_client} requests from `{loop.workload!r}`, "
        f"think_time={loop.think_time!r}, settle={loop.settle!r}.",
        "",
        "Time is summed simulated time on the phase timeline of each",
        "committed or aborted request (phases tile the response window, so",
        "shares sum to 1.0); messages and bytes count every flight of the",
        "request — including post-response lazy propagation — attributed",
        "to the phase governing its send time.  See",
        "[observability.md](observability.md) for the extraction model.",
        "",
        "## Summary",
        "",
        "| technique | figure | dominant phase | mean response | "
        + " | ".join(KINDS) + " |",
        "|---|---|---|---|" + "---|" * len(KINDS),
    ]
    techniques = catalog["techniques"]
    for name, entry in techniques.items():
        matrix = entry["matrix"]
        kind_cells = " | ".join(
            _pct(matrix["kinds"][kind]["share"]) for kind in KINDS
        )
        lines.append(
            f"| {name} | {entry['figure']} | {matrix['dominant_phase']} | "
            f"{matrix['response_time_mean']:.2f} | {kind_cells} |"
        )
    lines.append("")
    for name, entry in techniques.items():
        matrix = entry["matrix"]
        summary = entry["summary"]
        lines += [
            f"## {name} — {entry['title']} ({entry['figure']})",
            "",
            f"phase row `{entry['phase_row']}`, {entry['consistency']} "
            f"consistency; {summary['requests']} requests "
            f"({summary['committed']} committed, {summary['aborted']} "
            f"aborted), {summary['messages_per_request']:.1f} msgs/request, "
            f"mean response {matrix['response_time_mean']:.2f}.",
            "",
            "| phase | time | share | messages | bytes |",
            "|---|---|---|---|---|",
        ]
        for phase in PHASES:
            row = matrix["phases"][phase]
            lines.append(
                f"| {phase} | {row['time']:.2f} | {_pct(row['share'])} | "
                f"{row['messages']} | {row['bytes']} |"
            )
        lines.append("")
        lines.append("| critical-path kind | time | share |")
        lines.append("|---|---|---|")
        for kind in KINDS:
            row = matrix["kinds"][kind]
            lines.append(
                f"| {kind} | {row['time']:.2f} | {_pct(row['share'])} |"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_catalog_json(catalog: Dict) -> str:
    """Machine-readable catalog (pretty-printed, sorted, byte-stable)."""
    return json.dumps(catalog, sort_keys=True, indent=2) + "\n"
