"""Diagnostic records, suppression comments and output formats.

A :class:`Diagnostic` is one finding: file, line, rule id, severity and a
human message.  An inline ``# repro: noqa RULE`` (or bare
``# repro: noqa``) comment on the flagged line silences a finding
without fixing it, for deliberate one-off exceptions; it is the only
suppression there is.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .config import NOQA_MARKER

__all__ = [
    "Diagnostic",
    "finding",
    "find_noqa",
    "render_text",
    "render_json",
    "render_sarif",
]

_NOQA_RE = re.compile(
    r"#\s*" + re.escape(NOQA_MARKER) + r"(?:\s+(?P<rules>[A-Z]\d+(?:[,\s]+[A-Z]\d+)*))?"
)


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding, pointing at ``file:line``."""

    file: str
    line: int
    rule: str
    severity: str  # "error" | "warning"
    message: str
    col: int = 0

    def fingerprint(self) -> str:
        """Line-number-free identity: unrelated edits that shift code
        leave it unchanged."""
        return f"{self.file}::{self.rule}::{self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.rule} {self.message}"


def finding(path: str, node: object, message: str) -> Diagnostic:
    """A finding at ``node``'s position; the engine stamps rule and severity."""
    return Diagnostic(
        file=path, line=getattr(node, "lineno", 0), rule="",
        severity="", message=message, col=getattr(node, "col_offset", 0),
    )


def find_noqa(line: str) -> Optional[frozenset]:
    """Parse a suppression comment on ``line``.

    Returns ``None`` when there is no marker, an empty frozenset for a bare
    ``# repro: noqa`` (suppress every rule), or the set of rule ids named.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if not rules:
        return frozenset()
    return frozenset(re.split(r"[,\s]+", rules.strip()))


def suppressed(diagnostic: Diagnostic, lines: Sequence[str]) -> bool:
    """Whether an inline noqa on the diagnostic's line covers its rule."""
    if not 1 <= diagnostic.line <= len(lines):
        return False
    rules = find_noqa(lines[diagnostic.line - 1])
    if rules is None:
        return False
    return not rules or diagnostic.rule in rules


def render_text(diagnostics: Sequence[Diagnostic]) -> str:
    lines = [d.render() for d in diagnostics]
    if diagnostics:
        lines.append(f"{len(diagnostics)} finding(s)")
    return "\n".join(lines)


def render_json(diagnostics: Sequence[Diagnostic]) -> str:
    return json.dumps([d.as_dict() for d in diagnostics], indent=2)


# SARIF severity levels for our two severities.
_SARIF_LEVELS = {"error": "error", "warning": "warning"}


def render_sarif(diagnostics: Sequence[Diagnostic]) -> str:
    """Render findings as a SARIF 2.1.0 log (for CI inline annotations).

    Every finding maps to one ``result`` with its rule id, level, message
    and physical location; the driver's rule table documents the whole
    registry (id, name, descriptions, helpUri into docs/linting.md), so
    CI annotations stay informative even for rules that did not fire.
    """
    from .registry import all_rules  # local import: registry imports us

    rules = [
        {
            "id": entry.id,
            "name": entry.name,
            "shortDescription": {"text": entry.summary},
            "fullDescription": {"text": entry.doc or entry.summary},
            "helpUri": entry.help_uri,
            "defaultConfiguration": {
                "level": _SARIF_LEVELS.get(entry.severity, "warning"),
            },
        }
        for entry in all_rules()
    ]
    results = [
        {
            "ruleId": d.rule,
            "level": _SARIF_LEVELS.get(d.severity, "warning"),
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": d.file},
                        "region": {
                            "startLine": max(d.line, 1),
                            "startColumn": d.col + 1,
                        },
                    }
                }
            ],
        }
        for d in diagnostics
    ]
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "docs/linting.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2)
