"""Command line for the linter: ``python -m repro.lint`` / ``repro-lint``.

Exit status: 0 when clean, 1 when findings remain after ``# repro: noqa``
suppression, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .diagnostics import render_json, render_sarif, render_text
from .engine import run_lint
from .registry import all_rules


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism, message-flow, wait-graph and "
                    "interference linter for the repro codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="diagnostic output format",
    )
    parser.add_argument(
        "--select", action="append", default=None, metavar="RULE",
        help="only run these rule ids / id prefixes (repeatable, "
             "comma-separated ok; e.g. --select D104 --select R)",
    )
    parser.add_argument(
        "--ignore", action="append", default=None, metavar="RULE",
        help="skip these rule ids / id prefixes (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _split_rules(values: Optional[List[str]]) -> Optional[List[str]]:
    if values is None:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for entry in all_rules():
            print(f"{entry.id}  {entry.name:28s} [{entry.severity}] "
                  f"{entry.summary}")
        return 0

    try:
        select = _split_rules(args.select)
        ignore = _split_rules(args.ignore)
        findings = run_lint(args.paths, select, ignore)
    except KeyError as exc:
        print(str(exc).strip("'\""), file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings))
    elif findings:
        print(render_text(findings))
    else:
        print("repro.lint: clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
