"""Lint engine: file discovery, parsing, rule dispatch, suppression.

:func:`run_lint` is the programmatic entry point used by the CLI, the
test-suite and any tooling that wants diagnostics as data::

    from repro.lint import run_lint
    problems = run_lint(["src/repro"])
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostic, suppressed
from .registry import Rule, selected_rules

__all__ = [
    "FileContext", "run_lint", "lint_parsed", "parse_paths",
    "collect_files", "parse_file",
]


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: str            # path as reported in diagnostics (posix separators)
    module: Optional[str]   # dotted module name when inside a repro tree
    package: Optional[str]  # first-level repro subpackage, "" for top-level
    tree: ast.Module
    lines: List[str]
    is_package: bool = False  # True for __init__.py (module names a package)


def _module_of(path: str) -> Tuple[Optional[str], Optional[str], bool]:
    """Map a file path onto (module, first-level package) within ``repro``.

    Recognises any ``.../src/repro/...`` layout (the repository itself and
    the miniature trees the self-tests build under tmp dirs); falls back
    to the last ``repro`` path segment so an installed checkout still
    resolves.  Files outside a repro tree get ``(None, None)`` and only
    project-wide rules apply to them.
    """
    parts = os.path.abspath(path).split(os.sep)
    candidates = [i for i, part in enumerate(parts[:-1]) if part == "repro"]
    if not candidates:
        return None, None, False
    preferred = [i for i in candidates if i > 0 and parts[i - 1] == "src"]
    index = preferred[-1] if preferred else candidates[-1]
    tail = parts[index:]
    if tail[-1].endswith(".py"):
        tail[-1] = tail[-1][: -len(".py")]
    is_package = tail[-1] == "__init__"
    if is_package:
        tail = tail[:-1]
    module = ".".join(tail)
    if len(tail) == 1:
        package = ""
    else:
        package = "" if tail[1].startswith("__") else tail[1]
    return module, package, is_package


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand path arguments into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    seen = set()
    unique = []
    for path in found:
        key = os.path.abspath(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def parse_file(path: str) -> Tuple[Optional[FileContext], Optional[Diagnostic]]:
    """Parse one file; returns ``(context, None)`` or ``(None, error)``."""
    display = path.replace(os.sep, "/")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return None, Diagnostic(display, 0, "E001", "error", f"cannot read: {exc}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Diagnostic(
            display, exc.lineno or 0, "E001", "error",
            f"syntax error: {exc.msg}",
        )
    module, package, is_package = _module_of(path)
    return FileContext(
        path=display, module=module, package=package,
        tree=tree, lines=source.splitlines(), is_package=is_package,
    ), None


def parse_paths(
    paths: Sequence[str],
) -> Tuple[List[FileContext], List[Diagnostic]]:
    """Parse every ``.py`` file under ``paths``: contexts plus E001 errors."""
    contexts: List[FileContext] = []
    errors: List[Diagnostic] = []
    for path in collect_files(paths):
        context, error = parse_file(path)
        if context is not None:
            contexts.append(context)
        elif error is not None:
            errors.append(error)
    return contexts, errors


def run_lint(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Lint ``paths`` and return the surviving diagnostics, sorted.

    Inline ``# repro: noqa`` comments are applied before the list is
    returned, so a non-empty result means actionable findings.
    """
    contexts, errors = parse_paths(paths)
    return lint_parsed(contexts, errors, select, ignore)


def lint_parsed(
    contexts: List[FileContext],
    errors: Sequence[Diagnostic] = (),
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """:func:`run_lint` over what :func:`parse_paths` already returned."""
    rules = selected_rules(select, ignore)
    diagnostics: List[Diagnostic] = list(errors)
    lines_by_path = {ctx.path: ctx.lines for ctx in contexts}
    if any(enabled.scope == "project" for enabled in rules):
        # One ProgramIndex serves every whole-program pass (M4xx, W5xx,
        # R6xx): build it here, before rule dispatch, so the passes share
        # it by construction instead of each racing to build its own.
        from .symeval import program_index

        program_index(contexts)
    for enabled in rules:
        if enabled.scope == "file":
            for context in contexts:
                diagnostics.extend(_run_rule(enabled, (context,)))
        else:
            diagnostics.extend(_run_rule(enabled, (contexts,)))

    diagnostics = [
        d for d in diagnostics
        if not suppressed(d, lines_by_path.get(d.file, ()))
    ]
    diagnostics.sort(key=lambda d: (d.file, d.line, d.col, d.rule))
    return diagnostics


def _run_rule(enabled: Rule, args: tuple) -> List[Diagnostic]:
    out = []
    for found in enabled.check(*args):
        out.append(
            Diagnostic(
                file=found.file, line=found.line, rule=enabled.id,
                severity=enabled.severity, message=found.message,
                col=found.col,
            )
        )
    return out


# Importing the rule modules registers every rule; keep these imports at
# the bottom so the modules can import FileContext for annotations.
from . import determinism as _determinism  # noqa: E402,F401
from . import msgflow as _msgflow  # noqa: E402,F401
from . import waitgraph as _waitgraph  # noqa: E402,F401
from . import interference as _interference  # noqa: E402,F401
