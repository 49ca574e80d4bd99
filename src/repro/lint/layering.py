"""Layering rules (L2xx).

The architecture is a DAG of first-level packages::

    errors -> sim -> net -> failures -> {groupcomm, db} -> core
           -> {analysis, workload, viz}

declared once in :data:`repro.lint.config.ALLOWED_DEPS`.  Lower layers
must never import upward — an upward import couples a substrate to one
consumer, invites cycles, and has historically been how replication
middleware drifts from its specification.  These rules resolve every
``import``/``from ... import`` (absolute and relative) to its owning
package and check it against the DAG.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .config import ALLOWED_DEPS, TOP_LEVEL_MAY_IMPORT_ANYTHING
from .diagnostics import Diagnostic, finding
from .registry import rule


def _imported_repro_modules(ctx) -> List[Tuple[ast.AST, str]]:
    """Every repro-module target imported by ``ctx``, with its AST node."""
    assert ctx.module is not None
    out: List[Tuple[ast.AST, str]] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    out.append((node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_import_from(ctx.module, ctx.is_package, node)
            if target is not None:
                out.append((node, target))
    return out


def _resolve_import_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute repro module named by a ``from ... import`` statement."""
    if node.level == 0:
        if node.module and (
            node.module == "repro" or node.module.startswith("repro.")
        ):
            return node.module
        return None
    # Relative import: strip (level - 1) trailing components from the
    # importing module's package path, then append the named module.  For
    # an ``__init__.py`` the module name *is* the package.
    package_parts = module.split(".") if is_package else module.split(".")[:-1]
    if node.level - 1 > len(package_parts):
        return None  # would escape the repro tree; let Python error on it
    base = package_parts[: len(package_parts) - (node.level - 1)]
    target = base + (node.module.split(".") if node.module else [])
    resolved = ".".join(target)
    if resolved == "repro" or resolved.startswith("repro."):
        return resolved
    return None


def _package_of_target(target: str) -> str:
    parts = target.split(".")
    if len(parts) == 1 or parts[1].startswith("__"):
        return ""
    return parts[1]


@rule("L201", "upward-import")
def check_upward_imports(ctx) -> Iterator[Diagnostic]:
    """Import that violates the declared package DAG.

    A module in package P may import only from P itself or from the
    packages ``ALLOWED_DEPS[P]`` lists below it.  Anything else is an
    upward (or sideways) dependency that the architecture forbids.
    """
    if ctx.module is None or ctx.package is None:
        return
    if ctx.package == "" and TOP_LEVEL_MAY_IMPORT_ANYTHING:
        return  # repro/__init__.py and __main__.py re-export the world
    allowed = ALLOWED_DEPS.get(ctx.package)
    if allowed is None:
        return  # L202 reports the undeclared package
    for node, target in _imported_repro_modules(ctx):
        target_package = _package_of_target(target)
        if target_package == ctx.package:
            continue
        if target_package == "":
            # Importing bare ``repro`` (or its dunder modules) from inside
            # a layer re-enters the top-level re-exports: upward by
            # definition.
            yield finding(
                ctx.path, node,
                f"module {ctx.module} (layer '{ctx.package}') imports the "
                f"top-level repro package; import the owning layer directly",
            )
            continue
        if target_package not in allowed:
            yield finding(
                ctx.path, node,
                f"module {ctx.module} (layer '{ctx.package}') imports "
                f"{target} (layer '{target_package}'), which the import DAG "
                f"forbids; allowed: "
                f"{', '.join(sorted(allowed)) or 'nothing'}",
            )


@rule("L202", "undeclared-package")
def check_undeclared_package(ctx) -> Iterator[Diagnostic]:
    """Package missing from the DAG declaration.

    Every first-level package under ``repro`` (and every package it
    imports) must have an entry in ``ALLOWED_DEPS`` so its layer is an
    explicit, reviewed decision rather than an accident.
    """
    if ctx.module is None or ctx.package is None:
        return
    if ctx.package != "" and ctx.package not in ALLOWED_DEPS:
        yield finding(
            ctx.path, ctx.tree,
            f"package '{ctx.package}' is not declared in "
            f"repro.lint.config.ALLOWED_DEPS; add it to the import DAG",
        )
        return
    if ctx.package == "":
        return
    for node, target in _imported_repro_modules(ctx):
        target_package = _package_of_target(target)
        if target_package and target_package not in ALLOWED_DEPS:
            yield finding(
                ctx.path, node,
                f"import of {target}: package '{target_package}' is not "
                f"declared in repro.lint.config.ALLOWED_DEPS",
            )
