"""The artifact registry: every generated, freshness-gated file under ``docs/``.

:data:`ENTRIES` maps an artifact name to its builder,
``build(contexts) -> {path relative to docs/: content}``; :func:`write`
and :func:`check` are the only code that puts those files on disk or
compares them, and ``python -m repro artifacts [--check]`` (``make
artifacts`` / ``make artifacts-check``) is their only command line.  The
lint-derived entries share one parse of the tree and one
``ProgramIndex`` per call.  A subdirectory an entry writes into is owned
by it: whatever else sits there is an orphan, reported by ``check`` and
removed by ``write``.

The next generated file registers itself by adding one builder and one
line to :data:`ENTRIES`; nothing else changes.

Layering: above ``lint`` and ``profiling`` — the one module that joins
the tooling to the runtime — and never imported by ``import repro``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .lint import interference, msgflow, waitgraph
from .lint.engine import FileContext, parse_paths
from .profiling import catalog as phasecost

__all__ = ["ENTRIES", "SOURCES", "parse_sources", "write", "check"]

Contexts = Sequence[FileContext]

# What the lint-derived entries are built from, relative to the working
# directory (the repository root, or a test's miniature tree).
SOURCES = ("src/repro",)


def parse_sources(paths: Sequence[str] = SOURCES) -> List[FileContext]:
    """Parse the tree at ``paths``; an unparseable file is an error."""
    contexts, errors = parse_paths(paths)
    if errors:
        raise ValueError("\n".join(error.render() for error in errors))
    return contexts


def _messages(contexts: Contexts) -> Dict[str, str]:
    catalog = msgflow.build_catalog(contexts)
    return {
        "messages.md": msgflow.render_catalog_markdown(catalog),
        "messages.json": msgflow.render_catalog_json(catalog),
    }


def _waitgraph(contexts: Contexts) -> Dict[str, str]:
    artifact = waitgraph.build_waitgraph_artifact(contexts)
    files = {
        "waitgraph.md": waitgraph.render_waitgraph_markdown(artifact),
        "waitgraph.json": waitgraph.render_waitgraph_json(artifact),
    }
    for technique in artifact["techniques"]:
        name = technique["technique"]
        files[f"waitgraph/{name}.dot"] = waitgraph.render_waitgraph_dot(
            artifact, name
        )
    return files


def _interference(contexts: Contexts) -> Dict[str, str]:
    artifact = interference.build_interference_artifact(contexts)
    return {
        "interference.md": interference.render_interference_markdown(artifact),
        "interference.json": interference.render_interference_json(artifact),
    }


def _phasecost(_contexts: Contexts) -> Dict[str, str]:
    catalog = phasecost.build_catalog()   # from live runs, not from the tree
    return {
        "phasecost.md": phasecost.render_catalog_markdown(catalog),
        "phasecost.json": phasecost.render_catalog_json(catalog),
    }


ENTRIES: Dict[str, Callable[[Contexts], Dict[str, str]]] = {
    "messages": _messages,
    "waitgraph": _waitgraph,
    "interference": _interference,
    "phasecost": _phasecost,
}


def _plan(
    names: Sequence[str], docs_dir: str, contexts: Optional[Contexts]
) -> Dict[str, Tuple[Dict[str, str], List[str]]]:
    """Per name: ``{path: content}`` as built now, and the orphaned paths."""
    if contexts is None:
        contexts = parse_sources()
    plan = {}
    for name in names:
        built = ENTRIES[name](contexts)
        files = {os.path.join(docs_dir, rel): built[rel] for rel in built}
        owned = {os.path.dirname(rel) for rel in built} - {""}
        present = [
            os.path.join(docs_dir, sub, leaf)
            for sub in owned if os.path.isdir(os.path.join(docs_dir, sub))
            for leaf in os.listdir(os.path.join(docs_dir, sub))
        ]
        plan[name] = (files, sorted(set(present) - set(files)))
    return plan


def write(
    names: Sequence[str], docs_dir: str, contexts: Optional[Contexts] = None
) -> List[str]:
    """Build ``names`` and make ``docs_dir`` match; returns the paths written.

    ``contexts`` is the tree as :func:`parse_sources` returned it; when
    omitted it is parsed here, from :data:`SOURCES`.
    """
    written = []
    for files, orphans in _plan(names, docs_dir, contexts).values():
        for path, content in files.items():
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(content)
            written.append(path)
        for path in orphans:
            os.remove(path)
    return written


def check(
    names: Sequence[str], docs_dir: str, contexts: Optional[Contexts] = None
) -> List[Tuple[str, str, str]]:
    """Compare ``docs_dir`` with a fresh build of ``names``.

    Returns ``(name, path, state)`` per problem — ``missing``, ``stale``
    or ``orphaned`` — and nothing when every file is up to date.
    """
    problems = []
    for name, (files, orphans) in _plan(names, docs_dir, contexts).items():
        for path in sorted(files):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    current = handle.read()
            except FileNotFoundError:
                problems.append((name, path, "missing"))
                continue
            if current != files[path]:
                problems.append((name, path, "stale"))
        problems += [(name, path, "orphaned") for path in orphans]
    return problems
