"""Session-wide fixtures."""

import os
from pathlib import Path

import pytest

from repro import artifacts

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def source_contexts():
    """``src/repro`` parsed once for the whole session, with the
    repo-relative paths the committed catalogs anchor to.  Every test
    that needs the shipped tree's contexts — the catalog, wait-graph and
    interference fixtures, the freshness gates, the shipped-tree lint —
    builds from this one parse."""
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        return artifacts.parse_sources()
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="session")
def stale_docs(source_contexts):
    """``stale_docs(name, suffix="")``: what ``artifacts.check`` holds
    against the committed ``docs/`` files of entry ``name`` whose path
    ends in ``suffix``.  One check per entry per session."""
    checked = {}

    def problems(name, suffix=""):
        if name not in checked:
            checked[name] = artifacts.check(
                [name], str(REPO / "docs"), source_contexts
            )
        return [p for p in checked[name] if p[1].endswith(suffix)]

    return problems
