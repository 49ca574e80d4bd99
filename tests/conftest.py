"""Session-wide fixtures."""

import os
from pathlib import Path

import pytest

from repro.artifacts import parse_sources

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
        return parse_sources()
    finally:
        os.chdir(cwd)
