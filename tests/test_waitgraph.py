"""Dynamic twin of the static wait-graph pass (repro.lint W5xx).

The generated wait graph (``docs/waitgraph.md`` + JSON + per-technique
DOT files) claims to name every point where the tree can block: every
request/reply ``node.call``, 2PL lock acquisition, 2PC voting round and
future join.  This module holds it to that claim in the directions the
linter cannot check on its own:

* **freshness** — the committed artifact files equal what the pass
  regenerates from today's sources (``make artifacts-check``, through
  the same ``repro.artifacts.check``), byte for byte, and a second
  rebuild from scratch produces identical bytes (determinism);
* **coverage** — seeded workloads of all ten registered techniques run
  with the observer attached; every *recorded* lock acquisition must
  match a static lock site the analysis extracted, and every blocking
  ``Node.call`` issued at runtime must match a static call-wait pattern.
  A blocking point the static pass failed to see at all would show up
  here as an uncovered acquisition or call.
"""

from pathlib import Path

import pytest

from repro import REGISTRY, RunSpec
from repro.lint.msgflow import pattern_matches
from repro.lint.symeval import WILDCARD
from repro.lint.waitgraph import (
    LOCK,
    CALL,
    build_waitgraph,
    build_waitgraph_artifact,
    render_waitgraph_dot,
    render_waitgraph_json,
    render_waitgraph_markdown,
)
from repro.net.node import Node
from repro.workload import WorkloadSpec, run_workload

REPO = Path(__file__).resolve().parent.parent


def _matches(rendered: str, concrete: str) -> bool:
    """Match a rendered pattern (``*`` = unresolved fragment) to a value."""
    return pattern_matches(rendered.replace("*", WILDCARD), concrete)


@pytest.fixture(scope="module")
def graph_and_artifact(source_contexts):
    """The wait graph and its artifact, with repo-relative locations."""
    return (build_waitgraph(source_contexts),
            build_waitgraph_artifact(source_contexts))


@pytest.fixture(scope="module")
def graph(graph_and_artifact):
    return graph_and_artifact[0]


@pytest.fixture(scope="module")
def artifact(graph_and_artifact):
    return graph_and_artifact[1]


# ---------------------------------------------------------------------------
# Freshness and determinism: committed files == regenerated, byte for byte
# ---------------------------------------------------------------------------

def test_committed_json_waitgraph_is_fresh(stale_docs):
    assert stale_docs("waitgraph", ".json") == [], "run `make artifacts`"


def test_committed_markdown_waitgraph_is_fresh(stale_docs):
    assert stale_docs("waitgraph", ".md") == [], "run `make artifacts`"


def test_committed_dot_files_are_fresh(artifact, stale_docs):
    assert artifact["techniques"], "no techniques in the wait graph"
    # Orphans too: a DOT file for a technique that no longer exists.
    assert stale_docs("waitgraph", ".dot") == [], "run `make artifacts`"


def test_waitgraph_is_generated_not_hand_written():
    text = (REPO / "docs" / "waitgraph.md").read_text()
    assert "Generated by" in text and "Do not edit by hand" in text


def test_regeneration_is_deterministic(artifact, source_contexts):
    # A second rebuild — new program index, new graphs (the per-run
    # caches are keyed on the identity of the context list) — must
    # produce the same bytes: the artifact may not depend on dict
    # iteration order, object identity, or anything else that varies
    # across runs.
    again = build_waitgraph_artifact(list(source_contexts))
    assert render_waitgraph_json(again) == render_waitgraph_json(artifact)
    assert render_waitgraph_markdown(again) == render_waitgraph_markdown(artifact)
    for technique in artifact["techniques"]:
        name = technique["technique"]
        assert render_waitgraph_dot(again, name) == render_waitgraph_dot(
            artifact, name
        )


# ---------------------------------------------------------------------------
# Structure: the graph names the ten techniques and resolves key edges
# ---------------------------------------------------------------------------

def test_artifact_covers_registered_techniques(artifact):
    names = {t["technique"] for t in artifact["techniques"]}
    assert set(REGISTRY) == names, (
        f"wait graph techniques differ from the registry: missing "
        f"{sorted(set(REGISTRY) - names)}, extra {sorted(names - set(REGISTRY))}"
    )


def test_two_pc_prepare_edge_is_resolved(artifact):
    # The canonical cross-handler wait edge in the tree: a session commit
    # blocks on the 2PC vote round, whose PREPARE call is served by the
    # participant handler.  If closure-following through coordinator.run
    # ever breaks, this edge silently disappears — fail loudly instead.
    edges = artifact["handler_wait_edges"]
    assert any(
        e["type"] == "2pc.prepare"
        and "TwoPhaseParticipant" in e["to"]
        for e in edges
    ), f"2pc.prepare wait edge missing from {edges}"


def test_two_pc_status_edge_follows_the_deferred_chase(artifact):
    # The participant's termination chase is not called from the PREPARE
    # handler: the handler binds it (``node.bind(self._chase, ...)``) and
    # a timer runs it later.  The edge exists only while the pass follows
    # a bound method handed to ``Node.bind`` / ``Node.after``.
    edges = artifact["handler_wait_edges"]
    assert any(
        e["from"] == "TwoPhaseParticipant._on_prepare_msg"
        and e["type"] == "2pc.status"
        and e["to"] == "TwoPhaseCoordinator._on_status"
        for e in edges
    ), f"2pc.status wait edge missing from {edges}"


def test_every_wait_edge_targets_a_real_handler(artifact):
    handlers = {
        h["handler"] for t in artifact["techniques"] for h in t["handlers"]
    }
    # Handlers outside the technique closures (db layer, e.g. the 2PC
    # termination protocol's status answerer) are still valid targets;
    # the artifact's global registration table is the full universe.
    registered = {h["handler"] for h in artifact["handlers"]}
    for edge in artifact["handler_wait_edges"]:
        assert edge["to"] in handlers | registered, (
            f"wait edge targets unknown handler: {edge}"
        )


def test_swept_tree_has_no_untimed_blocking_sites(artifact):
    assert artifact["summary"]["untimed"] == 0, (
        "untimed blocking sites crept in; run the linter (rule W501)"
    )


# ---------------------------------------------------------------------------
# Coverage: recorded lock and call traffic matches the static graph
# ---------------------------------------------------------------------------

@pytest.fixture
def called_types(monkeypatch):
    """Record the message type of every blocking ``Node.call`` issued."""
    records = []
    original = Node.call

    def recording_call(self, dst, mtype, timeout=None, **payload):
        records.append(mtype)
        return original(self, dst, mtype, timeout=timeout, **payload)

    monkeypatch.setattr(Node, "call", recording_call)
    return records


@pytest.mark.parametrize("technique", sorted(REGISTRY))
def test_static_graph_covers_recorded_blocking(
    technique, graph, artifact, called_types
):
    system, _driver, _summary = run_workload(
        RunSpec(technique, replicas=3, clients=2, seed=1301, observe=True,
                abcast="sequencer"),
        WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2),
        requests_per_client=3,
        think_time=5.0,
        settle=300.0,
    )
    observer = system.observer
    assert observer is not None

    # Every recorded lock acquisition matches a static lock site (item
    # pattern and, when the site resolved one, the mode).
    lock_sites = [s for s in graph.sites if s.kind == LOCK]
    lock_patterns = [
        (rendered, site.detail)
        for site in lock_sites
        for rendered in (p.replace(WILDCARD, "*") for p in site.patterns)
    ]
    uncovered_locks = {
        (item, mode)
        for (_site, _txn, item, mode) in observer.lock_sequence
        if not any(
            _matches(pattern, item) and site_mode in ("", mode)
            for pattern, site_mode in lock_patterns
        )
    }
    assert not uncovered_locks, (
        f"{technique}: recorded lock acquisitions missing from the static "
        f"wait graph: {sorted(uncovered_locks)}"
    )

    # A technique whose wait graph has no lock sites must not acquire
    # locks at runtime (and vice versa would be caught above).
    record = next(
        t for t in artifact["techniques"] if t["technique"] == technique
    )
    technique_lock_waits = [w for w in record["waits"] if w["kind"] == LOCK]
    if observer.lock_sequence:
        assert technique_lock_waits, (
            f"{technique}: runtime acquired {len(observer.lock_sequence)} "
            f"locks but its static wait graph has no lock sites"
        )

    # Every blocking call issued at runtime matches a static call-wait
    # pattern somewhere in the graph.
    call_patterns = [
        p.replace(WILDCARD, "*")
        for site in graph.sites
        if site.kind == CALL
        for p in site.patterns
    ]
    uncovered_calls = {
        mtype
        for mtype in called_types
        if not any(_matches(p, mtype) for p in call_patterns)
    }
    assert not uncovered_calls, (
        f"{technique}: blocking calls missing from the static wait graph: "
        f"{sorted(uncovered_calls)}"
    )
