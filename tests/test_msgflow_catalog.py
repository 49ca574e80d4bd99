"""Dynamic twin of the static message-flow pass (repro.lint M4xx).

The generated protocol catalog (``docs/messages.md`` + JSON) claims to
name every string-typed message the tree can put on the wire.  This
module holds it to that claim in both directions the linter cannot check
on its own:

* **freshness** — the committed catalog files equal what the pass
  regenerates from today's sources (``make artifacts-check``, through
  the same ``repro.artifacts.check``);
* **coverage** — a recording shim under ``Network.send`` captures every
  envelope a seeded workload produces, for all ten registered
  techniques and for one run behind the retrying client edge, and each
  observed type (outer envelope, reliable-transport
  ``inner_type``, and group-layer ``mtype``) must match a catalog
  pattern.  A message the static pass failed to resolve at all would
  show up here as an uncovered type.
"""

from pathlib import Path

import pytest

from repro import REGISTRY, ReplicatedSystem, RunSpec
from repro.lint.msgflow import build_catalog, pattern_matches
from repro.lint.symeval import WILDCARD
from repro.net.network import Network
from repro.resilience import retrying_client
from repro.workload import (
    ClosedPopulation,
    OpenLoopEngine,
    WorkloadGenerator,
    WorkloadSpec,
    run_workload,
)

REPO = Path(__file__).resolve().parent.parent


def _matches(rendered: str, concrete: str) -> bool:
    """Match a catalog pattern (``*`` = unresolved fragment) to a type."""
    return pattern_matches(rendered.replace("*", WILDCARD), concrete)


@pytest.fixture(scope="module")
def catalog(source_contexts):
    """The catalog rebuilt from sources, with repo-relative locations."""
    return build_catalog(source_contexts)


# ---------------------------------------------------------------------------
# Freshness: committed files == regenerated catalog
# ---------------------------------------------------------------------------

def test_committed_json_catalog_is_fresh(stale_docs):
    assert stale_docs("messages", ".json") == [], "run `make artifacts`"


def test_committed_markdown_catalog_is_fresh(stale_docs):
    assert stale_docs("messages", ".md") == [], "run `make artifacts`"


def test_catalog_is_generated_not_hand_written():
    text = (REPO / "docs" / "messages.md").read_text()
    assert "Generated by" in text and "Do not edit by hand" in text


# ---------------------------------------------------------------------------
# Coverage: every dynamically observed type matches a catalog pattern
# ---------------------------------------------------------------------------

@pytest.fixture
def wire(monkeypatch):
    """Record ``(type, payload)`` for every envelope entering the network."""
    records = []
    original = Network.send

    def recording_send(self, src, dst, type, payload=None, reply_to=None,
                       deadline=None):
        records.append((type, dict(payload) if payload else {}, deadline))
        return original(self, src, dst, type, payload=payload,
                        reply_to=reply_to, deadline=deadline)

    monkeypatch.setattr(Network, "send", recording_send)
    return records


def _assert_covered(label, catalog, wire):
    assert wire, f"{label}: workload produced no network traffic"

    type_patterns = [record["type"] for record in catalog["types"]]
    uncovered_outer = set()
    uncovered_inner = set()
    mtype_pairs = set()
    for outer, payload, _deadline in wire:
        if not any(_matches(p, outer) for p in type_patterns):
            uncovered_outer.add(outer)
        if outer != "rt.data":
            continue
        inner = payload["inner_type"]
        if not any(_matches(p, inner) for p in type_patterns):
            uncovered_inner.add(inner)
        body = payload.get("body")
        if isinstance(body, dict) and isinstance(body.get("mtype"), str):
            mtype_pairs.add((inner, body["mtype"]))

    assert not uncovered_outer, (
        f"{label}: envelope types missing from the catalog: "
        f"{sorted(uncovered_outer)}"
    )
    assert not uncovered_inner, (
        f"{label}: transport inner types missing from the catalog: "
        f"{sorted(uncovered_inner)}"
    )

    bindings = catalog["broadcast_bindings"]
    uncovered_mtypes = {
        (inner, mtype)
        for inner, mtype in mtype_pairs
        if not any(
            any(_matches(scope, inner) for scope in binding["scopes"])
            and any(_matches(m, mtype) for m in binding["mtypes"])
            for binding in bindings
        )
    }
    assert not uncovered_mtypes, (
        f"{label}: group-layer mtypes missing from every binding: "
        f"{sorted(uncovered_mtypes)}"
    )


@pytest.mark.parametrize("technique", sorted(REGISTRY))
def test_catalog_covers_dynamic_traffic(technique, catalog, wire):
    run_workload(
        RunSpec(technique, replicas=3, clients=2, seed=1301, abcast="sequencer"),
        WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2),
        requests_per_client=3,
        think_time=5.0,
        settle=300.0,
    )
    _assert_covered(technique, catalog, wire)


def test_catalog_covers_retrying_edge_traffic(catalog, wire):
    """Behind the retrying policy every request carries a budget, so its
    ``client.request`` envelopes are deadline-stamped — sent through
    ``Network.send(..., deadline=)`` rather than ``Node.send``."""
    system = ReplicatedSystem("passive", replicas=3, clients=0, seed=1301)
    for index in range(2):
        retrying_client(system, index=index)
    generator = WorkloadGenerator(
        WorkloadSpec(items=6, read_fraction=0.3, ops_per_transaction=2),
        seed=1301,
    )
    population = ClosedPopulation.thinking(
        requests=3, think_time=5.0, retry_aborts=False
    )
    OpenLoopEngine(system, generator, population).run(settle=300)
    stamped = [
        deadline for outer, _payload, deadline in wire
        if outer == "client.request"
    ]
    assert stamped and all(deadline is not None for deadline in stamped)
    _assert_covered("passive behind retrying_client", catalog, wire)
