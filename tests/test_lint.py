"""Tests for repro.lint: each rule family with passing and violating
fixtures, noqa suppression, output formats, and the assertion that the
shipped tree itself is clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Diagnostic, all_rules, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import lint_parsed, parse_paths
from repro.lint.interference import build_interference_artifact
from repro.lint.msgflow import build_graph
from repro.lint.waitgraph import build_waitgraph

REPO = Path(__file__).resolve().parent.parent


def tree(tmp_path, files):
    """Materialise ``{relative-path: source}`` under a src/repro layout."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return [str(tmp_path)]


def rules_of(diagnostics):
    return sorted({d.rule for d in diagnostics})


# ---------------------------------------------------------------------------
# Determinism family
# ---------------------------------------------------------------------------

def test_id_and_hash_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/sim/bad.py":
            "def name_for(obj):\n    return f'proc-{id(obj):x}'\n"
            "def seed_for(name):\n    return hash(name) % 97\n",
        "src/repro/sim/good.py":
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash((self.a, self.b))\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["D104", "D105"]
    assert all("bad.py" in d.file for d in found)


def test_set_iteration_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/groupcomm/bad.py":
            "pending = set()\n"
            "for item in pending:\n"
            "    print(item)\n"
            "ordered = list({'a', 'b'})\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["D106"]
    assert len(found) == 2


def test_sorted_set_iteration_allowed(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/groupcomm/good.py":
            "pending = set()\n"
            "for item in sorted(pending):\n"
            "    print(item)\n"
            "ok = all(x > 0 for x in pending)\n"
            "n = len(pending)\n",
    })
    assert run_lint(paths) == []


def test_self_attribute_set_tracked_across_methods(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py":
            "class Proto:\n"
            "    def __init__(self):\n"
            "        self._executed = set()\n"
            "    def replay(self):\n"
            "        for rid in self._executed:\n"
            "            print(rid)\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["D106"]


# The two loops of the lock table as it was before it kept held items in
# grant order and produced wait-for edges on demand: D106 saw neither,
# because the set is a container *value*, never bound to a name.
LOCK_TABLE_LOOPS = """\
from typing import Dict, List, Optional, Set


class LockManager:
    def __init__(self):
        self._held_by_txn: Dict[object, Set[str]] = {}
        self._queues: Dict[str, list] = {}

    def release_all(self, txn: object) -> None:
        for item in self._held_by_txn.pop(txn, set()):
            self._wake(item)

    def _find_cycle(self, start: object) -> Optional[List[object]]:
        graph = self._wait_for_graph()
        path: List[object] = []

        def dfs(txn: object) -> Optional[List[object]]:
            path.append(txn)
            for waited_on in graph.get(txn, ()):
                if waited_on in path:
                    return path[path.index(waited_on):]
            path.pop()
            return None

        return dfs(start)

    def _wait_for_graph(self) -> Dict[object, Set[object]]:
        graph: Dict[object, Set[object]] = {}
        for item, queue in self._queues.items():
            for request in queue:
                graph.setdefault(request.txn, set()).add(item)
        return graph
"""


def test_set_stored_as_container_value_flagged(tmp_path):
    paths = tree(tmp_path, {"src/repro/db/locks.py": LOCK_TABLE_LOOPS})
    found = run_lint(paths)
    assert rules_of(found) == ["D106"]
    assert [d.line for d in found] == [10, 19]
    assert "self._held_by_txn.pop(...)" in found[0].message
    assert "graph.get(...)" in found[1].message


def test_set_valued_mapping_idioms_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/bad.py":
            "from typing import Dict, Set\n"
            "def idioms(d, k):\n"
            "    for x in d.get(k, set()):\n"
            "        print(x)\n"
            "    for x in d.setdefault(k, set()):\n"
            "        print(x)\n"
            "    held = d.pop(k, set())\n"
            "    return list(held)\n"
            "def annotated(k):\n"
            "    index: Dict[str, Set[str]] = {}\n"
            "    for x in index[k]:\n"
            "        print(x)\n"
            "    return [x for x in index.get(k, ())]\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["D106"]
    assert [d.line for d in found] == [3, 5, 8, 11, 13]


def test_mapping_reads_that_hold_no_set_allowed(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/good.py":
            "from typing import Dict, List, Set\n"
            "def fine(d, k, graph):\n"
            "    queues: Dict[str, List[str]] = {}\n"
            "    index: Dict[str, Set[str]] = {}\n"
            "    for x in d.get(k, []):\n"
            "        print(x)\n"
            "    for x in queues.get(k, ()):\n"
            "        print(x)\n"
            "    for x in sorted(index.get(k, ())):\n"
            "        print(x)\n"
            "    def inner(index):\n"          # parameter shadows the mapping
            "        return list(index[k])\n"
            "    return len(index[k]), inner\n",
    })
    assert run_lint(paths) == []


def test_module_level_counter_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/bad.py":
            "import itertools\n"
            "from itertools import count\n"
            "_ids = itertools.count(1)\n"
            "class Table:\n"
            "    _shared = count()\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["D107"]
    assert len(found) == 2


def test_instance_counter_allowed(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/good.py":
            "import itertools\n"
            "class Table:\n"
            "    def __init__(self):\n"
            "        self._ids = itertools.count(1)\n",
    })
    assert run_lint(paths) == []


def test_determinism_rules_scoped_to_core_packages(tmp_path):
    # The same construct outside the deterministic core is not flagged:
    # analysis consumes traces after the run.
    paths = tree(tmp_path, {
        "src/repro/analysis/ok.py":
            "def name_for(obj):\n    return f'proc-{id(obj):x}'\n",
    })
    assert run_lint(paths) == []


# ---------------------------------------------------------------------------
# Message-flow family
# ---------------------------------------------------------------------------

def test_typoed_send_is_undeliverable_and_handler_dead(tmp_path):
    # One transposed letter: the send reaches nobody and the registered
    # handler starves (M402) — the exact failure mode the family exists
    # for.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'flow.requst', item=1)\n"
            "    def _on_req(self, message):\n"
            "        print(message['item'])\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["M402"]
    assert "'flow.request'" in found[0].message


def test_matched_send_and_handler_clean(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'flow.request', item=1)\n"
            "    def _on_req(self, message):\n"
            "        print(message['item'])\n",
    })
    assert run_lint(paths) == []


def test_message_types_resolved_across_modules(tmp_path):
    # The send spells its type through an f-string constant imported from
    # another module; the handler builds the same string from an __init__
    # parameter default.  The symbolic evaluator must unify them.
    paths = tree(tmp_path, {
        "src/repro/net/kinds.py":
            "PREFIX = 'svc'\nREQ = f'{PREFIX}.req'\n",
        "src/repro/core/client.py":
            "from ..net.kinds import REQ\n"
            "class Client:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "    def go(self):\n"
            "        self.node.call('server', REQ, timeout=5.0, q=1)\n",
        "src/repro/core/server.py":
            "class Server:\n"
            "    def __init__(self, node, prefix='svc'):\n"
            "        self._req = f'{prefix}.req'\n"
            "        node.on(self._req, self._on_req)\n"
            "    def _on_req(self, message):\n"
            "        print(message['q'])\n",
    })
    assert run_lint(paths) == []


def test_reply_to_a_call_is_clean(tmp_path):
    # A handler whose only sender is a ``call`` is live (M402), and the
    # reply that answers the call is not a finding.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.call('peer', 'flow.request', timeout=5.0, item=1)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n",
    })
    assert run_lint(paths) == []


GROUP_FIXTURE_PRIMITIVE = (
    "class ReliableBroadcast:\n"
    "    def __init__(self, node, transport, group, deliver,\n"
    "                 relay=True, trace=None, channel='rb.msg'):\n"
    "        self.deliver = deliver\n"
    "        self.channel = channel\n"
    "    def broadcast(self, mtype, **body):\n"
    "        pass\n"
)


def test_broadcast_mtype_guard_mismatch_flagged(tmp_path):
    # The deliver callback guards for 'apply' but the binding only ever
    # broadcasts 'aply': the guard waits forever (M402).
    paths = tree(tmp_path, {
        "src/repro/groupcomm/fixture.py":
            GROUP_FIXTURE_PRIMITIVE
            + "class App:\n"
              "    def __init__(self, node, transport, group):\n"
              "        self._rb = ReliableBroadcast(node, transport, group,\n"
              "                                     self._on_deliver,\n"
              "                                     channel='app.msg')\n"
              "    def go(self):\n"
              "        self._rb.broadcast('aply', item=1)\n"
              "    def _on_deliver(self, origin, mtype, body):\n"
              "        if mtype != 'apply':\n"
              "            return\n"
              "        print(body['item'])\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["M402"]
    assert "guards for mtype 'apply'" in found[0].message


def test_broadcast_binding_matched_is_clean(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/groupcomm/fixture.py":
            GROUP_FIXTURE_PRIMITIVE
            + "class App:\n"
              "    def __init__(self, node, transport, group):\n"
              "        self._rb = ReliableBroadcast(node, transport, group,\n"
              "                                     self._on_deliver,\n"
              "                                     channel='app.msg')\n"
              "    def go(self):\n"
              "        self._rb.broadcast('apply', item=1)\n"
              "    def _on_deliver(self, origin, mtype, body):\n"
              "        if mtype != 'apply':\n"
              "            return\n"
              "        print(body['item'])\n",
    })
    assert run_lint(paths) == []


# A base class broadcasts through ``self._rb``; only its subclass builds
# the primitive, so the send reaches the subclass's binding by inheritance.
INHERITED_SEND_FIXTURE = (
    "class Base:\n"
    "    def go(self):\n"
    "        self._rb.broadcast({mtype!r}, item=1)\n"
    "class App(Base):\n"
    "    def __init__(self, node, transport, group):\n"
    "        self._rb = ReliableBroadcast(node, transport, group,\n"
    "                                     self._on_deliver,\n"
    "                                     channel='app.msg')\n"
    "    def _on_deliver(self, origin, mtype, body):\n"
    "        if mtype != 'apply':\n"
    "            return\n"
    "        print(body['item'])\n"
)


def test_broadcast_from_inherited_method_mismatch_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/groupcomm/fixture.py":
            GROUP_FIXTURE_PRIMITIVE + INHERITED_SEND_FIXTURE.format(mtype="aply"),
    })
    found = run_lint(paths)
    assert rules_of(found) == ["M402"]
    assert "guards for mtype 'apply'" in found[0].message


def test_broadcast_from_inherited_method_counts_for_binding(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/groupcomm/fixture.py":
            GROUP_FIXTURE_PRIMITIVE + INHERITED_SEND_FIXTURE.format(mtype="apply"),
    })
    assert run_lint(paths) == []
    graph = build_graph(parse_paths(paths)[0])
    sends = graph.sends_for_binding("App", "_rb")
    assert [(send.owner, sorted(send.patterns)) for send in sends] == [
        ("Base", ["apply"])
    ]


def test_on_default_catches_everything(tmp_path):
    # An on_default registration serves every type, so M402 never
    # reports it dead.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Sink:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on_default(self._on_any)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'whatever.type', item=1)\n"
            "    def _on_any(self, message):\n"
            "        print(message)\n",
    })
    assert run_lint(paths) == []


# ---------------------------------------------------------------------------
# Suppression, CLI
# ---------------------------------------------------------------------------

def test_noqa_suppresses_named_rule(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/ok.py":
            "def name_for(obj):\n"
            "    return id(obj)  # repro: noqa D104\n",
    })
    assert run_lint(paths) == []


def test_noqa_bare_suppresses_all_rules(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/ok.py":
            "def name_for(obj):\n"
            "    return id(obj)  # repro: noqa\n",
    })
    assert run_lint(paths) == []


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py":
            "def name_for(obj):\n"
            "    return id(obj)  # repro: noqa D105\n",
    })
    assert rules_of(run_lint(paths)) == ["D104"]


def test_select_and_ignore(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py":
            "def name_for(obj):\n"
            "    return id(obj)\n"
            "def register(node, handler):\n"
            "    node.on('never.sent', handler)\n",
    })
    assert rules_of(run_lint(paths)) == ["D104", "M402"]
    assert rules_of(run_lint(paths, select=["D104"])) == ["D104"]
    assert rules_of(run_lint(paths, select=["M"])) == ["M402"]
    assert rules_of(run_lint(paths, ignore=["D"])) == ["M402"]
    with pytest.raises(KeyError):
        run_lint(paths, select=["Z999"])


def test_syntax_error_reported_not_raised(tmp_path):
    paths = tree(tmp_path, {"src/repro/core/broken.py": "def f(:\n"})
    found = run_lint(paths)
    assert rules_of(found) == ["E001"]


def test_cli_json_output_round_trips(tmp_path, capsys):
    tree(tmp_path, {
        "src/repro/core/bad.py": "def name_for(obj):\n    return id(obj)\n",
    })
    exit_code = lint_main([str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload[0]["rule"] == "D104"
    assert payload[0]["line"] == 2
    assert set(payload[0]) == {"file", "line", "col", "rule", "severity",
                              "message"}


def test_cli_exit_zero_and_list_rules(tmp_path, capsys):
    tree(tmp_path, {"src/repro/core/ok.py": "x = 1\n"})
    assert lint_main([str(tmp_path)]) == 0
    assert lint_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in ("D104", "D106", "M402", "W501", "R604"):
        assert rule_id in listing


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert lint_main([missing]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_cli_sarif_carries_same_findings_as_json(tmp_path, capsys):
    tree(tmp_path, {
        "src/repro/core/bad.py":
            "def name_for(obj):\n"
            "    return id(obj)\n"
            "def register(node, handler):\n"
            "    node.on('no.sender', handler)\n",
    })
    assert lint_main([str(tmp_path), "--format", "json"]) == 1
    as_json = json.loads(capsys.readouterr().out)
    assert lint_main([str(tmp_path), "--format", "sarif"]) == 1
    sarif = json.loads(capsys.readouterr().out)

    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    from_json = {(d["file"], d["line"], d["rule"]) for d in as_json}
    from_sarif = {
        (
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"],
            r["locations"][0]["physicalLocation"]["region"]["startLine"],
            r["ruleId"],
        )
        for r in run["results"]
    }
    assert from_json == from_sarif
    assert {"D104", "M402"} <= {r["ruleId"] for r in run["results"]}
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {r["ruleId"] for r in run["results"]} <= declared


def test_cli_catalog_write_and_check(tmp_path, capsys, monkeypatch):
    from repro.__main__ import main as repro_main

    tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'flow.request', item=1)\n"
            "    def _on_req(self, message):\n"
            "        print(message['item'])\n",
    })
    # The command reads src/repro under the working directory.
    monkeypatch.chdir(tmp_path)
    command = ["artifacts", "messages", "--docs", "out"]
    assert repro_main(command) == 0
    capsys.readouterr()
    markdown = tmp_path / "out" / "messages.md"
    sibling = tmp_path / "out" / "messages.json"
    assert markdown.exists() and sibling.exists()
    assert "flow.request" in markdown.read_text()
    payload = json.loads(sibling.read_text())
    record = next(
        t for t in payload["types"] if t["type"] == "flow.request"
    )
    assert record["payload_keys"] == ["item"]
    assert record["required_reads"] == ["item"]

    # Fresh catalog: check mode passes.
    assert repro_main(command + ["--check"]) == 0
    assert "messages: up to date" in capsys.readouterr().out

    # Source drifts: check mode fails and names the stale files.
    flow = tmp_path / "src" / "repro" / "core" / "flow.py"
    flow.write_text(
        flow.read_text().replace("item=1", "item=1, extra=2")
    )
    assert repro_main(command + ["--check"]) == 1
    stderr = capsys.readouterr().err
    assert "out/messages.md: stale" in stderr
    assert "out/messages.json: stale" in stderr
    assert "python -m repro artifacts --docs out messages" in stderr


# ---------------------------------------------------------------------------
# Wait-graph family
# ---------------------------------------------------------------------------

def test_w501_untimed_call_fires(tmp_path):
    # The call has a registered, replying handler (so no M4xx noise) but
    # no timeout: a crash of the callee hangs the caller forever.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.req', self._on_req)\n"
            "    def kick(self):\n"
            "        yield self.node.call('peer', 'flow.req', item=1)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["W501"]
    assert "timeout" in found[0].message
    assert "flow.req" in found[0].message


def test_w501_untimed_lock_fires(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/work.py":
            "class Work:\n"
            "    def __init__(self, locks):\n"
            "        self.locks = locks\n"
            "    def go(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w')\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["W501"]
    assert "deadlock" in found[0].message


def test_w501_timed_sites_clean(tmp_path):
    # timeout= on the call and the acquire, and txn.read/write (which
    # always forward the manager's lock_timeout) all pass.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node, locks):\n"
            "        self.node = node\n"
            "        self.locks = locks\n"
            "        node.on('flow.req', self._on_req)\n"
            "    def kick(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        value = yield txn.read('beta')\n"
            "        yield self.node.call('peer', 'flow.req', item=value,\n"
            "                             timeout=10.0)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n",
    })
    assert run_lint(paths) == []


def test_base_class_call_resolves_through_subclass_attribute(tmp_path):
    # Base.go calls self.ab.kick(), and only the subclass builds self.ab:
    # the callee edge (and so the untimed call inside kick) must still be
    # in go's closure.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.req', self._on_req)\n"
            "    def kick(self):\n"
            "        yield self.node.call('peer', 'flow.req', item=1)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
            "class Base:\n"
            "    def go(self):\n"
            "        yield from self.ab.kick()\n"
            "class App(Base):\n"
            "    def __init__(self, node):\n"
            "        self.ab = Widget(node)\n",
    })
    graph = build_waitgraph(parse_paths(paths)[0])
    go = "repro.core.flow.Base.go"
    assert "repro.core.flow.Widget.kick" in graph.funcs[go].callees
    assert [site.kind for site in graph.closure_waits(go)] == ["call"]


# ---------------------------------------------------------------------------
# Interference family
# ---------------------------------------------------------------------------

# The technique-entry machinery resolves protocol classes through the
# MRO, so interference fixtures ship a stub base module the prelude
# imports resolve to (the real one is not part of the fixture tree).
PROTOCOL_PRELUDE = """\
from repro.core.phases import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep
from repro.core.protocols.base import ProtocolInfo, ReplicaProtocol
"""


def protocol_class(name, steps, body):
    step_src = ", ".join(f"PhaseStep({s})" for s in steps)
    return (
        f"class {name}(ReplicaProtocol):\n"
        f"    info = ProtocolInfo(\n"
        f"        name='{name.lower()}', title='{name}', figure='Figure 0',\n"
        f"        community='ds',\n"
        f"        descriptor=PhaseDescriptor(\n"
        f"            steps=({step_src},),\n"
        f"        ),\n"
        f"    )\n"
        f"{body}"
    )


INTERFERENCE_BASE = (
    "class ProtocolInfo:\n"
    "    def __init__(self, **kwargs):\n"
    "        self.kwargs = kwargs\n"
    "class ReplicaProtocol:\n"
    "    pass\n"
)


def interference_tree(tmp_path, fixture_source):
    return tree(tmp_path, {
        "src/repro/core/protocols/base.py": INTERFERENCE_BASE,
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE + fixture_source,
    })


def test_r601_stale_snapshot_across_wait_fires(tmp_path):
    # `cached` captures self.epoch_state before the call and is used
    # after resumption while _on_bump (dispatchable meanwhile) writes it.
    paths = interference_tree(
        tmp_path,
        protocol_class("StaleProto", ["RE", "EX", "END"], (
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('sp.bump', self._on_bump)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        cached = self.epoch_state\n"
            "        yield self.node.call('peer', 'sp.bump', value=1,\n"
            "                             timeout=5.0)\n"
            "        self.respond(client, request, committed=True,\n"
            "                     values=[cached])\n"
            "    def _on_bump(self, message):\n"
            "        self.epoch_state = message['value']\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    found = run_lint(paths)
    assert rules_of(found) == ["R601"]
    assert "self.epoch_state" in found[0].message
    assert "re-read" in found[0].message


def test_r601_post_wait_reread_clean(tmp_path):
    # Same shape, but the attribute is read *after* the wait: no
    # snapshot crosses a suspension, so nothing can go stale.
    paths = interference_tree(
        tmp_path,
        protocol_class("FreshProto", ["RE", "EX", "END"], (
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('fp.bump', self._on_bump)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        yield self.node.call('peer', 'fp.bump', value=1,\n"
            "                             timeout=5.0)\n"
            "        cached = self.epoch_state\n"
            "        self.respond(client, request, committed=True,\n"
            "                     values=[cached])\n"
            "    def _on_bump(self, message):\n"
            "        self.epoch_state = message['value']\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    assert run_lint(paths) == []


def test_r602_unrevalidated_guard_fires(tmp_path):
    # is_primary is checked, the handler suspends on a call, and the
    # client-visible respond happens without re-checking the role.
    paths = interference_tree(
        tmp_path,
        protocol_class("GuardProto", ["RE", "EX", "END"], (
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('gp.ack', self._on_ack)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        if not self.is_primary:\n"
            "            return\n"
            "        yield self.node.call('peer', 'gp.ack', timeout=5.0)\n"
            "        self.respond(client, request, committed=True)\n"
            "    def _on_ack(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    found = run_lint(paths)
    assert rules_of(found) == ["R602"]
    assert "self.is_primary" in found[0].message
    assert "re-check" in found[0].message


def test_r602_fenced_guard_clean(tmp_path):
    # The positive fencing shape: the guard is re-validated after the
    # wait, before the externally-visible respond.
    paths = interference_tree(
        tmp_path,
        protocol_class("FencedProto", ["RE", "EX", "END"], (
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('fn.ack', self._on_ack)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        if not self.is_primary:\n"
            "            return\n"
            "        yield self.node.call('peer', 'fn.ack', timeout=5.0)\n"
            "        if not self.is_primary:\n"
            "            return\n"
            "        self.respond(client, request, committed=True)\n"
            "    def _on_ack(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    assert run_lint(paths) == []


def test_r604_payload_mutation_fires(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('wd.req', self._on_req)\n"
            "    def kick(self):\n"
            "        yield self.node.call('peer', 'wd.req', item=1,\n"
            "                             timeout=5.0)\n"
            "    def _on_req(self, message):\n"
            "        message['seen'] = True\n"
            "        self.node.reply(message, ok=True)\n",
    })
    found = run_lint(paths)
    assert rules_of(found) == ["R604"]
    assert "item assignment" in found[0].message
    assert "copy before" in found[0].message


def test_r604_copy_first_clean(tmp_path):
    # Rebinding the parameter to a copy first makes later mutations
    # local: the received payload itself is never touched.
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('wd.req', self._on_req)\n"
            "    def kick(self):\n"
            "        yield self.node.call('peer', 'wd.req', item=1,\n"
            "                             timeout=5.0)\n"
            "    def _on_req(self, message):\n"
            "        original = message\n"
            "        message = dict(original)\n"
            "        message['seen'] = True\n"
            "        self.node.reply(original, ok=True)\n",
    })
    assert run_lint(paths) == []


def test_overridden_handle_request_is_not_an_entry(tmp_path):
    # Two techniques share a base's handle_request; one overrides it and
    # reaches the shared code through a self call.  For that one, only
    # the override is an entry, and its closure holds the shared writes.
    plain = protocol_class("PlainProto", ["RE", "EX", "END"], "")
    guard = protocol_class("GuardProto", ["RE", "EX", "END"], (
        "    def handle_request(self, request, client):\n"
        "        if request.request_id not in self.queue:\n"
        "            self._admit(request)\n"
    ))
    paths = interference_tree(tmp_path, (
        "class Admitting(ReplicaProtocol):\n"
        "    def handle_request(self, request, client):\n"
        "        self._admit(request)\n"
        "    def _admit(self, request):\n"
        "        self.admitted = request\n"
    ) + (plain + guard).replace("(ReplicaProtocol)", "(Admitting)"))
    artifact = build_interference_artifact(parse_paths(paths)[0])
    entries = {t["technique"]: t["handlers"] for t in artifact["techniques"]}
    assert sorted(entries) == ["guardproto", "plainproto"]
    assert [h["handler"] for h in entries["plainproto"]] == ["Admitting.handle_request"]
    [entry] = entries["guardproto"]
    assert entry["handler"] == "GuardProto.handle_request"
    assert "ReplicaProtocol.queue" in entry["reads"]
    assert entry["writes"] == ["ReplicaProtocol.admitted"]


def test_cli_select_filters_rules(tmp_path, capsys):
    paths = tree(tmp_path, {
        "src/repro/core/names.py":
            "def name_for(obj):\n"
            "    return id(obj)\n",
    })
    # The D104 finding is invisible through the M4 family...
    assert lint_main(paths + ["--select", "M4"]) == 0
    capsys.readouterr()
    # ...reported through its own family...
    assert lint_main(paths + ["--select", "D1"]) == 1
    assert "id()" in capsys.readouterr().out
    # ...and a rule id narrows further within the family.
    assert lint_main(paths + ["--select", "D105"]) == 0
    capsys.readouterr()
    # Unknown selectors are usage errors, not silence.
    assert lint_main(paths + ["--select", "X9"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_sarif_rules_table_documents_whole_registry(capsys):
    # Satellite of the W5xx PR: the SARIF driver table must document
    # every registered rule with real metadata, not placeholders, so CI
    # annotations link into docs/linting.md even for rules that did not
    # fire in a given run.
    from repro.lint.diagnostics import render_sarif

    log = json.loads(render_sarif([]))
    entries = log["runs"][0]["tool"]["driver"]["rules"]
    declared = {entry["id"] for entry in entries}
    assert {r.id for r in all_rules()} == declared
    assert {"W501"} <= declared
    assert {"R601", "R602", "R604"} <= declared
    for entry in entries:
        assert entry["helpUri"].startswith("docs/linting.md"), entry["id"]
        assert entry["shortDescription"]["text"], entry["id"]
        assert entry["fullDescription"]["text"], entry["id"]
        if entry["id"].startswith("W"):
            assert entry["helpUri"].endswith("#wait-graph-w5xx"), entry["id"]
        if entry["id"].startswith("R"):
            assert entry["helpUri"].endswith("#interference-r6xx"), entry["id"]


def test_rule_catalogue_has_docs():
    for entry in all_rules():
        assert entry.doc, f"rule {entry.id} has no documentation"
        assert entry.summary
        assert entry.severity in ("error", "warning")


def test_diagnostic_fingerprint_ignores_line_numbers():
    a = Diagnostic("f.py", 10, "D104", "error", "msg")
    b = Diagnostic("f.py", 99, "D104", "error", "msg")
    assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# The shipped tree is clean
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean(source_contexts):
    found = lint_parsed(source_contexts)
    assert found == [], "\n".join(d.render() for d in found)


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src/repro", "--format", "json"],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == []
