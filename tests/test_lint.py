"""Tests for repro.lint: each rule family with passing and violating
fixtures, suppression/baseline mechanics, output formats, and the
assertion that the shipped tree itself is clean."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Baseline, Diagnostic, all_rules, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.engine import lint_parsed

REPO = Path(__file__).resolve().parent.parent
BASELINE = REPO / "lint-baseline.txt"


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

def test_global_random_call_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py": "import random\nx = random.random()\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["D101"]
    assert found[0].line == 2


def test_seeded_random_instance_allowed(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/good.py":
            "import random\nrng = random.Random(42)\nx = rng.random()\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_from_random_import_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/bad.py": "from random import choice\n",
        "src/repro/db/good.py": "from random import Random\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["D102"]
    assert all("bad.py" in d.file for d in found)


def test_wall_clock_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/net/bad.py":
            "import time\nimport os\n"
            "t = time.time()\ne = os.urandom(8)\n",
        "src/repro/net/bad2.py": "from time import monotonic\n",
        "src/repro/net/bad3.py":
            "import datetime\nnow = datetime.datetime.now()\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["D103"]
    assert len(found) == 4


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
    found = run_lint(paths, baseline=None)
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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


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
    found = run_lint(paths, baseline=None)
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
    found = run_lint(paths, baseline=None)
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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


def test_module_level_counter_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/bad.py":
            "import itertools\n"
            "from itertools import count\n"
            "_ids = itertools.count(1)\n"
            "class Table:\n"
            "    _shared = count()\n",
    })
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


def test_determinism_rules_scoped_to_core_packages(tmp_path):
    # The same construct outside the deterministic core is not flagged:
    # analysis consumes traces after the run.
    paths = tree(tmp_path, {
        "src/repro/analysis/ok.py": "import random\nx = random.random()\n",
    })
    assert run_lint(paths, baseline=None) == []


# ---------------------------------------------------------------------------
# Layering family
# ---------------------------------------------------------------------------

def test_upward_import_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/sim/bad.py": "from repro.core import ReplicatedSystem\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["L201"]
    assert "layer 'sim'" in found[0].message


def test_relative_upward_import_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/net/bad.py": "from ..groupcomm import abcast\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["L201"]


def test_downward_import_allowed(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/net/good.py":
            "from repro.errors import ReproError\nfrom ..sim import Simulator\n",
        "src/repro/core/good.py": "from ..groupcomm import abcast\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_package_init_relative_imports_resolve_to_own_package(tmp_path):
    # ``from .child import x`` inside pkg/__init__.py targets pkg itself.
    paths = tree(tmp_path, {
        "src/repro/db/__init__.py": "from .storage import DataStore\n",
        "src/repro/db/storage.py": "class DataStore: pass\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_undeclared_package_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/shiny/new.py": "x = 1\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["L202"]
    assert "ALLOWED_DEPS" in found[0].message


# ---------------------------------------------------------------------------
# Protocol-contract family
# ---------------------------------------------------------------------------

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
        f"            technique='{name.lower()}', steps=({step_src},),\n"
        f"        ),\n"
        f"    )\n"
        f"{body}"
    )


def test_consistent_protocol_is_clean(tmp_path):
    body = (
        "    def handle_request(self, request, client):\n"
        "        self.phase(request.request_id, EX)\n"
        "        self.phase(request.request_id, AC, '2pc')\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("GoodProto", ["RE", "EX", "AC", "END"], body),
    })
    assert run_lint(paths, baseline=None) == []


def test_missing_protocol_info_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + "class Anon(ReplicaProtocol):\n"
              "    def handle_request(self, request, client):\n"
              "        self.respond(client, request, committed=True)\n",
    })
    found = run_lint(paths, baseline=None)
    assert "P301" in rules_of(found)


def test_generator_handle_request_flagged(tmp_path):
    body = (
        "    def handle_request(self, request, client):\n"
        "        values = yield self.tm.begin()\n"
        "        self.phase(request.request_id, EX)\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("GenProto", ["RE", "EX", "END"], body),
    })
    found = run_lint(paths, baseline=None)
    assert "P302" in rules_of(found)
    assert any("synchronously" in d.message for d in found)


def test_spawned_generator_helper_is_fine(tmp_path):
    body = (
        "    def handle_request(self, request, client):\n"
        "        self.replica.node.spawn(self._execute(request, client))\n"
        "    def _execute(self, request, client):\n"
        "        self.phase(request.request_id, EX)\n"
        "        yield self.sim.timeout(1.0)\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("SpawnProto", ["RE", "EX", "END"], body),
    })
    assert run_lint(paths, baseline=None) == []


def test_emitting_undeclared_phase_flagged(tmp_path):
    # Declares RE EX END but also emits AC: drifted from its row.
    body = (
        "    def handle_request(self, request, client):\n"
        "        self.phase(request.request_id, EX)\n"
        "        self.phase(request.request_id, AC, '2pc')\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("DriftProto", ["RE", "EX", "END"], body),
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["P303"]
    assert any("emits phase AC" in d.message for d in found)


def test_declared_phase_never_emitted_flagged(tmp_path):
    # Claims Server Coordination in its row but has no SC emission.
    body = (
        "    def handle_request(self, request, client):\n"
        "        self.phase(request.request_id, EX)\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("LiarProto", ["RE", "SC", "EX", "END"], body),
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["P303"]
    assert any("declares phase SC" in d.message for d in found)


def test_unknown_phase_literal_flagged(tmp_path):
    body = (
        "    def handle_request(self, request, client):\n"
        "        self.phase(request.request_id, 'WARMUP')\n"
        "        self.respond(client, request, committed=True)\n"
    )
    paths = tree(tmp_path, {
        "src/repro/core/protocols/fixture.py":
            PROTOCOL_PRELUDE
            + protocol_class("OddProto", ["RE", "END"], body),
    })
    found = run_lint(paths, baseline=None)
    assert "P304" in rules_of(found)


def test_all_registered_techniques_statically_verified():
    """The contract rule must actually resolve — not skip — every
    registered technique's declared phase row."""
    import ast

    from repro import REGISTRY
    from repro.lint.contracts import _declared_phases, _find_info_assign

    protocol_dir = REPO / "src" / "repro" / "core" / "protocols"
    resolved = {}
    for path in protocol_dir.glob("*.py"):
        module = ast.parse(path.read_text())
        for node in ast.walk(module):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _find_info_assign(node)
            if info is None:
                continue
            declared = _declared_phases(info)
            assert declared, f"{node.name}: phase row not statically resolvable"
            resolved[node.name] = declared
    assert len(resolved) >= len(REGISTRY)
    for cls in REGISTRY.values():
        assert cls.__name__ in resolved


def test_misdeclaring_a_real_technique_is_caught(tmp_path):
    """Acceptance fixture: drop one declared phase from a real registered
    technique's source and the contract rule reports the drift."""
    source = (REPO / "src/repro/core/protocols/active.py").read_text()
    mutated = source.replace("PhaseStep(EX),\n", "")
    assert mutated != source, "mutation did not apply"
    paths = tree(tmp_path, {
        "src/repro/core/protocols/active.py": mutated,
        "src/repro/core/protocols/base.py":
            (REPO / "src/repro/core/protocols/base.py").read_text(),
    })
    found = [d for d in run_lint(paths, baseline=None) if d.rule == "P303"]
    assert found
    assert any("emits phase EX" in d.message for d in found)


# ---------------------------------------------------------------------------
# Message-flow family
# ---------------------------------------------------------------------------

def test_typoed_send_is_undeliverable_and_handler_dead(tmp_path):
    # One transposed letter: the send reaches nobody (M401) and the
    # registered handler starves (M402) — the exact failure mode the
    # family exists for.
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
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["M401", "M402"]
    assert any("flow.requst" in d.message for d in found)


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
    assert run_lint(paths, baseline=None) == []


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
    assert run_lint(paths, baseline=None) == []


def test_payload_key_never_sent_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'flow.request', item=1)\n"
            "    def _on_req(self, message):\n"
            "        print(message['item'], message['missing'])\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["M403"]
    assert "missing" in found[0].message
    assert "KeyError" in found[0].message


def test_optional_get_and_open_splat_mute_schema_check(tmp_path):
    paths = tree(tmp_path, {
        # .get() reads are optional by definition.
        "src/repro/core/a.py":
            "class A:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('a.msg', self._on)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'a.msg', item=1)\n"
            "    def _on(self, message):\n"
            "        print(message.get('maybe'))\n",
        # A **splat send makes the type's schema open.
        "src/repro/core/b.py":
            "class B:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('b.msg', self._on)\n"
            "    def kick(self, extras):\n"
            "        self.node.send('peer', 'b.msg', **extras)\n"
            "    def _on(self, message):\n"
            "        print(message['anything'])\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_reply_without_call_flagged(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/flow.py":
            "class Widget:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('flow.request', self._on_req)\n"
            "    def kick(self):\n"
            "        self.node.send('peer', 'flow.request', item=1)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["M404"]
    assert found[0].severity == "warning"
    assert "fire-and-forget" in found[0].message


def test_reply_to_a_call_is_clean(tmp_path):
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
    assert run_lint(paths, baseline=None) == []


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
    # broadcasts 'aply': undeliverable on that binding (M401) and the
    # guard waits forever (M402).
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
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["M401", "M402"]
    assert any("aply" in d.message for d in found)
    assert any("guards for mtype 'apply'" in d.message for d in found)


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
    assert run_lint(paths, baseline=None) == []


def test_broadcast_body_key_never_sent_flagged(tmp_path):
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
              "        print(body['absent'])\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["M403"]
    assert "absent" in found[0].message


def test_on_default_catches_everything(tmp_path):
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
    assert run_lint(paths, baseline=None) == []


# ---------------------------------------------------------------------------
# Suppression, baseline, CLI
# ---------------------------------------------------------------------------

def test_noqa_suppresses_named_rule(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/ok.py":
            "import random\n"
            "x = random.random()  # repro: noqa D101\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_noqa_bare_suppresses_all_rules(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/ok.py":
            "import random\n"
            "x = random.random()  # repro: noqa\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_noqa_for_other_rule_does_not_suppress(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py":
            "import random\n"
            "x = random.random()  # repro: noqa D103\n",
    })
    assert rules_of(run_lint(paths, baseline=None)) == ["D101"]


def test_baseline_grandfathers_existing_findings(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py": "import random\nx = random.random()\n",
    })
    found = run_lint(paths, baseline=None)
    assert found
    baseline_file = tmp_path / "baseline.txt"
    Baseline.from_diagnostics(found).save(str(baseline_file))
    assert run_lint(paths, baseline=str(baseline_file)) == []
    # A *new* finding still surfaces.
    (tmp_path / "src/repro/core/bad.py").write_text(
        "import random\nx = random.random()\ny = random.randint(0, 3)\n"
    )
    remaining = run_lint(paths, baseline=str(baseline_file))
    assert len(remaining) == 1
    assert "randint" in remaining[0].message


def test_select_and_ignore(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/bad.py":
            "import random\nfrom repro.workload import driver\n"
            "x = random.random()\n",
    })
    assert rules_of(run_lint(paths, select=["D101"], baseline=None)) == ["D101"]
    assert rules_of(run_lint(paths, select=["L"], baseline=None)) == ["L201"]
    assert rules_of(run_lint(paths, ignore=["D"], baseline=None)) == ["L201"]
    with pytest.raises(KeyError):
        run_lint(paths, select=["Z999"], baseline=None)


def test_syntax_error_reported_not_raised(tmp_path):
    paths = tree(tmp_path, {"src/repro/core/broken.py": "def f(:\n"})
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["E001"]


def test_cli_json_output_round_trips(tmp_path, capsys):
    tree(tmp_path, {
        "src/repro/core/bad.py": "import random\nx = random.random()\n",
    })
    exit_code = lint_main([str(tmp_path), "--format", "json", "--no-baseline"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload[0]["rule"] == "D101"
    assert payload[0]["line"] == 2
    assert set(payload[0]) == {"file", "line", "col", "rule", "severity",
                              "message"}


def test_cli_exit_zero_and_list_rules(tmp_path, capsys):
    tree(tmp_path, {"src/repro/core/ok.py": "x = 1\n"})
    assert lint_main([str(tmp_path), "--no-baseline"]) == 0
    assert lint_main(["--list-rules"]) == 0
    listing = capsys.readouterr().out
    for rule_id in ("D101", "D106", "L201", "P303"):
        assert rule_id in listing


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert lint_main([missing]) == 2
    assert "no such file or directory" in capsys.readouterr().err


def test_cli_write_baseline(tmp_path, capsys):
    tree(tmp_path, {
        "src/repro/core/bad.py": "import random\nx = random.random()\n",
    })
    baseline_file = tmp_path / "bl.txt"
    assert lint_main([str(tmp_path), "--write-baseline",
                      "--baseline", str(baseline_file)]) == 0
    assert lint_main([str(tmp_path), "--baseline", str(baseline_file)]) == 0


def test_cli_sarif_carries_same_findings_as_json(tmp_path, capsys):
    tree(tmp_path, {
        "src/repro/core/bad.py":
            "import random\n"
            "x = random.random()\n"
            "def kick(node):\n"
            "    node.send('peer', 'no.handler', item=1)\n",
    })
    assert lint_main([str(tmp_path), "--format", "json", "--no-baseline"]) == 1
    as_json = json.loads(capsys.readouterr().out)
    assert lint_main([str(tmp_path), "--format", "sarif", "--no-baseline"]) == 1
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
    assert {"D101", "M401"} <= {r["ruleId"] for r in run["results"]}
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
    found = run_lint(paths, baseline=None)
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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


def test_w502_wait_cycle_fires(tmp_path):
    # Each handler spawns a generator that blocks on a reply the *other*
    # handler serves; both calls are timed, so only the cycle itself is
    # the finding: a static distributed deadlock.
    paths = tree(tmp_path, {
        "src/repro/core/ping.py":
            "class Ping:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('ping.req', self._on_req)\n"
            "    def _on_req(self, message):\n"
            "        self.node.spawn(self._serve(message))\n"
            "    def _serve(self, message):\n"
            "        yield self.node.call('peer', 'pong.req', timeout=5.0)\n"
            "        self.node.reply(message, ok=True)\n",
        "src/repro/core/pong.py":
            "class Pong:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('pong.req', self._on_req)\n"
            "    def _on_req(self, message):\n"
            "        self.node.spawn(self._serve(message))\n"
            "    def _serve(self, message):\n"
            "        yield self.node.call('peer', 'ping.req', timeout=5.0)\n"
            "        self.node.reply(message, ok=True)\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["W502"]
    assert "Ping._on_req" in found[0].message
    assert "Pong._on_req" in found[0].message


def test_w502_acyclic_wait_chain_clean(tmp_path):
    # The 2PC-participant shape: the serving handler answers without
    # blocking on anything of its own, so the wait chain is acyclic.
    paths = tree(tmp_path, {
        "src/repro/core/ping.py":
            "class Ping:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('ping.req', self._on_req)\n"
            "    def kick(self):\n"
            "        yield self.node.call('peer', 'ping.req', timeout=5.0)\n"
            "    def _on_req(self, message):\n"
            "        self.node.spawn(self._serve(message))\n"
            "    def _serve(self, message):\n"
            "        yield self.node.call('peer', 'pong.req', timeout=5.0)\n"
            "        self.node.reply(message, ok=True)\n",
        "src/repro/core/pong.py":
            "class Pong:\n"
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('pong.req', self._on_req)\n"
            "    def _on_req(self, message):\n"
            "        self.node.reply(message, ok=True)\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_w503_lock_order_inversion_fires(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/db/orders.py":
            "class Orders:\n"
            "    def __init__(self, locks):\n"
            "        self.locks = locks\n"
            "    def forward(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'beta', 'w', timeout=5.0)\n"
            "    def backward(self, txn):\n"
            "        yield self.locks.acquire(txn, 'beta', 'w', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["W503"]
    assert "alpha" in found[0].message and "beta" in found[0].message
    assert "deadlock" in found[0].message


def test_w503_consistent_order_and_shared_modes_clean(tmp_path):
    paths = tree(tmp_path, {
        # Same order on both paths: a global lock order exists.
        "src/repro/db/same.py":
            "class Same:\n"
            "    def __init__(self, locks):\n"
            "        self.locks = locks\n"
            "    def one(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'beta', 'w', timeout=5.0)\n"
            "    def two(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'beta', 'w', timeout=5.0)\n",
        # Inverted order but all shared locks: readers coexist.
        "src/repro/db/readers.py":
            "class Readers:\n"
            "    def __init__(self, locks):\n"
            "        self.locks = locks\n"
            "    def one(self, txn):\n"
            "        yield self.locks.acquire(txn, 'gamma', 'r', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'delta', 'r', timeout=5.0)\n"
            "    def two(self, txn):\n"
            "        yield self.locks.acquire(txn, 'delta', 'r', timeout=5.0)\n"
            "        yield self.locks.acquire(txn, 'gamma', 'r', timeout=5.0)\n",
    })
    assert run_lint(paths, baseline=None) == []


def test_w504_untimed_call_under_lock_fires(tmp_path):
    # The lock is timed, the call is not: W501 flags the call itself and
    # W504 flags making it while the lock is held (starvation on crash).
    paths = tree(tmp_path, {
        "src/repro/core/mixed.py":
            "class Mixed:\n"
            "    def __init__(self, node, locks):\n"
            "        self.node = node\n"
            "        self.locks = locks\n"
            "        node.on('mx.ack', self._on_ack)\n"
            "    def _on_ack(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
            "    def commit(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield self.node.call('peer', 'mx.ack')\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["W501", "W504"]
    w504 = next(d for d in found if d.rule == "W504")
    assert "holding the lock" in w504.message


def test_w504_cross_function_lock_context(tmp_path):
    # The lock and the call live in different functions: the rule must
    # follow the call chain to see the helper blocks while locked.
    paths = tree(tmp_path, {
        "src/repro/core/mixed.py":
            "class Mixed:\n"
            "    def __init__(self, node, locks):\n"
            "        self.node = node\n"
            "        self.locks = locks\n"
            "        node.on('mx.ack', self._on_ack)\n"
            "    def _on_ack(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
            "    def commit(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield from self._notify()\n"
            "    def _notify(self):\n"
            "        yield self.node.call('peer', 'mx.ack')\n",
    })
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["W501", "W504"]


def test_w504_timed_call_under_lock_clean(tmp_path):
    paths = tree(tmp_path, {
        "src/repro/core/mixed.py":
            "class Mixed:\n"
            "    def __init__(self, node, locks):\n"
            "        self.node = node\n"
            "        self.locks = locks\n"
            "        node.on('mx.ack', self._on_ack)\n"
            "    def _on_ack(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
            "    def commit(self, txn):\n"
            "        yield self.locks.acquire(txn, 'alpha', 'w', timeout=5.0)\n"
            "        yield self.node.call('peer', 'mx.ack', timeout=5.0)\n",
    })
    assert run_lint(paths, baseline=None) == []


# ---------------------------------------------------------------------------
# Interference family
# ---------------------------------------------------------------------------

# The technique-entry machinery resolves protocol classes through the
# MRO, so interference fixtures ship a stub base module the prelude
# imports resolve to (the real one is not part of the fixture tree).
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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


def test_r603_conflicting_rebinds_fire(tmp_path):
    # Two dispatchable entries rebind self.cursor, one after a blocking
    # wait, with no common lock: a lost-update window.
    paths = interference_tree(
        tmp_path,
        protocol_class("RaceProto", ["RE", "EX", "END"], (
            "    def __init__(self, node):\n"
            "        self.node = node\n"
            "        node.on('rp.sync', self._on_sync)\n"
            "        node.on('rp.ping', self._on_ping)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        yield self.node.call('peer', 'rp.ping', timeout=5.0)\n"
            "        self.cursor = request.request_id\n"
            "        self.respond(client, request, committed=True)\n"
            "    def gossip(self):\n"
            "        yield self.node.call('peer', 'rp.sync', cursor=1,\n"
            "                             timeout=5.0)\n"
            "    def _on_sync(self, message):\n"
            "        self.cursor = message['cursor']\n"
            "        self.node.reply(message, ok=True)\n"
            "    def _on_ping(self, message):\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    found = run_lint(paths, baseline=None)
    assert rules_of(found) == ["R603"]
    assert "'cursor'" in found[0].message
    assert "no common lock" in found[0].message


def test_r603_common_lock_and_counters_clean(tmp_path):
    # Both writers acquire the same concrete lock item before rebinding
    # (and augmented counters are atomic under cooperative scheduling).
    paths = interference_tree(
        tmp_path,
        protocol_class("LockedProto", ["RE", "EX", "END"], (
            "    def __init__(self, node, locks):\n"
            "        self.node = node\n"
            "        self.locks = locks\n"
            "        node.on('lk.sync', self._on_sync)\n"
            "    def handle_request(self, request, client):\n"
            "        self.phase(request.request_id, EX)\n"
            "        self.node.spawn(self._serve(request, client))\n"
            "    def _serve(self, request, client):\n"
            "        yield self.locks.acquire(request, 'cursor', 'w',\n"
            "                                 timeout=5.0)\n"
            "        self.cursor = request.request_id\n"
            "        self.hits += 1\n"
            "        self.respond(client, request, committed=True)\n"
            "    def gossip(self):\n"
            "        yield self.node.call('peer', 'lk.sync', cursor=1,\n"
            "                             timeout=5.0)\n"
            "    def _on_sync(self, message):\n"
            "        self.node.spawn(self._sync(message))\n"
            "    def _sync(self, message):\n"
            "        yield self.locks.acquire(message, 'cursor', 'w',\n"
            "                                 timeout=5.0)\n"
            "        self.cursor = message['cursor']\n"
            "        self.hits += 1\n"
            "        self.node.reply(message, ok=True)\n"
        )),
    )
    assert run_lint(paths, baseline=None) == []


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
    found = run_lint(paths, baseline=None)
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
    assert run_lint(paths, baseline=None) == []


def test_cli_only_family_filters_rules(tmp_path, capsys):
    paths = tree(tmp_path, {
        "src/repro/core/clock.py":
            "import time\n"
            "def now():\n"
            "    return time.time()\n",
    })
    # The D1xx wall-clock finding is invisible through the M4 family...
    assert lint_main(paths + ["--only-family", "M4", "--no-baseline"]) == 0
    capsys.readouterr()
    # ...reported through its own family...
    assert lint_main(paths + ["--only-family", "D1", "--no-baseline"]) == 1
    assert "time.time" in capsys.readouterr().out
    # ...and --select narrows further *within* the chosen families.
    assert lint_main(
        paths + ["--only-family", "D1", "--select", "D101", "--no-baseline"]
    ) == 0
    capsys.readouterr()
    # Unknown family names are usage errors, not silence.
    assert lint_main(paths + ["--only-family", "X9"]) == 2
    assert "unknown rule family" in capsys.readouterr().err


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
    assert {"W501", "W502", "W503", "W504"} <= declared
    assert {"R601", "R602", "R603", "R604"} <= declared
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
    a = Diagnostic("f.py", 10, "D101", "error", "msg")
    b = Diagnostic("f.py", 99, "D101", "error", "msg")
    assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# The shipped tree is clean
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean_modulo_baseline(source_contexts):
    baseline = str(BASELINE) if BASELINE.exists() else None
    found = lint_parsed(source_contexts, baseline=baseline)
    assert found == [], "\n".join(d.render() for d in found)


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src/repro", "--format", "json"],
        capture_output=True, text=True, cwd=str(REPO),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == []
