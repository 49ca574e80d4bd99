"""The artifact registry (repro.artifacts): one write, one check.

* **round trip** — on a miniature tree under ``tmp_path``, all four
  entries are written, check clean, go stale exactly where a source edit
  says they should, and are reported missing when deleted;
* **orphans** — a file the build no longer produces, inside a directory
  an entry owns, fails ``check`` and is removed by ``write``;
* **anchor stability** — the three lint-derived entries name sites by
  enclosing symbol, so an edit elsewhere in a file changes nothing and
  moving a call changes exactly its own anchor;
* **import surface** — ``import repro`` pulls in neither the registry
  nor anything else it did not pull in before.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import artifacts
from repro.__main__ import main as repro_main
from repro.lint.engine import parse_file

REPO = Path(__file__).resolve().parent.parent

MINI_TREE = {
    "src/repro/core/protocols/base.py":
        "class ProtocolInfo:\n"
        "    def __init__(self, **kwargs):\n"
        "        self.kwargs = kwargs\n"
        "class ReplicaProtocol:\n"
        "    pass\n",
    "src/repro/core/protocols/mini.py":
        "from .base import ProtocolInfo, ReplicaProtocol\n"
        "class Mini(ReplicaProtocol):\n"
        "    info = ProtocolInfo(name='mini')\n"
        "    def __init__(self, node):\n"
        "        self.node = node\n"
        "        node.on('mini.bump', self._on_bump)\n"
        "    def handle_request(self, request, client):\n"
        "        self.node.spawn(self._serve(request, client))\n"
        "    def _serve(self, request, client):\n"
        "        yield self.node.call('peer', 'mini.bump', value=1,\n"
        "                             timeout=5.0)\n"
        "        self.respond(client, request, committed=True)\n"
        "    def _on_bump(self, message):\n"
        "        self.epoch = message['value']\n"
        "        self.node.reply(message, ok=True)\n",
}

ALL = list(artifacts.ENTRIES)


@pytest.fixture
def mini(tmp_path, monkeypatch):
    """A protocol-shaped tree at ``tmp_path`` (the working directory),
    with the ``phasecost`` entry's ten observed runs stubbed out."""
    import repro.profiling.catalog as catalog_module

    for rel, source in MINI_TREE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        catalog_module, "build_catalog",
        lambda: {"params": {}, "techniques": {}},
    )
    return tmp_path


def test_registry_round_trip_on_a_mini_tree(mini):
    written = artifacts.write(ALL, "docs")
    assert sorted(written) == [
        "docs/interference.json", "docs/interference.md",
        "docs/messages.json", "docs/messages.md",
        "docs/phasecost.json", "docs/phasecost.md",
        "docs/waitgraph.json", "docs/waitgraph.md",
        "docs/waitgraph/mini.dot",
    ]
    assert all(os.path.getsize(path) > 0 for path in written)
    assert artifacts.check(ALL, "docs") == []

    # A new payload key changes the message catalog and nothing else.
    source = mini / "src" / "repro" / "core" / "protocols" / "mini.py"
    source.write_text(source.read_text().replace("value=1", "value=1, extra=2"))
    assert artifacts.check(ALL, "docs") == [
        ("messages", "docs/messages.json", "stale"),
        ("messages", "docs/messages.md", "stale"),
    ]
    assert artifacts.check(["waitgraph", "phasecost"], "docs") == []

    artifacts.write(["messages"], "docs")
    os.remove("docs/waitgraph/mini.dot")
    os.remove("docs/interference.json")
    assert artifacts.check(ALL, "docs") == [
        ("waitgraph", "docs/waitgraph/mini.dot", "missing"),
        ("interference", "docs/interference.json", "missing"),
    ]


def test_check_reports_orphans_and_write_removes_them(mini, capsys):
    artifacts.write(ALL, "docs")
    ghost = mini / "docs" / "waitgraph" / "ghost.dot"
    ghost.write_text("digraph ghost {}\n")
    assert artifacts.check(ALL, "docs") == [
        ("waitgraph", "docs/waitgraph/ghost.dot", "orphaned"),
    ]
    # Only owned directories: a neighbour of the generated files is not
    # the registry's business.
    (mini / "docs" / "notes.md").write_text("by hand\n")
    assert repro_main(["artifacts", "--check"]) == 1
    captured = capsys.readouterr()
    assert "docs/waitgraph/ghost.dot: orphaned" in captured.err
    assert "notes.md" not in captured.err
    assert "messages: up to date" in captured.out
    assert "waitgraph: up to date" not in captured.out

    artifacts.write(["waitgraph"], "docs")
    assert not ghost.exists()
    assert artifacts.check(ALL, "docs") == []


def test_cli_rejects_an_unknown_artifact(mini, capsys):
    assert repro_main(["artifacts", "figures"]) == 2
    assert "unknown artifact 'figures'" in capsys.readouterr().err


def test_import_repro_imports_what_it_did_before():
    """``setup_s`` of the end-to-end benchmark is the cost of this import:
    the registry, the linter and the profiler stay out of it."""
    listing = subprocess.run(
        [sys.executable, "-c",
         "import repro, sys\n"
         "print('\\n'.join(sorted(m for m in sys.modules\n"
         "                        if m.split('.')[0] == 'repro')))"],
        capture_output=True, text=True, check=True, cwd=str(REPO),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    ).stdout
    expected = (REPO / "tests" / "data" / "import_repro_modules.txt").read_text()
    assert listing == expected


# ---------------------------------------------------------------------------
# Anchor stability
# ---------------------------------------------------------------------------

EDITED = "src/repro/core/protocols/eager_primary.py"
LINT_DERIVED = ("messages", "waitgraph", "interference")


def _render(contexts):
    files = {}
    for name in LINT_DERIVED:
        files.update(artifacts.ENTRIES[name](contexts))
    return files


def _anchors(text):
    return sorted(re.findall(r'"at": "([^"]+)"', text))


@pytest.fixture
def edited(source_contexts, tmp_path, monkeypatch):
    """The shipped tree with an edited copy of one file in place of the
    original: only the copy is parsed again (under ``tmp_path``, at the
    same relative path), the other 97 contexts are the session's."""
    def build(edit):
        copy = tmp_path / EDITED
        copy.parent.mkdir(parents=True, exist_ok=True)
        copy.write_text(edit((REPO / EDITED).read_text()))
        monkeypatch.chdir(tmp_path)
        context, error = parse_file(EDITED)
        assert error is None, error
        assert [c.path for c in source_contexts].count(EDITED) == 1
        return [context if c.path == EDITED else c for c in source_contexts]

    return build


def test_an_inserted_line_changes_no_generated_file(source_contexts, edited):
    shipped = _render(source_contexts)
    for rel, content in shipped.items():
        assert not re.search(r"\.py:[0-9]+", content), f"line anchor in {rel}"
    shifted = edited(lambda text: "# an unrelated comment\n" + text)
    assert _render(shifted) == shipped


def test_moving_a_send_changes_exactly_its_anchor(source_contexts, edited):
    send = 'self.replica.node.send(secondary, "2pc.decision", txn=tid, commit=False)'
    landing = "    def _on_op_apply(self, message: Message) -> None:\n"

    def move(text):
        assert text.count(send) == 1 and text.count(landing) == 1
        text = text.replace(send, "self._send_abort(secondary, tid)")
        return text.replace(
            landing,
            f"    def _send_abort(self, secondary, tid):\n        {send}\n\n" + landing,
        )

    before, after = _render(source_contexts), _render(edited(move))
    old = _anchors(before["messages.json"])
    new = _anchors(after["messages.json"])
    site = EDITED + "::EagerPrimaryCopy."
    old.remove(site + "txn_abort")
    new.remove(site + "_send_abort")
    assert old == new
    for name in ("waitgraph.json", "interference.json"):
        assert _anchors(after[name]) == _anchors(before[name]), name
