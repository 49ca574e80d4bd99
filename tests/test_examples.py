"""The shipped examples must run clean end-to-end."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    ("quickstart.py", []),
    ("quickstart.py", ["certification"]),
    ("bank_failover.py", []),
    ("mobile_lazy_sync.py", []),
    ("interactive_atm.py", []),
]


@pytest.mark.parametrize("script,args", EXAMPLES)
def test_example_runs_clean(script, args):
    path = os.path.join(EXAMPLES_DIR, script)
    completed = subprocess.run(
        [sys.executable, path] + args,
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate what they do"


def test_paper_figures_renders_all_sixteen():
    path = os.path.join(EXAMPLES_DIR, "paper_figures.py")
    completed = subprocess.run(
        [sys.executable, path], capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    for figure in range(1, 17):
        assert f"Figure {figure}" in completed.stdout, f"figure {figure} missing"


def test_cli_list_and_run():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0
    assert "certification" in completed.stdout
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run", "lazy_ue", "--requests", "3"],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0
    assert "Lazy update everywhere" in completed.stdout


def test_cli_compare_in_process(capsys):
    from repro import DB_TECHNIQUES, DS_TECHNIQUES
    from repro.__main__ import main

    assert main(["compare", "--requests", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == DS_TECHNIQUES + DB_TECHNIQUES
    assert all(row.split()[5] == "True" for row in rows), rows


def test_cli_figures_in_process(capsys):
    from repro.__main__ import main

    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for figure in range(1, 17):
        assert f"Figure {figure}:" in out, f"figure {figure} missing"
