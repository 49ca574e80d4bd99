"""The end-to-end benchmark's layer tracer names real attributes.

``benchmarks/e2e/trace.py`` wraps the functions it lists in
``BOUNDARIES`` and ``DISPATCHERS`` by module, class and attribute name.
A rename in ``src/repro`` breaks only a traced benchmark run, which the
tier-1 suite does not make; this test resolves every entry without
patching anything.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def layer_tracer():
    """``trace.py`` loaded by path, under a name that is not the stdlib's
    ``trace``, with its directory importable for its ``workloads`` import."""
    had_workloads = "workloads" in sys.modules
    sys.path.insert(0, str(E2E))
    try:
        spec = importlib.util.spec_from_file_location(
            "e2e_layer_tracer", E2E / "trace.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
        if not had_workloads:
            sys.modules.pop("workloads", None)
    return module


def _entries(module):
    for module_name, class_name, attr, _ in module.BOUNDARIES:
        yield "BOUNDARIES", module_name, class_name, attr
    for module_name, class_name, attr, _ in module.DISPATCHERS:
        yield "DISPATCHERS", module_name, class_name, attr


def test_every_patch_point_resolves(layer_tracer):
    entries = list(_entries(layer_tracer))
    assert len(entries) > 50
    missing = []
    for table, module_name, class_name, attr in entries:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{table}: {module_name}.{class_name}.{attr}")
    assert not missing, "benchmark patch points that no longer exist:\n" + "\n".join(missing)
