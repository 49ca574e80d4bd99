"""repro.lint — AST-based static analysis for the repro codebase.

Four rule families guard the invariants every regenerated figure rests
on (see ``docs/linting.md`` for the full catalogue):

* **Determinism (D1xx)** — the simulation must be bit-for-bit
  reproducible given a seed, so the deterministic core may not use
  ``id()``/``hash()``-derived values, unsorted set iteration, or a
  counter bound at import time.
* **Message flow (M4xx)** — a whole-program send/handler graph
  (:mod:`repro.lint.msgflow`, on top of the symbolic string evaluator in
  :mod:`repro.lint.symeval`) proves every handler has a sender.  The
  same graph generates the protocol message catalog
  (``docs/messages.md`` + JSON).
* **Wait graph (W5xx)** — a whole-program wait graph
  (:mod:`repro.lint.waitgraph`, sharing the message-flow graph and
  symbolic evaluator) extracts every blocking point — request/reply
  calls, lock acquisitions, 2PC voting rounds, future joins — and
  proves every blocking site carries a timeout.  The same graph
  generates the wait-graph artifact (``docs/waitgraph.md`` + JSON +
  per-technique Graphviz DOT).
* **Interference (R6xx)** — per-handler replica-state read/write sets
  and atomicity windows (:mod:`repro.lint.interference`, over the
  wait-graph extractor's event templates): every blocking wait is a
  window in which any other dispatchable handler may run, so the rules
  flag pre-wait snapshots used after resumption, role guards not
  re-validated before the next externally-visible effect, and handlers
  mutating the aliased payloads they received.  The same pass generates
  the interference catalog (``docs/interference.md`` + JSON), whose
  per-class write sets the dynamic tests hold observed ``__setattr__``
  traffic to (observed ⊆ static).

Programmatic use::

    from repro.lint import run_lint
    diagnostics = run_lint(["src/repro"])   # [] when clean

Command line::

    python -m repro.lint [paths] [--format text|json|sarif] [--select/--ignore RULE]

(the generated catalogs are written by ``python -m repro artifacts``,
:mod:`repro.artifacts`, which sits above this package).

The package is self-contained (stdlib ``ast`` only) and sits outside the
runtime layer DAG: nothing in ``repro``'s runtime imports it, and it
imports nothing from the runtime, so the tooling can never distort what
it measures.
"""

from .cli import main
from .diagnostics import Diagnostic
from .engine import run_lint
from .registry import all_rules

__all__ = ["run_lint", "Diagnostic", "all_rules", "main"]
