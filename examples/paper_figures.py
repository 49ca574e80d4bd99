#!/usr/bin/env python3
"""Regenerate every figure of the paper from live executions.

Prints, in order: the functional model (Figure 1), each technique's phase
timeline as observed in a real run (Figures 2-4, 7-14), and the derived
classification matrices (Figures 5, 6, 15, 16).

Run:  python examples/paper_figures.py
"""

from repro import Operation, ReplicatedSystem
from repro.core.classification import (
    db_matrix,
    ds_matrix,
    render_matrix,
    render_synthetic_view,
    strong_consistency_combinations,
)
from repro.core.model import GENERIC_DESCRIPTOR, AbstractReplicationProtocol
from repro.viz import render_figure, render_phase_timeline

TIMELINE_FIGURES = [
    ("Figure 2: Active replication", "active",
     [Operation.update("x", "add", 1)]),
    ("Figure 3: Passive replication", "passive",
     [Operation.update("x", "random_token")]),
    ("Figure 4: Semi-active replication", "semi_active",
     [Operation.update("x", "random_token")]),
    ("Figure 7: Eager primary copy", "eager_primary",
     [Operation.update("x", "add", 1)]),
    ("Figure 8: Eager update everywhere (distributed locking)",
     "eager_ue_locking", [Operation.update("x", "add", 1)]),
    ("Figure 9: Eager update everywhere (ABCAST)", "eager_ue_abcast",
     [Operation.update("x", "add", 1)]),
    ("Figure 10: Lazy primary copy", "lazy_primary",
     [Operation.write("x", 1)]),
    ("Figure 11: Lazy update everywhere", "lazy_ue",
     [Operation.write("x", 1)]),
    ("Figure 12: Eager primary copy (3-operation transaction)",
     "eager_primary",
     [Operation.write("x", 1), Operation.write("y", 2), Operation.write("z", 3)]),
    ("Figure 13: Eager UE locking (3-operation transaction)",
     "eager_ue_locking",
     [Operation.write("x", 1), Operation.write("y", 2), Operation.write("z", 3)]),
    ("Figure 14: Certification-based replication", "certification",
     [Operation.update("x", "add", 1)]),
]


def main() -> None:
    # Figure 1: the abstract model itself.
    model = AbstractReplicationProtocol(replicas=3, seed=1)
    model.run_update("x", "update")
    print(render_figure(
        "Figure 1: Functional model with the five phases",
        GENERIC_DESCRIPTOR.render(),
        render_phase_timeline(
            model.trace, "req-1", ["client", "replica1", "replica2", "replica3"]
        ),
    ))
    print()

    for title, technique, operations in TIMELINE_FIGURES:
        system = ReplicatedSystem(technique, replicas=3, seed=1)
        result = system.execute(operations)
        system.settle(400)
        descriptor = system.info.descriptor_for(len(operations))
        print(render_figure(
            title,
            descriptor.render(),
            render_phase_timeline(
                system.trace, result.request_id, system.replica_names
            ),
        ))
        print()

    print("Figure 5: Replication in distributed systems")
    print(render_matrix(
        ds_matrix(),
        row_labels={True: "failure transparent", False: "failure visible"},
        column_labels={True: "determinism needed", False: "determinism not needed"},
    ))
    print()
    print("Figure 6: Replication in database systems")
    print(render_matrix(
        db_matrix(),
        row_labels={"eager": "eager", "lazy": "lazy"},
        column_labels={"primary": "primary copy", "everywhere": "update everywhere"},
    ))
    print()
    print("Figure 15: Possible combinations of phases (strong consistency)")
    for combo in strong_consistency_combinations():
        print("  " + " -> ".join(combo))
    print()
    print("Figure 16: Synthetic view of approaches")
    print(render_synthetic_view())


if __name__ == "__main__":
    main()
