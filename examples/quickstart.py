#!/usr/bin/env python3
"""Quickstart: replicate a counter under any of the paper's techniques.

Builds a three-replica system, performs a few transactions, and shows
what the client saw and what every replica stored.  Change ``TECHNIQUE``
to any registry name to feel the differences: response latency, where
updates are accepted, and when secondaries catch up.

Run:  python examples/quickstart.py [technique]
"""

import sys

from repro import DB_TECHNIQUES, DS_TECHNIQUES, Operation, ReplicatedSystem, RunSpec

TECHNIQUE = sys.argv[1] if len(sys.argv) > 1 else "passive"


def main() -> None:
    print(f"available techniques: {DS_TECHNIQUES + DB_TECHNIQUES}")
    # Everything about the run, technique options included, in one spec;
    # describe() prints it as one line.
    spec = RunSpec(TECHNIQUE, replicas=3, clients=1, seed=42)
    print(f"running quickstart under: {spec.describe()}\n")

    system = ReplicatedSystem(spec)

    # A blind write, a functional update, a multi-operation transaction
    # and a read — the request shapes of Sections 2.2 and 5.
    steps = [
        ("write x := 100", [Operation.write("x", 100)]),
        ("update x += 20", [Operation.update("x", "add", 20)]),
        (
            "transfer 30 from x to y",
            [Operation.update("x", "add", -30), Operation.update("y", "add", 30)],
        ),
        ("read x", [Operation.read("x")]),
    ]
    for label, operations in steps:
        result = system.execute(operations)
        verdict = "committed" if result.committed else f"ABORTED ({result.reason})"
        print(
            f"{label:28s} -> {verdict:10s} latency={result.latency:4.1f} "
            f"served by {result.server}"
            + (f"  value={result.value}" if result.values else "")
        )

    # Let lazy propagation / background agreement finish, then compare
    # the physical copies.
    system.settle(500)
    print("\nreplica stores after settling:")
    for name in system.replica_names:
        print(f"  {name}: {system.store_of(name).dump()}")
    print(f"\nconverged: {system.converged()}")
    print(f"protocol phase row (Figure 16): "
          f"{' '.join(system.info.descriptor.phase_names())} "
          f"[{system.info.consistency} consistency]")


if __name__ == "__main__":
    main()
