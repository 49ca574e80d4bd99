#!/usr/bin/env python3
"""A mobile site syncing lazily over a slow, flaky link.

Section 2.2 motivates lazy replication with "the proliferation of
applications for mobile users, where a copy is not always connected to
the rest of the system and it does not make sense to wait until updates
take place".  This example builds exactly that scenario with lazy update
everywhere:

* two well-connected office sites and one "laptop" behind a slow link,
* concurrent edits to the same document field while the laptop is
  partitioned away,
* reconnection, propagation, and last-writer-wins reconciliation —
  convergence with an explicit casualty count.

Run:  python examples/mobile_lazy_sync.py
"""

from repro import Operation, ReplicatedSystem
from repro.net import ConstantLatency, PerLinkLatency


def main() -> None:
    latency = PerLinkLatency(default=ConstantLatency(1.0))
    system = ReplicatedSystem(
        "lazy_ue", replicas=3, clients=3, seed=5,
        latency=latency, propagation_delay=10.0,
        client_timeout=None,
    )
    # r2 is the laptop: 25x slower link to everyone (set after the
    # system exists so we know the names).
    for office in ("r0", "r1", "c0", "c1", "c2"):
        latency.set_link(office, "r2", ConstantLatency(25.0))

    # The laptop disconnects entirely between t=5 and t=120.
    system.injector.partition_at(5.0, ["r0", "r1", "c0", "c1"], ["r2", "c2"])
    system.injector.heal_at(120.0)

    def office_worker():
        yield system.sim.timeout(20.0)
        result = yield system.client(0).submit(
            [Operation.write("doc.title", "Quarterly Plan (office edit)")]
        )
        print(f"t={system.sim.now:6.1f}  office edit committed at {result.server}")
        yield system.sim.timeout(30.0)
        result = yield system.client(1).submit(
            [Operation.write("doc.owner", "alice")]
        )
        print(f"t={system.sim.now:6.1f}  office owner set at {result.server}")

    def laptop_worker():
        yield system.sim.timeout(40.0)
        # Disconnected: the local replica still commits instantly.
        result = yield system.client(2).submit(
            [Operation.write("doc.title", "Quarterly Plan v2 (laptop edit)")]
        )
        print(
            f"t={system.sim.now:6.1f}  laptop edit committed LOCALLY at "
            f"{result.server} while disconnected (latency={result.latency:.1f})"
        )

    handles = [system.sim.spawn(office_worker()), system.sim.spawn(laptop_worker())]
    system.sim.run_until_done(system.sim.all_of(handles))

    print(f"\nt={system.sim.now:6.1f}  before reconnection:")
    for name in system.replica_names:
        print(f"  {name}: {system.store_of(name).dump()}")
    assert not system.converged(), "sites must diverge while partitioned"

    system.sim.run(until=400.0)

    print(f"\nt={system.sim.now:6.1f}  after reconnection + reconciliation:")
    for name in system.replica_names:
        print(f"  {name}: {system.store_of(name).dump()}")
    assert system.converged(), "reconciliation must converge all copies"

    undone = sum(
        system.protocol_at(n).undone_transactions for n in system.replica_names
    )
    winner = system.store_of("r0").read("doc.title")
    print(f"\nconflict winner for doc.title: {winner!r}")
    print(f"transactions undone by reconciliation: {undone}")
    print("(the laptop's later timestamp wins under last-writer-wins; "
          "the office edit is the reconciliation casualty)")


if __name__ == "__main__":
    main()
