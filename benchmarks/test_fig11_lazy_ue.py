"""Figure 11 — lazy update everywhere.

Two sites accept conflicting writes concurrently, both respond
immediately, and the deferred Agreement Coordination is a
*reconciliation* that picks a winner and undoes the loser.
"""

from conftest import figure_block, report
from repro import AC, END, EX, RE, Operation, ReplicatedSystem


def scenario():
    system = ReplicatedSystem(
        "lazy_ue", replicas=3, clients=2, seed=1,
        propagation_delay=20.0,
    )
    f0 = system.client(0).submit([Operation.write("x", "from-r0")])
    f1 = system.client(1).submit([Operation.write("x", "from-r1")])
    r0, r1 = system.sim.run_until_done(system.sim.all_of([f0, f1]))
    divergent_after_response = (
        system.store_of("r0").read("x") != system.store_of("r1").read("x")
    )
    system.settle(400)
    return system, r0, r1, divergent_after_response


def test_fig11_lazy_ue(once):
    system, r0, r1, divergent_after_response = once(scenario)
    assert r0.committed and r1.committed, "lazy UE commits both immediately"

    for result in (r0, r1):
        observed = system.tracer.observed_sequence(result.request_id,
                                                   source=result.server)
        assert observed == [RE, EX, END, AC], (result.server, observed)
    assert divergent_after_response, (
        "the paper's premise: copies become inconsistent, not just stale"
    )
    # Reconciliation converged all replicas on a single winner.
    finals = {system.store_of(n).read("x") for n in system.replica_names}
    assert len(finals) == 1
    undone = sum(
        system.protocol_at(n).undone_transactions for n in system.replica_names
    )
    assert undone >= 1, "the losing transaction must be counted as undone"

    report(
        "fig11_lazy_ue",
        figure_block(
            system, r0, "Figure 11: Lazy update everywhere",
            lanes=["r0", "r1", "r2"],
            notes=[
                "both sites committed conflicting writes and answered immediately",
                f"reconciliation (LWW) winner: {finals.pop()!r}; "
                f"undone transactions: {undone}",
            ],
        ),
        system=system,
    )
