"""Figure 10 — lazy primary copy.

The response precedes the agreement coordination: the client hears back
after the local commit; the secondaries receive the changes later.
"""

from conftest import figure_block, report
from repro import AC, END, EX, RE, Operation, ReplicatedSystem


def scenario():
    system = ReplicatedSystem(
        "lazy_primary", replicas=3, seed=1, propagation_delay=30.0
    )
    result = system.execute([Operation.write("x", "fresh")])
    # Capture the staleness window before letting propagation finish.
    stale_at_response = [
        name for name in ("r1", "r2") if system.store_of(name).read("x") is None
    ]
    system.settle(300)
    return system, result, stale_at_response


def test_fig10_lazy_primary(once):
    system, result, stale_at_response = once(scenario)
    assert result.committed

    observed = system.tracer.observed_sequence(result.request_id, source="r0")
    assert observed == [RE, EX, END, AC], "END must precede AC (lazy)"
    assert stale_at_response == ["r1", "r2"], (
        "secondaries must still be stale when the client hears back"
    )
    # Eventually all replicas converge.
    for name in system.replica_names:
        assert system.store_of(name).read("x") == "fresh"

    report(
        "fig10_lazy_primary",
        figure_block(
            system, result, "Figure 10: Lazy primary copy",
            notes=[
                "phase order observed: RE EX END AC — response before agreement",
                f"at response time both secondaries were stale; converged by t={system.sim.now:.0f}",
                f"client latency: {result.latency:.1f} (vs ~4 for eager primary copy)",
            ],
        ),
        system=system,
    )
