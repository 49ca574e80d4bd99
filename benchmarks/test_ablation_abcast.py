"""Ablation — ABCAST implementation: fixed sequencer vs consensus.

Both implement the same primitive (Section 3.1's total order), so active
replication runs unchanged on either.  The trade-off: the sequencer costs
two hops and few messages but is a single point of order — when it
crashes, ordering stops; the Chandra–Toueg reduction costs more messages
but masks a minority of crashes.
"""

from conftest import format_rows, report
from repro import Operation, ReplicatedSystem
from repro.analysis import messages_per_request


def run_one(flavour, crash=False, seed=41):
    system = ReplicatedSystem(
        "active", replicas=3, clients=1, seed=seed,
        fd_interval=2.0, fd_timeout=6.0,
        abcast=flavour,
    )
    if crash:
        # r0 is both round-0 consensus coordinator and the sequencer.
        system.injector.crash_at(25.0, "r0")

    def loop():
        results = []
        for _ in range(8):
            results.append(
                (yield system.sim.any_of([
                    system.client(0).submit([Operation.update("x", "add", 1)]),
                    system.sim.timeout(150.0, None),
                ]))
            )
            yield system.sim.timeout(12.0)
        return results

    handle = system.sim.spawn(loop())
    outcomes = system.sim.run_until_done(handle)
    system.settle(300)
    answered = sum(1 for index, value in outcomes if index == 0)
    return {
        "answered": answered,
        "messages": messages_per_request(system.net.stats, 8),
        "value": max(
            (system.store_of(n).read("x") or 0) for n in system.live_replicas()
        ),
    }


def sweep():
    return {
        ("sequencer", False): run_one("sequencer"),
        ("consensus", False): run_one("consensus"),
        ("sequencer", True): run_one("sequencer", crash=True),
        ("consensus", True): run_one("consensus", crash=True),
    }


def test_ablation_abcast(once):
    table = once(sweep)

    # Failure-free: both answer everything; sequencer is cheaper.
    assert table[("sequencer", False)]["answered"] == 8
    assert table[("consensus", False)]["answered"] == 8
    assert (
        table[("sequencer", False)]["messages"]
        < table[("consensus", False)]["messages"]
    )
    # Sequencer crash: ordering stops, requests go unanswered; the
    # consensus reduction keeps delivering.
    assert table[("sequencer", True)]["answered"] < 8, "sequencer is a SPOF"
    assert table[("consensus", True)]["answered"] == 8

    rows = [
        [flavour, "crash" if crash else "none",
         f"{row['answered']}/8", f"{row['messages']:.1f}", str(row["value"])]
        for (flavour, crash), row in sorted(table.items())
    ]
    report(
        "ablation_abcast",
        "Ablation: ABCAST implementation under active replication\n"
        "(8 updates; 150-unit client give-up per request)\n\n"
        + format_rows(
            ["abcast", "fault", "answered", "messages/txn", "final x"], rows
        )
        + "\n\nshape: fixed sequencer = cheap but a single point of order; "
        "consensus\nreduction = more messages, crash of a minority fully masked",
    )
