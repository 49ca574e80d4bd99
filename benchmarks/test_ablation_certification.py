"""Ablation — certification test: backward read validation vs
first-committer-wins write validation.

Section 5.4.2's certification "decides whether the operations can be
executed correctly"; *which* conflicts count is a policy knob.  The
``read`` mode (serializability: a transaction dies if anything it read
changed) aborts read-write conflicts that the ``write`` mode (snapshot-
isolation style: only write-write conflicts matter) lets through.  The
workload: transactions read a hot item and write a private one, while a
writer keeps updating the hot item — pure read-write conflicts.
"""

from conftest import format_rows, report
from repro import Operation, ReplicatedSystem


def run_one(mode, seed=47):
    system = ReplicatedSystem(
        "certification", replicas=3, clients=2, seed=seed,
        certification_mode=mode, abcast="sequencer",
    )

    def hot_writer():
        for i in range(10):
            yield system.client(0).submit([Operation.write("hot", i)])
            yield system.sim.timeout(7.0)

    def reader_writer():
        outcomes = []
        for i in range(10):
            outcomes.append((yield system.client(1).submit([
                Operation.read("hot"),
                Operation.write(f"private-{i}", i),
            ])))
            yield system.sim.timeout(7.0)
        return outcomes

    writer = system.sim.spawn(hot_writer())
    reader = system.sim.spawn(reader_writer())
    system.sim.run_until_done(system.sim.all_of([writer, reader]))
    system.settle(300)
    outcomes = reader.result
    aborted = sum(1 for r in outcomes if not r.committed)
    return {
        "aborted": aborted,
        "converged": system.converged(),
        "rejected_total": system.protocol_at("r0").certifier.rejected,
    }


def sweep():
    return {mode: run_one(mode) for mode in ("read", "write")}


def test_ablation_certification_mode(once):
    table = once(sweep)

    # Read validation kills read-write conflicts; write validation does
    # not see any conflict in this workload at all.
    assert table["read"]["aborted"] > 0, "read mode must abort rw-conflicts"
    assert table["write"]["aborted"] == 0, table["write"]
    assert table["read"]["aborted"] > table["write"]["aborted"]
    for mode in ("read", "write"):
        assert table[mode]["converged"], mode

    rows = [
        [mode, f"{table[mode]['aborted']}/10", str(table[mode]["rejected_total"]),
         "yes" if table[mode]["converged"] else "NO"]
        for mode in ("read", "write")
    ]
    report(
        "ablation_certification",
        "Ablation: certification policy on a read-write-conflict workload\n"
        "(reader-writer txns racing a hot-item writer)\n\n"
        + format_rows(
            ["mode", "reader aborts", "site rejections", "converged"], rows
        )
        + "\n\nshape: backward read validation (one-copy serializability) "
        "aborts what\nfirst-committer-wins (snapshot-style) admits — the "
        "consistency/abort-rate dial",
    )
