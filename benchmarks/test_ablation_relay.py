"""Ablation — reliable-broadcast relaying: the price of Agreement.

Reliable broadcast's Agreement property — if any correct member
delivers, all correct members do — is bought by relaying first
receipts, O(n^2) messages.  This ablation measures that price and shows
what the money buys: with relaying disabled, a sender crashing
mid-broadcast under message loss leaves the group *non-uniform* (some
members delivered, others never will).

Consensus ABCAST's atomicity (Section 3.1) rests on the relay of the
*decision* broadcast, not of the dissemination: members deliver only
from decided batches, which carry every message's body, so its
dissemination is one unrelayed send per member.
"""

from conftest import format_rows, report
from repro.groupcomm import ReliableBroadcast
from repro.net import ConstantLatency, Network, Node
from repro.sim import Simulator
from repro.groupcomm import ReliableTransport


def run_trial(relay, seed, n=4, loss_rate=0.35):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(1.0), loss_rate=loss_rate)
    names = [f"n{i}" for i in range(n)]
    delivered = {name: 0 for name in names}
    endpoints = {}
    for name in names:
        node = Node(sim, net, name)
        transport = ReliableTransport(node, retry_interval=2.0)
        endpoints[name] = ReliableBroadcast(
            node, transport, names,
            lambda o, m, b, nm=name: delivered.__setitem__(nm, delivered[nm] + 1),
            relay=relay,
        )
        endpoints[name].node = node
    endpoints["n0"].broadcast("evt")
    sim.schedule(0.5, endpoints["n0"].node.crash)
    sim.run(until=600)
    counts = {name: delivered[name] for name in names[1:]}
    uniform = len(set(counts.values())) == 1
    return uniform, counts, net.stats.by_type.get("rt.data", 0)


def sweep():
    trials = 25
    results = {}
    for relay in (True, False):
        non_uniform = 0
        messages = 0
        for seed in range(trials):
            uniform, counts, msgs = run_trial(relay, seed)
            non_uniform += 0 if uniform else 1
            messages += msgs
        results[relay] = {
            "non_uniform": non_uniform,
            "trials": trials,
            "avg_messages": messages / trials,
        }
    return results


def test_ablation_relay(once):
    results = once(sweep)

    # Relaying guarantees agreement in every trial.
    assert results[True]["non_uniform"] == 0, results[True]
    # Without it, crash+loss produces observable non-uniform deliveries.
    assert results[False]["non_uniform"] > 0, (
        "expected at least one agreement violation without relaying"
    )
    # And relaying costs more dissemination messages.
    assert results[True]["avg_messages"] > results[False]["avg_messages"]

    rows = [
        ["relay on" if relay else "relay off",
         f"{row['non_uniform']}/{row['trials']}",
         f"{row['avg_messages']:.1f}"]
        for relay, row in results.items()
    ]
    report(
        "ablation_relay",
        "Ablation: reliable-broadcast relaying\n"
        "(sender crashes right after broadcasting; 35% message loss; "
        "25 seeds)\n\n"
        + format_rows(
            ["configuration", "non-uniform outcomes", "avg rt.data msgs"], rows
        )
        + "\n\nshape: relaying costs O(n^2) messages and buys the Agreement "
        "property\n(all-or-none delivery at correct members) that consensus "
        "ABCAST's decision\nbroadcast rests on",
    )
