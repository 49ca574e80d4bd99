"""Performance study (Section 6) — response time across techniques.

The paper closes by planning "a performance study of the different
approaches"; the eager/lazy distinction is explicitly about response
time ("Response times have to be short not allowing any communication
within a transaction", Section 4.6).  This benchmark runs the identical
update workload under every technique and reports the latency
distribution.

Expected shape: lazy techniques answer after one client round-trip;
primary-copy eager pays propagation + 2PC; update-everywhere eager pays
the most coordination; active/semi-* pay the ordering protocol.
"""

import os

from conftest import OUTPUT_DIR, format_rows, report
from repro import RunSpec
from repro.obs import write_artifacts
from repro.profiling import dominant_phase_for
from repro.workload import WorkloadSpec, run_workload

TECHNIQUES = [
    "active", "passive", "semi_active", "semi_passive",
    "eager_primary", "eager_ue_locking", "eager_ue_abcast",
    "lazy_primary", "lazy_ue", "certification",
]

SPEC = WorkloadSpec(items=16, read_fraction=0.0, ops_per_transaction=1)


def sweep():
    rows = {}
    dominant = {}
    for name in TECHNIQUES:
        system, driver, summary = run_workload(
            # Identical, cheap ordering for all.
            RunSpec(name, replicas=3, clients=2, seed=21, observe=True,
                    abcast="sequencer"),
            SPEC, requests_per_client=10, think_time=10.0, settle=300.0,
        )
        dominant[name] = dominant_phase_for(
            system.observer, (r.request_id for r in driver.results)
        )
        write_artifacts(
            system.observer,
            os.path.join(OUTPUT_DIR, f"perf_response_time_{name}"),
            node_order=system.replica_names + [c.name for c in system.clients],
            title=f"perf_response_time {name}",
        )
        rows[name] = summary
    return rows, dominant


def test_perf_response_time(once):
    rows, dominant = once(sweep)

    mean = {name: rows[name].latency.mean for name in TECHNIQUES}
    # Qualitative shape asserted, not absolute numbers:
    # 1. the paper's eager/lazy claim (Section 4.5/4.6): among the
    #    database techniques, lazy responds strictly faster than eager.
    #    (Distributed-systems techniques with merged RE+SC can also answer
    #    in two hops — they pay in messages, not latency.)
    for lazy in ("lazy_primary", "lazy_ue"):
        for eager in ("eager_primary", "eager_ue_locking", "eager_ue_abcast",
                      "certification"):
            assert mean[lazy] < mean[eager], (lazy, eager, mean)
    # 2. distributed locking + 2PC is the most expensive database path.
    assert mean["eager_ue_locking"] >= mean["eager_ue_abcast"]
    assert mean["eager_ue_locking"] >= mean["eager_primary"]
    # 3. everything committed.
    for name in ("active", "passive", "eager_primary", "lazy_primary", "lazy_ue"):
        assert rows[name].abort_rate == 0.0, name

    table = [
        [name, f"{rows[name].latency.mean:.2f}", f"{rows[name].latency.p95:.2f}",
         f"{rows[name].latency.p99:.2f}", f"{rows[name].abort_rate:.2f}",
         dominant[name]]
        for name in sorted(TECHNIQUES, key=lambda n: mean[n])
    ]
    report(
        "perf_response_time",
        "Performance study: response time (identical update workload, "
        "3 replicas, 2 clients, latency unit = 1 per hop)\n\n"
        + format_rows(
            ["technique", "mean latency", "p95 latency", "p99 latency",
             "abort rate", "dominant phase"],
            table,
        )
        + "\n\nshape: lazy < primary-eager < coordinated update-everywhere; "
        "the dominant phase is where the critical-path profiler puts the "
        "largest share of summed response time (docs/phasecost.md)",
    )
