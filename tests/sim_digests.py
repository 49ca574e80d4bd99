"""Check (or rewrite) the pinned seed-7 digests of each end-to-end workload.

Two digests per workload, both pinned in ``tests/data/sim_digests.json``:

* ``sim_digest`` is the one ``benchmarks/e2e/child.py`` reports: every
  simulated statistic of the run — message counts by type, the
  committed, aborted and shed counts, every latency and every replica's
  final store.  A change that claims to keep the simulation
  byte-identical must leave it as pinned.
* ``outcome_digest`` is what the clients and the stores see: the sorted
  committed latencies, the offered, committed, aborted and shed counts,
  and every replica's ``values_digest()``.  It leaves ``NetworkStats``
  out, so a change to the message pattern that moves no outcome keeps
  it while re-pinning ``sim_digest``.

    python tests/sim_digests.py           # compare; exit 1 on a mismatch
    python tests/sim_digests.py --write   # re-pin, for a deliberate change

Each workload runs once, in a fresh interpreter, as the benchmark does;
the run is built from the table in ``benchmarks/e2e/workloads.py``, the
way ``child.py`` builds it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
E2E = REPO / "benchmarks" / "e2e"
PINNED = REPO / "tests" / "data" / "sim_digests.json"
SEED = 7
WORKLOADS = ("ds_abcast", "db_locking", "lazy_reads", "ds_failover", "ds_abcast_observed")
DIGESTS = ("sim_digest", "outcome_digest")


def measure(name: str) -> dict:
    """Run one workload in this interpreter; both digests of the run."""
    sys.dont_write_bytecode = True  # leave nothing behind in benchmarks/e2e
    sys.path[:0] = [str(E2E), str(REPO / "src")]
    import child
    import workloads
    from repro.core.system import ReplicatedSystem
    from repro.net import ConstantLatency
    from repro.workload import ArrivalSpec, OpenLoopEngine, WorkloadGenerator, WorkloadSpec

    spec = workloads.workload(name)
    system = ReplicatedSystem(
        spec.technique, replicas=workloads.REPLICAS, clients=workloads.CLIENT_EDGES,
        seed=SEED, latency=ConstantLatency(1.0), observe=spec.observe,
    )
    for action, fraction, node in spec.faults:
        getattr(system.injector, f"{action}_at")(fraction * spec.duration, node)
    generator = WorkloadGenerator(
        WorkloadSpec(read_fraction=spec.read_fraction, **workloads.WORKLOAD_SPEC),
        seed=SEED,
    )
    engine = OpenLoopEngine(system, generator, ArrivalSpec(
        process="poisson", rate=workloads.RATE, duration=spec.duration,
        clients=workloads.LOGICAL_CLIENTS,
    ))
    summary = engine.run(settle=workloads.SETTLE)
    latencies = sorted(result.latency for result in engine.results if result.committed)
    outcome = hashlib.sha256()
    outcome.update(json.dumps([
        summary.offered, summary.committed, summary.aborted, summary.shed,
    ]).encode())
    outcome.update(repr(latencies).encode())
    for replica in system.replica_names:
        outcome.update(repr(system.store_of(replica).values_digest()).encode())
    return {
        "sim_digest": child.sim_digest(system, summary, latencies),
        "outcome_digest": outcome.hexdigest(),
    }


def digests(workload: str) -> dict:
    """Both digests of one workload, measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--measure", workload],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin the digests instead of comparing")
    parser.add_argument("--measure", metavar="WORKLOAD",
                        help="print one workload's digests as JSON and stop")
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    runs = {workload: digests(workload) for workload in WORKLOADS}
    measured = {kind: {w: runs[w][kind] for w in WORKLOADS} for kind in DIGESTS}
    if args.write:
        PINNED.write_text(json.dumps({"seed": SEED, **measured}, indent=2) + "\n")
        print(f"pinned {len(WORKLOADS)} x {len(DIGESTS)} digests in "
              f"{PINNED.relative_to(REPO)}")
        return 0
    pinned = json.loads(PINNED.read_text())
    status = 0
    for kind in DIGESTS:
        for workload in sorted(set(pinned.get(kind, {})) | set(measured[kind])):
            want, got = pinned.get(kind, {}).get(workload), measured[kind].get(workload)
            if want != got:
                print(f"{workload}: {kind} {got} != pinned {want}")
                status = 1
    if status == 0:
        print(f"seed-{SEED} sim and outcome digests identical: {len(WORKLOADS)} workloads")
    return status


if __name__ == "__main__":
    sys.exit(main())
