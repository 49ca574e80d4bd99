"""Check (or rewrite) the pinned seed-7 ``sim_digest`` of each end-to-end
workload.

``benchmarks/e2e/child.py`` hashes every simulated statistic of a run
into its ``sim_digest``: message counts by type, the committed, aborted
and shed counts, every latency and every replica's final store.  A change
that claims to keep the simulation byte-identical must leave all five
digests as pinned in ``tests/data/sim_digests.json``.

    python tests/sim_digests.py           # compare; exit 1 on a mismatch
    python tests/sim_digests.py --write   # re-pin, for a deliberate change

Each workload runs once, in a fresh interpreter, as the benchmark does.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHILD = REPO / "benchmarks" / "e2e" / "child.py"
PINNED = REPO / "tests" / "data" / "sim_digests.json"
SEED = 7
WORKLOADS = ("ds_abcast", "db_locking", "lazy_reads", "ds_failover", "ds_abcast_observed")


def digest(workload: str) -> str:
    """One child run's ``sim_digest`` (its report is the last stdout line)."""
    out = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", str(SEED)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])["sim_digest"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin the digests instead of comparing")
    args = parser.parse_args()
    measured = {workload: digest(workload) for workload in WORKLOADS}
    if args.write:
        PINNED.write_text(json.dumps({"seed": SEED, "sim_digest": measured},
                                     indent=2) + "\n")
        print(f"pinned {len(measured)} digests in {PINNED.relative_to(REPO)}")
        return 0
    pinned = json.loads(PINNED.read_text())["sim_digest"]
    status = 0
    for workload in sorted(set(pinned) | set(measured)):
        if pinned.get(workload) != measured.get(workload):
            print(f"{workload}: sim_digest {measured.get(workload)} "
                  f"!= pinned {pinned.get(workload)}")
            status = 1
    if status == 0:
        print(f"seed-{SEED} sim digests identical: {len(measured)} workloads")
    return status


if __name__ == "__main__":
    sys.exit(main())
