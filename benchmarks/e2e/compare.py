"""Compare two result files of ``run.py``: base A against candidate B.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric) with B's median as a ratio of
A's, and a verdict against the metric's bound from ``workloads.py``:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the inter-quartile spread of either side's repeats is
                  wider than the bound, so the bound cannot be applied;
* ``better``      B's median is better by more than A's own spread;
* ``same``        anything else.

Sim-clock metrics repeat exactly per seed, so for them any difference
is real and is shown; a workload whose ``sim_digest`` changed is
flagged, since a change meant only to speed the simulator up must leave
every simulated statistic identical.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List

import workloads


def iqr_share(row: dict) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"])


def verdict(metric: workloads.Metric, base: dict, new: dict) -> str:
    gain = (new["median"] - base["median"]) / abs(base["median"])
    if metric.better == "lower":
        gain = -gain
    if max(iqr_share(base), iqr_share(new)) > metric.bound:
        return "unresolved"
    if gain < -metric.bound:
        return "worse"
    if gain > iqr_share(base):
        return "better"
    return "same"


def compare(base: dict, new: dict) -> List[str]:
    """Print the table; return the verdicts."""
    if base["seed"] != new["seed"] or base["seconds"] != new["seconds"]:
        print(f"note: A ran seed {base['seed']} for {base['seconds']} s, B seed "
              f"{new['seed']} for {new['seconds']} s: sim metrics are not comparable")
    verdicts = []
    print(f"{'workload':<20}{'metric':<17}{'clock':<6}{'bound':>6}"
          f"{'A median':>14}{'B median':>14}{'B/A':>9}  verdict")
    for name, base_run in base["workloads"].items():
        new_run = new["workloads"].get(name)
        if new_run is None:
            print(f"{name:<20}missing from B")
            continue
        for metric in workloads.END_TO_END:
            a, b = base_run["end_to_end"][metric.name], new_run["end_to_end"][metric.name]
            result = verdict(metric, a, b)
            verdicts.append(result)
            print(f"{name:<20}{metric.name:<17}{metric.clock:<6}{metric.bound:>6.2f}"
                  f"{a['median']:>14.6g}{b['median']:>14.6g}"
                  f"{b['median'] / a['median']:>9.4f}  {result}")
        same = base_run["sim_digest"] == new_run["sim_digest"]
        print(f"{name:<20}sim_digest {'identical' if same else 'DIFFERS'}; "
              f"failed {base_run['failed']} -> {new_run['failed']} of "
              f"{base_run['attempted']} -> {new_run['attempted']} attempted")
    return verdicts


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        verdicts = compare(json.load(a), json.load(b))
    counts = {v: verdicts.count(v) for v in ("better", "same", "worse", "unresolved")}
    print(", ".join(f"{count} {name}" for name, count in counts.items()))
    if counts["worse"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
