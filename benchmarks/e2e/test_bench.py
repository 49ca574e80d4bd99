"""Smoke-sized pass over the benchmark harness (durations / 20).

Run explicitly: ``python -m pytest benchmarks/e2e -q``.  Not in
``testpaths``, so tier-1 time is unchanged.
"""

from __future__ import annotations

import json
import math
import os

import child  # noqa: F401 - puts the checkout's src/ on sys.path
import run
import trace
import workloads

SMOKE_SECONDS = workloads.RUN_SECONDS / 20
SMOKE_SCALE = 1 / 20
REPO = os.path.dirname(os.path.dirname(run.HERE))


def test_manifest_is_benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        assert json.load(handle) == workloads.manifest()


def test_every_named_metric_is_reported(tmp_path, capsys):
    out = tmp_path / "results.json"
    run.main(["--seconds", str(SMOKE_SECONDS), "--trace", "1", "--out", str(out)])
    printed = capsys.readouterr().out
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == [w.name for w in workloads.WORKLOADS]
    for name, result in results.items():
        for metric in workloads.END_TO_END:
            row = result["end_to_end"][metric.name]
            assert math.isfinite(row["median"]) and row["median"] > 0, (name, metric.name)
            assert metric.name in printed
        for metric in workloads.PER_LAYER:
            assert math.isfinite(result["per_layer"][metric.name]), (name, metric.name)
        assert set(result["per_layer"]) == {m.name for m in workloads.PER_LAYER}
        assert result["failed"] == 0
        assert result["per_layer"]["trace.coverage"] >= 0.8
    # The design intent of the workloads holds even at smoke size.
    layers = {name: result["per_layer"] for name, result in results.items()}

    def share(name, layer):
        return workloads.layer_shares(layers[name])[layer]

    assert share("db_locking", "db") > 0.10 and share("ds_abcast", "db") < 0.02
    assert share("ds_abcast", "groupcomm") > 0.10
    assert share("db_locking", "groupcomm") < 0.01 and share("lazy_reads", "groupcomm") < 0.01
    assert share("ds_abcast_observed", "obs") == max(
        share("ds_abcast_observed", layer) for layer in workloads.LAYERS)
    for name, per_layer in layers.items():
        observed = name == "ds_abcast_observed"
        assert (per_layer["obs.self_s"] > 0) == observed
        assert (per_layer["net.dropped"] > 0) == (name == "ds_failover")


def test_driver_line(capsys):
    run.main(["--workload", "lazy_reads", "--seconds", str(SMOKE_SECONDS),
              "--seed", "3", "--trace", "0", "--out", os.devnull])
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in workloads.END_TO_END}


def test_sim_clock_is_exact_per_seed_and_tracing_is_neutral():
    first = run.spawn("db_locking", 7, SMOKE_SCALE)
    again = run.spawn("db_locking", 7, SMOKE_SCALE)
    traced = run.spawn("db_locking", 7, SMOKE_SCALE, "--traced")
    other = run.spawn("db_locking", 11, SMOKE_SCALE)
    sim = [m.name for m in workloads.END_TO_END if m.clock == "sim"]
    assert [first["end_to_end"][m] for m in sim] == [again["end_to_end"][m] for m in sim]
    assert first["sim_digest"] == again["sim_digest"] == traced["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]
    assert [first["end_to_end"][m] for m in sim] != [other["end_to_end"][m] for m in sim]


def test_wrappers_are_fully_removed():
    import inspect

    from repro.core.system import ClientNode
    from repro.net.network import Network
    from repro.sim.core import Future, Simulator, Timer

    watched = [(Simulator, "step"), (Timer, "_fire"), (Future, "add_callback"),
               (Network, "send"), (ClientNode, "submit")]
    before = [inspect.getattr_static(owner, attr) for owner, attr in watched]
    tracer = trace.install()
    assert all(inspect.getattr_static(owner, attr) is not original
               for (owner, attr), original in zip(watched, before))
    tracer.uninstall()
    assert [inspect.getattr_static(owner, attr) for owner, attr in watched] == before
    assert not tracer._patched
