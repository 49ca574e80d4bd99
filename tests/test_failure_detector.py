"""Dedicated tests for the heartbeat failure detector."""

import pytest

from repro.failures import FailureDetector, FailureInjector
from repro.net import ConstantLatency, Network, Node, UniformLatency
from repro.sim import Simulator


def build(n=3, seed=1, interval=2.0, timeout=8.0, jitter=False):
    sim = Simulator(seed=seed)
    latency = UniformLatency(0.5, 3.0) if jitter else ConstantLatency(1.0)
    net = Network(sim, latency=latency)
    names = [f"n{i}" for i in range(n)]
    nodes = {name: Node(sim, net, name) for name in names}
    detectors = {
        name: FailureDetector(nodes[name], names, interval=interval, timeout=timeout)
        for name in names
    }
    return sim, net, nodes, detectors


class TestDetection:
    def test_no_suspicions_while_everyone_lives(self):
        sim, net, nodes, detectors = build()
        sim.run(until=200)
        for detector in detectors.values():
            assert not detector.suspected

    def test_crashed_node_eventually_suspected_by_all(self):
        sim, net, nodes, detectors = build()
        sim.schedule(50.0, nodes["n1"].crash)
        sim.run(until=100)
        for name in ("n0", "n2"):
            assert detectors[name].is_suspected("n1")

    def test_detection_latency_bounded_by_timeout_plus_interval(self):
        sim, net, nodes, detectors = build(interval=2.0, timeout=8.0)
        suspected_at = {}
        detectors["n0"].on_suspect(lambda p: suspected_at.setdefault(p, sim.now))
        sim.schedule(50.0, nodes["n1"].crash)
        sim.run(until=200)
        assert "n1" in suspected_at
        assert 50.0 < suspected_at["n1"] <= 50.0 + 8.0 + 2.0 * 2 + 2.0

    def test_own_node_never_suspected(self):
        sim, net, nodes, detectors = build()
        sim.run(until=100)
        assert "n0" not in detectors["n0"].suspected

    def test_listeners_fire_once_per_transition(self):
        sim, net, nodes, detectors = build()
        events = []
        detectors["n0"].on_suspect(lambda p: events.append(("suspect", p, sim.now)))
        sim.schedule(30.0, nodes["n2"].crash)
        sim.run(until=300)
        assert events.count(("suspect", "n2", events[0][2])) == 1
        assert len([e for e in events if e[1] == "n2"]) == 1


class TestWrongSuspicionsAndRecovery:
    def test_partition_causes_wrong_suspicion_then_restore(self):
        sim, net, nodes, detectors = build()
        restores = []
        detectors["n0"].on_restore(lambda p: restores.append((p, sim.now)))
        net.partition(["n0"], ["n1", "n2"])
        sim.run(until=60)
        assert detectors["n0"].is_suspected("n1")
        net.heal()
        sim.run(until=120)
        assert not detectors["n0"].is_suspected("n1")
        assert any(p == "n1" for p, _t in restores)
        assert detectors["n0"].wrong_suspicions >= 1

    def test_adaptive_timeout_grows_after_wrong_suspicion(self):
        sim, net, nodes, detectors = build()
        before = detectors["n0"]._timeouts["n1"]
        net.partition(["n0"], ["n1", "n2"])
        sim.run(until=60)
        net.heal()
        sim.run(until=120)
        assert detectors["n0"]._timeouts["n1"] > before

    def test_recovered_node_resumes_heartbeats_and_is_unsuspected(self):
        sim, net, nodes, detectors = build()
        sim.schedule(30.0, nodes["n1"].crash)
        sim.schedule(100.0, nodes["n1"].recover)
        sim.run(until=200)
        assert not detectors["n0"].is_suspected("n1")
        assert not detectors["n2"].is_suspected("n1")

    def test_recovered_node_does_not_suspect_the_world(self):
        sim, net, nodes, detectors = build()
        sim.schedule(30.0, nodes["n1"].crash)
        sim.schedule(150.0, nodes["n1"].recover)
        sim.run(until=160)  # right after recovery, before fresh heartbeats
        assert not detectors["n1"].suspected, (
            "stale last-heard state must be reset on recovery"
        )
        sim.run(until=300)
        assert not detectors["n1"].suspected


class TestInjectorIntegration:
    def test_injector_schedule_is_recorded(self):
        sim, net, nodes, detectors = build()
        injector = FailureInjector(sim, net)
        injector.crash_at(10.0, "n0")
        injector.recover_at(50.0, "n0")
        injector.heal_at(60.0)
        kinds = [kind for _t, kind, _arg in injector.planned]
        assert kinds == ["crash", "recover", "heal"]
        sim.run(until=100)
        assert not nodes["n0"].crashed

    def test_random_crashes_deterministic_per_seed(self):
        def schedule(seed):
            sim, net, nodes, _ = build(seed=seed)
            injector = FailureInjector(sim, net)
            return injector.random_crashes(list(nodes), 2, (10.0, 90.0))
        assert schedule(5) == schedule(5)
        assert schedule(5) != schedule(6)

    def test_random_crashes_rejects_oversubscription(self):
        sim, net, nodes, _ = build()
        injector = FailureInjector(sim, net)
        with pytest.raises(ValueError):
            injector.random_crashes(list(nodes), 99, (0.0, 1.0))
