"""Integration tests for the distributed-systems replication techniques."""

import pytest

from repro import AC, END, EX, RE, SC, Operation, ReplicatedSystem, RunSpec
from repro.analysis import check_linearizable, history_from_results
from repro.core.operations import Request
from repro.net import Node
from repro.resilience import retrying_client
from repro.workload import ArrivalSpec, run_openloop


def drive_updates(system, n, gap=25.0, item="x", client=0, func="add", arg=1):
    def loop():
        results = []
        for _ in range(n):
            result = yield system.client(client).submit(
                [Operation.update(item, func, arg)]
            )
            results.append(result)
            yield system.sim.timeout(gap)
        return results
    handle = system.sim.spawn(loop())
    system.sim.run_until_done(handle)
    return handle.result


class TestActive:
    def test_all_replicas_execute_and_converge(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 10)])
        assert result.committed and result.value == 10
        system.settle(100)
        assert all(system.store_of(n).read("x") == 10 for n in system.replica_names)

    def test_client_takes_first_of_n_responses(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        result = system.execute([Operation.read("x")])
        assert result.committed
        assert len(system.client(0).results) == 1, "duplicate responses must be ignored"

    def test_replica_crash_is_transparent(self):
        system = ReplicatedSystem("active", replicas=3, seed=2,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(40.0, "r0")
        results = drive_updates(system, 5)
        assert all(r.committed for r in results)
        assert all(r.retries == 0 for r in results), "failures must be masked"
        system.settle(400)
        live = system.live_replicas()
        assert all(system.store_of(n).read("x") == 5 for n in live)

    def test_phase_sequence_matches_figure_2(self):
        system = ReplicatedSystem("active", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        system.settle(100)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, END]
        assert system.tracer.mechanisms_used(result.request_id)[SC] == "abcast"

    def test_nondeterminism_genuinely_breaks_active_replication(self):
        # The paper's determinism requirement made real: a non-
        # deterministic operation diverges the replicas.
        system = ReplicatedSystem("active", replicas=3, seed=3)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(100)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) > 1, "expected divergence under non-determinism"

    def test_sequencer_variant_works(self):
        system = ReplicatedSystem("active", replicas=4, seed=1,
                                  abcast="sequencer")
        results = drive_updates(system, 4, gap=10.0)
        assert all(r.committed for r in results)
        system.settle(100)
        assert system.converged()

    def test_linearizable_history(self):
        system = ReplicatedSystem("active", replicas=3, clients=2, seed=5)
        def client_loop(i):
            for _ in range(4):
                yield system.client(i).submit([Operation.update("x", "add", 1)])
                yield system.sim.timeout(3.0)
        h1 = system.sim.spawn(client_loop(0))
        h2 = system.sim.spawn(client_loop(1))
        system.sim.run_until_done(system.sim.all_of([h1, h2]))
        results = system.client(0).results + system.client(1).results
        history = history_from_results(results)
        assert check_linearizable(history, initial=None).ok


class TestPassive:
    def test_primary_executes_backups_apply(self):
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 7)])
        assert result.committed and result.server == "r0"
        system.settle(100)
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 7

    def test_nondeterminism_is_safe(self):
        # Only the primary executes; backups apply after-images.
        system = ReplicatedSystem("passive", replicas=3, seed=2)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(100)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1, "backups must hold the primary's value"

    def test_phase_sequence_matches_figure_3(self):
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.write("x", 1)])
        system.settle(50)
        primary_seq = system.tracer.observed_sequence(result.request_id, source="r0")
        assert primary_seq == [RE, EX, AC, END]
        backup_seq = system.tracer.observed_sequence(result.request_id, source="r1")
        assert backup_seq == [AC], "backups only participate in agreement"

    def test_primary_answers_after_the_backups_apply(self):
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 1)])
        assert result.committed and result.server == "r0"
        times = {
            (event.source, event.data["phase"]): event.time
            for event in system.trace.select("phase", request=result.request_id)
        }
        assert times["r0", END] > times["r1", AC]
        assert times["r0", END] > times["r2", AC]

    @staticmethod
    def _cut_off_the_primary(system, client, heal, crash=False):
        """Submit ``x += 1`` at 20, cut the primary and the client off from
        both backups at 20.5 (and crash the primary at 21.5), heal at
        ``heal`` and settle; return the client's answers."""
        system.injector.partition_at(20.5, ["r0", client.name], ["r1", "r2"])
        if crash:
            system.injector.crash_at(21.5, "r0")
        system.injector.heal_at(heal)
        answers = []

        def submit():
            yield system.sim.timeout(20.0)
            answers.append((yield client.submit([Operation.update("x", "add", 1)])))

        system.sim.spawn(submit())
        system.settle(600)
        return answers

    def test_an_answered_update_survives_partition_and_primary_crash(self):
        # The primary crashes before the update it vscast reaches either
        # backup.  It must not have told the client the update committed.
        system = ReplicatedSystem("passive", replicas=3, seed=3)
        answers = self._cut_off_the_primary(system, system.client(0), 24.0, crash=True)
        if answers and answers[0].committed:
            held = {name: system.store_of(name).read("x")
                    for name in system.live_replicas()}
            assert held == {"r1": 1, "r2": 1}, (answers[0].server, held)
        # It is answered, after a retry, by the primary that replaced r0.
        assert [(r.committed, r.server) for r in answers] == [(True, "r1")]

    def test_a_short_partition_delays_the_answer(self):
        # Healed before anyone is suspected: the vscast gets through late
        # and the primary answers once both backups hold the update.
        system = ReplicatedSystem("passive", replicas=3, seed=3)
        answers = self._cut_off_the_primary(system, system.client(0), 24.0)
        assert [(r.committed, r.server, r.values) for r in answers] == [(True, "r0", [1])]
        assert answers[0].completed_at > 24.0
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 1, name

    @pytest.mark.parametrize("retrying", [False, True], ids=["blocking", "retrying"])
    def test_a_wrongly_excluded_primary_keeps_nothing_the_group_missed(self, retrying):
        # The backups leave r0 out of view 1; after the heal r0 learns it
        # and rejoins as the primary of view 2.  The update it executed in
        # view 0 never reached the group: r0 must neither keep it in its
        # store nor answer a retry of it from its reply table.
        system = ReplicatedSystem("passive", replicas=3, seed=3)
        client = retrying_client(system) if retrying else system.client(0)
        answers = self._cut_off_the_primary(system, client, 30.0)
        excluded = system.trace.select("view", source="r0", action="excluded")
        assert [e.data["view"] for e in excluded] == [1]
        assert system.protocol_at("r0").is_primary
        held = {name: system.store_of(name).read("x") for name in system.replica_names}
        if retrying:
            # The retry reaches r0 again and is executed once, in view 2.
            assert [(r.committed, r.server, r.values) for r in answers] == [(True, "r0", [1])]
            assert held == {"r0": 1, "r1": 1, "r2": 1}
        else:
            # The blocking client waits on a live primary that never answers.
            assert answers == []
            assert held == {"r0": None, "r1": None, "r2": None}

    def test_a_wrongly_excluded_backup_rejoins(self):
        # r1 is alive but cut off long enough to be left out of the view;
        # once it learns that, it asks to come back and gets the state.
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        system.injector.partition_at(20.0, ["r1"], ["r0", "r2", "c0"])
        system.injector.heal_at(50.0)
        results = drive_updates(system, 4, gap=25.0)
        system.settle(300)
        assert all(r.committed for r in results)
        excluded = system.trace.select("view", source="r1", action="excluded")
        assert [e.data["view"] for e in excluded] == [1]
        assert "r1" in system.protocol_at("r1").view_group.view.members
        for name in system.replica_names:
            assert system.store_of(name).read("x") == 4, name

    def test_primary_failover_promotes_next_member(self):
        system = ReplicatedSystem("passive", replicas=3, seed=3,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(60.0, "r0")
        results = drive_updates(system, 6, gap=30.0)
        assert all(r.committed for r in results)
        assert {r.server for r in results} == {"r0", "r1"}
        assert system.directory.primary == "r1"
        system.settle(300)
        for name in system.live_replicas():
            assert system.store_of(name).read("x") == 6

    def test_failover_is_not_transparent(self):
        # Crash the primary exactly while a request is in flight: the
        # client must observe at least one retry (Figure 5's placement of
        # passive replication).
        system = ReplicatedSystem("passive", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=6.0,
                                  client_timeout=40.0)
        system.injector.crash_at(30.5, "r0")
        def loop():
            yield system.sim.timeout(30.0)
            return (yield system.client(0).submit([Operation.update("x", "add", 1)]))
        handle = system.sim.spawn(loop())
        result = system.sim.run_until_done(handle)
        assert result.committed
        assert result.retries >= 1
        assert result.server == "r1"

    def test_backups_hold_the_primary_replies(self):
        # Every member records the values the vscast update carries, so a
        # backup can answer a retry before it is ever promoted.
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        results = drive_updates(system, 3)
        system.settle(100)
        for name in ("r1", "r2"):
            for result in results:
                cached = system.replica(name).cached_reply(result.request_id)
                assert cached == tuple(result.values), (name, result.request_id)

    def test_forward_of_an_applied_request_is_answered_from_the_table(self):
        # A backup with a stale directory forwards straight into the
        # primary's handle_request, past the client path's cache check.
        system = ReplicatedSystem("passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 7)])
        assert result.committed and result.server == "r0"
        probe = Node(system.sim, system.net, "probe")
        replies = []
        probe.on("client.response", replies.append)
        probe.send("r0", "passive.forward",
                   request=Request(result.request_id, result.operations),
                   client="probe")
        system.settle(100)
        assert [(r["committed"], r["values"]) for r in replies] == [(True, [7])]
        assert all(system.store_of(n).read("x") == 7 for n in system.replica_names)
        phases = system.tracer.observed_sequence(result.request_id, source="r0")
        assert phases.count(EX) == 1 and phases.count(END) == 2

    def test_exactly_once_across_failover(self):
        # Even when the primary dies right after executing, re-submission
        # must not double-apply (the reply travels with the vscast).
        for crash_at in (30.5, 31.5, 32.5):
            system = ReplicatedSystem("passive", replicas=3, seed=5,
                                      fd_interval=2.0, fd_timeout=6.0,
                                      client_timeout=40.0)
            system.injector.crash_at(crash_at, "r0")
            def loop():
                yield system.sim.timeout(30.0)
                first = yield system.client(0).submit([Operation.update("x", "add", 1)])
                return first
            handle = system.sim.spawn(loop())
            result = system.sim.run_until_done(handle)
            system.settle(400)
            assert result.committed
            survivors = system.live_replicas()
            values = {system.store_of(n).read("x") for n in survivors}
            assert values == {1}, f"crash_at={crash_at}: {values}"


class TestSemiActive:
    def test_deterministic_requests_run_everywhere(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 4)])
        assert result.committed and result.value == 4
        system.settle(100)
        assert system.converged()

    def test_leader_decides_nondeterministic_choice(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=2)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(200)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1, "leader's choice must reach all followers"

    def test_phase_sequence_includes_ac_per_choice(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=3)
        result = system.execute(
            [Operation.update("x", "random_token"), Operation.update("y", "random_token")]
        )
        system.settle(200)
        observed = system.tracer.observed_sequence(result.request_id, source="r0")
        assert observed == [RE, SC, EX, AC, EX, AC, END]
        collapsed = system.tracer.observed_sequence(
            result.request_id, source="r0", collapse=True
        )
        assert collapsed == [RE, SC, EX, AC, END]

    def test_leader_crash_mid_choice_recovers(self):
        system = ReplicatedSystem("semi_active", replicas=3, seed=4,
                                  fd_interval=2.0, fd_timeout=8.0)
        system.injector.crash_at(45.0, "r0")
        results = drive_updates(system, 5, gap=25.0, func="random_token", arg=None)
        assert all(r.committed for r in results)
        system.settle(400)
        live = system.live_replicas()
        digests = {system.store_of(n).values_digest() for n in live}
        assert len(digests) == 1

    def test_second_delivery_while_waiting_on_the_choice_executes_once(self):
        # r0 and r1 both inject the request, and the leader r0 crashes
        # after ABCAST delivers it there but before its executor makes the
        # choice.  r1's copy is then delivered while the followers still
        # wait for the next leader's choice: it is in no reply table yet,
        # and must be dropped because the first copy is executing.
        system = ReplicatedSystem("semi_active", replicas=3, seed=1)
        probe = Node(system.sim, system.net, "probe")
        replies = []
        probe.on("client.response", replies.append)
        request = Request.make(
            [Operation.update("y", "add", 1), Operation.update("x", "random_token")],
            client="probe", sequence=1,
        )
        rid = request.request_id
        follower = system.protocol_at("r1")
        blocked_at_delivery = []
        deliver = follower.abcast.deliver

        def spy(origin, mtype, body):
            blocked_at_delivery.append(follower._blocked_on)
            deliver(origin, mtype, body)

        follower.abcast.deliver = spy
        for name in ("r0", "r1"):
            system.protocol_at(name).abcast.abcast("request", request=request, client="probe")
        while rid not in system.protocol_at("r0")._queue:
            assert system.sim.step()
        system.replica("r0").node.crash()
        system.settle(300)
        assert blocked_at_delivery == [None, (rid, 1)]
        for name in ("r1", "r2"):
            phases = system.tracer.observed_sequence(rid, source=name)
            assert phases == [SC, EX, AC, END], (name, phases)
            assert system.store_of(name).read("y") == 1
        assert [reply["server"] for reply in replies] == ["r1", "r2"]
        assert system.converged()


class TestSemiPassive:
    def test_decides_and_converges(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=1)
        result = system.execute([Operation.update("x", "add", 2)])
        assert result.committed and result.value == 2
        system.settle(100)
        assert system.converged()

    def test_only_coordinator_executes_failure_free(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=2)
        for _ in range(3):
            system.execute([Operation.update("x", "add", 1)])
        system.settle(100)
        executed = {
            name: system.protocol_at(name).executed_slots()
            for name in system.replica_names
        }
        assert executed["r0"] == 3, executed
        assert executed["r1"] == 0 and executed["r2"] == 0

    def test_crash_transparent_to_client(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=3,
                                  fd_interval=2.0, fd_timeout=6.0)
        system.injector.crash_at(40.0, "r0")
        results = drive_updates(system, 5)
        assert all(r.committed and r.retries == 0 for r in results)
        system.settle(400)
        live = system.live_replicas()
        assert all(system.store_of(n).read("x") == 5 for n in live)

    def test_open_loop_below_the_consensus_ceiling(self):
        # One consensus instance per request: at 0.4 req/unit the load
        # stays below what two communication steps per slot can carry, so
        # responses do not queue up behind earlier slots.
        system, _engine, summary = run_openloop(
            RunSpec("semi_passive", seed=7),
            arrival=ArrivalSpec(process="poisson", rate=0.4, duration=400.0),
        )
        assert summary.committed == summary.offered
        assert summary.latency.mean < 20.0, summary.latency
        executions = sum(
            system.protocol_at(name).consensus.executions
            for name in system.replica_names
        )
        assert executions == summary.offered

    def test_nondeterminism_safe_like_passive(self):
        system = ReplicatedSystem("semi_passive", replicas=3, seed=4)
        result = system.execute([Operation.update("x", "random_token")])
        assert result.committed
        system.settle(200)
        values = {system.store_of(n).read("x") for n in system.replica_names}
        assert len(values) == 1
