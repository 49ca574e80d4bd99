"""Tests for the sequential-consistency checker and the paper's §2.2
criterion contrast: linearizability is strictly stronger."""

from repro import Operation, ReplicatedSystem
from repro.analysis import (
    History,
    Invocation,
    check_linearizable,
    check_sequentially_consistent,
    history_from_results,
)


def inv(kind, item, start, end, output=None, argument=None, func="set",
        client="c", rid=None):
    return Invocation(
        request_id=rid or f"{client}-{kind}-{start}",
        kind=kind, item=item, argument=argument, func=func,
        output=output, start=start, end=end, client=client,
    )


class TestChecker:
    def test_empty_history_ok(self):
        assert check_sequentially_consistent(History([])).ok

    def test_program_order_must_hold(self):
        # One client writes then reads back something else entirely:
        # no reordering can save this.
        history = History([
            inv("write", "x", 0, 1, argument="mine", client="c0"),
            inv("read", "x", 2, 3, output="other", client="c0"),
        ])
        assert not check_sequentially_consistent(history).ok

    def test_stale_read_across_clients_is_allowed(self):
        # c0's write completed in real time before c1's read began, yet
        # the read returned the old value.  NOT linearizable, but
        # sequentially consistent: c1's op may be ordered first.
        history = History([
            inv("write", "x", 0, 1, argument="new", client="c0"),
            inv("read", "x", 5, 6, output=None, client="c1"),
        ])
        assert not check_linearizable(history, initial=None).ok
        assert check_sequentially_consistent(history, initial=None).ok

    def test_own_writes_must_be_visible(self):
        # The same stale read is illegal when issued by the writer itself.
        history = History([
            inv("write", "x", 0, 1, argument="new", client="c0"),
            inv("read", "x", 5, 6, output=None, client="c0"),
        ])
        assert not check_sequentially_consistent(history, initial=None).ok

    def test_impossible_value_still_fails(self):
        history = History([
            inv("write", "x", 0, 1, argument=1, client="c0"),
            inv("read", "x", 2, 3, output=999, client="c1"),
        ])
        assert not check_sequentially_consistent(history).ok

    def test_counter_outputs_constrain_order(self):
        history = History([
            inv("update", "x", 0, 1, output=1, argument=1, func="add", client="c0"),
            inv("update", "x", 0, 1, output=2, argument=1, func="add", client="c1"),
        ])
        assert check_sequentially_consistent(history, initial=None).ok
        history_bad = History([
            inv("update", "x", 0, 1, output=1, argument=1, func="add", client="c0"),
            inv("update", "x", 2, 3, output=1, argument=1, func="add", client="c1"),
        ])
        assert not check_sequentially_consistent(history_bad, initial=None).ok


class TestLazyPrimaryIsSequentialNotLinearizable:
    """The paper: 'Sequential consistency allows, under some conditions,
    to read old values.'  Lazy primary copy produces exactly such
    histories: secondaries serve stale reads."""

    def build_history(self):
        system = ReplicatedSystem(
            "lazy_primary", replicas=2, clients=2, seed=3,
            propagation_delay=60.0,
        )
        results = []

        def writer():
            results.append((yield system.client(0).submit([Operation.write("x", "v1")])))

        def stale_reader():
            yield system.sim.timeout(20.0)  # well after the write completed
            results.append((yield system.client(1).submit([Operation.read("x")])))

        handles = [system.sim.spawn(writer()), system.sim.spawn(stale_reader())]
        system.sim.run_until_done(system.sim.all_of(handles))
        invocations = []
        for index, client in enumerate(system.clients):
            for invocation in history_from_results(client.results, client=f"c{index}"):
                invocations.append(invocation)
        return system, History(invocations), results

    def test_reader_saw_stale_value(self):
        system, history, results = self.build_history()
        read = next(r for r in results if r.operations[0].kind == "read")
        assert read.value is None, "secondary must still be stale"

    def test_history_not_linearizable_but_sequentially_consistent(self):
        system, history, results = self.build_history()
        assert not check_linearizable(history, initial=None).ok
        assert check_sequentially_consistent(history, initial=None).ok

    def test_eager_primary_same_scenario_is_linearizable(self):
        system = ReplicatedSystem("eager_primary", replicas=2, clients=2, seed=3)
        results = []

        def writer():
            results.append((yield system.client(0).submit([Operation.write("x", "v1")])))

        def reader():
            yield system.sim.timeout(20.0)
            results.append((yield system.client(1).submit([Operation.read("x")])))

        handles = [system.sim.spawn(writer()), system.sim.spawn(reader())]
        system.sim.run_until_done(system.sim.all_of(handles))
        invocations = []
        for index, client in enumerate(system.clients):
            for invocation in history_from_results(client.results, client=f"c{index}"):
                invocations.append(invocation)
        assert check_linearizable(History(invocations), initial=None).ok


class TestCriterionHierarchyProperty:
    """Section 2.2: 'Linearisability is strictly stronger than sequential
    consistency' — every linearizable history must also pass the
    sequential-consistency checker."""

    def test_linearizable_implies_sequentially_consistent(self):
        import random
        rng = random.Random(42)
        checked = 0
        for trial in range(40):
            # Generate a history by actually running a legal register:
            # random interleaved client sessions against one true value.
            invocations = []
            value = None
            time = 0.0
            for step in range(rng.randint(1, 7)):
                client = f"c{rng.randint(0, 2)}"
                time += rng.uniform(0.5, 3.0)
                duration = rng.uniform(0.1, 1.0)
                if rng.random() < 0.5:
                    argument = rng.randint(0, 9)
                    value = argument
                    invocations.append(inv("write", "x", time, time + duration,
                                           argument=argument, client=client,
                                           rid=f"t{trial}-{step}"))
                else:
                    invocations.append(inv("read", "x", time, time + duration,
                                           output=value, client=client,
                                           rid=f"t{trial}-{step}"))
                time += duration
            history = History(invocations)
            if check_linearizable(history, initial=None).ok:
                checked += 1
                assert check_sequentially_consistent(history, initial=None).ok, (
                    f"trial {trial}: linearizable history failed SC"
                )
        assert checked >= 30, "generator should produce linearizable histories"
