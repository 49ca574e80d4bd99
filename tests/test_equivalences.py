"""The paper's cross-community equivalence claims, tested.

Section 4.3: "eager primary copy replication is functionally equivalent
to passive replication with VSCAST.  The only differences are internal to
the Agreement Coordination phase (2PC ... and VSCAST ...)".

Section 4.4.1/4.4.2: semi-active replication and eager update everywhere
with distributed locking are "conceptually similar"; active replication
and eager update everywhere with ABCAST differ only in the client
interaction.

These tests pin the claims down mechanically: equivalent pairs share the
same phase rows (up to the AC mechanism), the same client-visible
outcomes on identical workloads, and the same placement in the
classifications.
"""

import pytest

from repro import AC, END, EX, RE, SC, Operation, ReplicatedSystem
from repro.core.protocols import REGISTRY


def outcomes(protocol, seed=77, **options):
    system = ReplicatedSystem(protocol, replicas=3, seed=seed, **options)
    trace = []
    for i in range(4):
        result = system.execute([Operation.update(f"k{i % 2}", "add", 1)])
        trace.append((result.committed, tuple(result.values)))
    system.settle(400)
    state = system.store_of("r1").values_digest()
    return trace, state


class TestPassiveVsEagerPrimary:
    def test_same_phase_row(self):
        passive = REGISTRY["passive"].info.descriptor.phase_names()
        eager = REGISTRY["eager_primary"].info.descriptor.phase_names()
        assert passive == eager == [RE, EX, AC, END]

    def test_only_ac_mechanism_differs(self):
        passive_steps = {s.phase: s.mechanism for s in
                         REGISTRY["passive"].info.descriptor.steps if s.mechanism}
        eager_steps = {s.phase: s.mechanism for s in
                       REGISTRY["eager_primary"].info.descriptor.steps if s.mechanism}
        assert passive_steps == {AC: "vscast"}
        assert eager_steps == {AC: "2pc"}

    def test_same_client_visible_outcomes(self):
        passive_trace, passive_state = outcomes("passive")
        eager_trace, eager_state = outcomes("eager_primary")
        assert passive_trace == eager_trace
        assert passive_state == eager_state

    def test_both_are_primary_executes_backups_apply(self):
        for name in ("passive", "eager_primary"):
            system = ReplicatedSystem(name, replicas=3, seed=1)
            result = system.execute([Operation.update("x", "random_token")])
            assert result.committed
            system.settle(200)
            values = {system.store_of(n).read("x") for n in system.replica_names}
            assert len(values) == 1, f"{name}: backups must apply, not execute"


class TestActiveVsEagerUEAbcast:
    def test_same_phase_row_no_ac(self):
        active = REGISTRY["active"].info.descriptor.phase_names()
        abcast = REGISTRY["eager_ue_abcast"].info.descriptor.phase_names()
        assert active == abcast == [RE, SC, EX, END]
        assert not REGISTRY["active"].info.descriptor.uses(AC)
        assert not REGISTRY["eager_ue_abcast"].info.descriptor.uses(AC)

    def test_difference_is_the_client_interaction(self):
        # "the client submits its request to one database server ...
        # (note that in distributed systems, the client broadcasts the
        # request directly to all servers)"
        assert REGISTRY["active"].info.client_policy == "all"
        assert REGISTRY["eager_ue_abcast"].info.client_policy == "local"

    def test_same_replica_state_on_same_workload(self):
        _trace_a, state_a = outcomes("active", abcast="sequencer")
        _trace_b, state_b = outcomes("eager_ue_abcast", abcast="sequencer")
        assert state_a == state_b

    def test_both_require_determinism(self):
        assert REGISTRY["active"].info.requires_determinism
        assert REGISTRY["eager_ue_abcast"].info.requires_determinism


class TestSemiActiveVsEagerUELocking:
    def test_same_phase_row(self):
        semi = REGISTRY["semi_active"].info.descriptor.phase_names()
        locking = REGISTRY["eager_ue_locking"].info.descriptor.phase_names()
        assert semi == locking == [RE, SC, EX, AC, END]

    def test_mechanisms_differ_as_the_paper_maps_them(self):
        # "Server Coordination takes place using 2 Phase Locking while in
        # distributed systems this is achieved using ABCAST.  The 2 Phase
        # Commit ... corresponds to the use of a VSCAST mechanism."
        semi = {s.phase: s.mechanism for s in
                REGISTRY["semi_active"].info.descriptor.steps if s.mechanism}
        locking = {s.phase: s.mechanism for s in
                   REGISTRY["eager_ue_locking"].info.descriptor.steps if s.mechanism}
        assert semi == {RE: "abcast", SC: "abcast", AC: "vscast"}
        assert locking == {SC: "locks", AC: "2pc"}


class TestLazinessIsThePhaseSwap:
    @pytest.mark.parametrize("eager,lazy", [
        ("eager_primary", "lazy_primary"),
    ])
    def test_lazy_is_eager_with_end_and_ac_swapped(self, eager, lazy):
        eager_row = REGISTRY[eager].info.descriptor.phase_names()
        lazy_row = REGISTRY[lazy].info.descriptor.phase_names()
        assert eager_row == [RE, EX, AC, END]
        assert lazy_row == [RE, EX, END, AC]
        swapped = list(eager_row)
        i, j = swapped.index(AC), swapped.index(END)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert swapped == lazy_row
