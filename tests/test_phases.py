"""Tests for the five-phase functional model and phase tracing."""

import pytest

from repro import AC, END, EX, RE, SC, PhaseDescriptor, PhaseStep, PhaseTracer
from repro.core.classification import (
    db_matrix,
    ds_matrix,
    strong_consistency_combinations,
    synthetic_view,
)
from repro.core.protocols import REGISTRY
from repro.sim import Simulator, TraceLog


def make_descriptor(*phases, loop=None):
    return PhaseDescriptor(steps=tuple(PhaseStep(p) for p in phases), loop=loop)


class TestPhaseDescriptor:
    def test_phase_names(self):
        d = make_descriptor(RE, SC, EX, AC, END)
        assert d.phase_names() == [RE, SC, EX, AC, END]

    def test_expand_without_loop(self):
        d = make_descriptor(RE, EX, END)
        assert d.expand(5) == [RE, EX, END]

    def test_expand_with_loop(self):
        d = make_descriptor(RE, EX, AC, END, loop=(1, 2))
        assert d.expand(1) == [RE, EX, AC, END]
        assert d.expand(3) == [RE, EX, AC, EX, AC, EX, AC, END]

    def test_render_marks_loop(self):
        d = make_descriptor(RE, SC, EX, END, loop=(1, 2))
        rendered = d.render()
        assert "[SC" in rendered and "EX]*" in rendered

    def test_lazy_detection(self):
        lazy = make_descriptor(RE, EX, END, AC)
        eager = make_descriptor(RE, EX, AC, END)
        assert lazy.responds_before_agreement
        assert not eager.responds_before_agreement

    def test_uses_and_index(self):
        d = make_descriptor(RE, EX, END)
        assert d.uses(EX) and not d.uses(SC)
        assert d.index_of(END) == 2 and d.index_of(AC) == -1


class TestPhaseTracer:
    def test_records_and_reads_back_sequence(self):
        sim = Simulator()
        tracer = PhaseTracer(TraceLog(sim))
        for phase in (RE, EX, END):
            tracer.record("r0", "req1", phase)
        assert tracer.observed_sequence("req1") == [RE, EX, END]

    def test_rejects_unknown_phase(self):
        tracer = PhaseTracer(TraceLog(Simulator()))
        with pytest.raises(ValueError):
            tracer.record("r0", "req1", "WARMUP")

    def test_sequences_are_per_request_and_source(self):
        tracer = PhaseTracer(TraceLog(Simulator()))
        tracer.record("r0", "a", RE)
        tracer.record("r1", "a", EX)
        tracer.record("r0", "b", RE)
        assert tracer.observed_sequence("a") == [RE, EX]
        assert tracer.observed_sequence("a", source="r0") == [RE]

    def test_collapse_folds_loop_iterations(self):
        tracer = PhaseTracer(TraceLog(Simulator()))
        for phase in (RE, EX, AC, EX, AC, END):
            tracer.record("r0", "req", phase)
        assert tracer.observed_sequence("req", collapse=True) == [RE, EX, AC, END]

    def test_matches_with_iterations(self):
        tracer = PhaseTracer(TraceLog(Simulator()))
        d = make_descriptor(RE, EX, AC, END, loop=(1, 2))
        for phase in (RE, EX, AC, EX, AC, END):
            tracer.record("r0", "req", phase)
        assert tracer.matches(d, "req", iterations=2)
        assert not tracer.matches(d, "req", iterations=3)

    def test_mechanisms_used(self):
        tracer = PhaseTracer(TraceLog(Simulator()))
        tracer.record("r0", "req", SC, mechanism="abcast")
        tracer.record("r0", "req", AC, mechanism="2pc")
        assert tracer.mechanisms_used("req") == {SC: "abcast", AC: "2pc"}


class TestPaperFigure16Rows:
    """The declared descriptors must equal the rows of Figure 16."""

    EXPECTED_ROWS = {
        "active": [RE, SC, EX, END],
        "passive": [RE, EX, AC, END],
        "semi_active": [RE, SC, EX, AC, END],
        "eager_primary": [RE, EX, AC, END],
        "eager_ue_locking": [RE, SC, EX, AC, END],
        "eager_ue_abcast": [RE, SC, EX, END],
        "lazy_primary": [RE, EX, END, AC],
        "lazy_ue": [RE, EX, END, AC],
        "certification": [RE, EX, AC, END],
    }

    @pytest.mark.parametrize("name,row", sorted(EXPECTED_ROWS.items()))
    def test_descriptor_matches_paper_row(self, name, row):
        assert REGISTRY[name].info.descriptor.phase_names() == row

    def test_lazy_rows_are_the_weak_consistency_ones(self):
        for name, info in ((n, REGISTRY[n].info) for n in self.EXPECTED_ROWS):
            is_lazy_row = info.descriptor.responds_before_agreement
            assert is_lazy_row == (info.consistency == "weak"), name


class TestClassification:
    def test_fig5_quadrants(self):
        matrix = ds_matrix()
        assert matrix[(True, True)] == ["active"]
        assert set(matrix[(True, False)]) == {"semi_active", "semi_passive"}
        assert matrix[(False, False)] == ["passive"]

    def test_fig6_quadrants(self):
        matrix = db_matrix()
        assert matrix[("eager", "primary")] == ["eager_primary"]
        assert set(matrix[("eager", "everywhere")]) == {
            "eager_ue_locking", "eager_ue_abcast", "certification",
        }
        assert matrix[("lazy", "primary")] == ["lazy_primary"]
        assert matrix[("lazy", "everywhere")] == ["lazy_ue"]

    def test_fig15_exactly_three_strong_combinations(self):
        combos = strong_consistency_combinations()
        assert sorted(map(tuple, combos)) == sorted(
            [
                (RE, SC, EX, AC, END),
                (RE, EX, AC, END),
                (RE, SC, EX, END),
            ]
        )

    def test_fig16_has_all_techniques(self):
        rows = synthetic_view()
        assert {row["technique"] for row in rows} == set(REGISTRY)

    def test_primary_copy_never_uses_sc(self):
        # Section 6: "primary copy and passive replication schemes share
        # one common trait: they do not have an SC phase".
        for cls in REGISTRY.values():
            info = cls.info
            if info.update_location == "primary" or info.name in ("passive", "semi_passive"):
                assert not info.descriptor.uses(SC), info.name

    def test_update_everywhere_needs_sc_except_certification(self):
        # Section 6: "update everywhere replication schemes need the
        # initial SC phase ... The only exception are the Certification
        # based techniques".
        for cls in REGISTRY.values():
            info = cls.info
            if info.update_location == "everywhere" and info.propagation == "eager":
                if info.name == "certification":
                    assert not info.descriptor.uses(SC)
                else:
                    assert info.descriptor.uses(SC), info.name
