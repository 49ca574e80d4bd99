"""RunSpec: one frozen, value-compared description of a run.

* Bad option values are refused when the spec is built, not silently
  replaced by a default deep inside a protocol.
* ``describe()`` is canonical: equal specs print equal lines (and hash
  alike), specs that differ in any one field print different lines.
* The keyword form ``ReplicatedSystem("active", replicas=3)`` is
  ``ReplicatedSystem(RunSpec("active", replicas=3))``.
"""

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro import REGISTRY, ReplicatedSystem, RunSpec
from repro.core.spec import ABCAST_FLAVOURS
from repro.net import ConstantLatency, ExponentialLatency, UniformLatency
from repro.sim import Simulator


class TestValidation:
    def test_bad_abcast_rejected(self):
        # It used to run consensus: anything but "sequencer" did.
        with pytest.raises(ValueError, match="unknown abcast"):
            RunSpec("active", abcast="Sequencer")
        with pytest.raises(ValueError, match="unknown abcast"):
            ReplicatedSystem("certification", abcast="paxos")

    def test_misspelled_option_rejected(self):
        # It used to be ignored: the config dict took any key.
        with pytest.raises(TypeError, match="abcsat"):
            ReplicatedSystem("active", abcsat="sequencer")
        with pytest.raises(TypeError, match="abcsat"):
            ReplicatedSystem(RunSpec("active"), abcsat="sequencer")

    def test_negative_admission_rate_rejected(self):
        # 0 means no admission edge; below that there is no meaning.
        with pytest.raises(ValueError, match="admission_rate"):
            RunSpec("active", admission_rate=-1.0)

    def test_seed_must_be_an_int(self):
        # None used to seed sim.rng from OS entropy: a run nobody can repeat.
        with pytest.raises(TypeError, match="seed must be an int"):
            RunSpec("active", seed=None)
        with pytest.raises(TypeError, match="seed must be an int"):
            Simulator(seed=None)


class TestSystemFromSpec:
    def test_keyword_form_builds_the_same_spec(self):
        spec = RunSpec("lazy_primary", replicas=4, clients=2, seed=3,
                       propagation_delay=5.0)
        system = ReplicatedSystem("lazy_primary", replicas=4, clients=2, seed=3,
                                  propagation_delay=5.0)
        assert system.spec == spec
        assert ReplicatedSystem(spec).spec is spec

    def test_priorities_map_is_kept_hashable(self):
        spec = RunSpec("lazy_ue", reconciliation="priority",
                       priorities={"r1": 1, "r0": 10})
        assert spec.priorities == (("r0", 10), ("r1", 1))
        assert hash(spec) == hash(replace(spec))
        system = ReplicatedSystem(spec)
        assert system.protocol_at("r0").reconciler.priorities == {"r0": 10, "r1": 1}


class TestLatencyModelsByValue:
    @pytest.mark.parametrize("make, text", [
        (lambda: ConstantLatency(1.0), "ConstantLatency(1.0)"),
        (lambda: UniformLatency(0.5, 2.5), "UniformLatency(0.5, 2.5)"),
        (lambda: ExponentialLatency(0.5, 0.5, 40.0),
         "ExponentialLatency(base=0.5, mean=0.5)"),
    ])
    def test_equal_hash_and_repr(self, make, text):
        assert make() == make() and hash(make()) == hash(make())
        assert repr(make()) == text

    def test_differ_by_type_and_parameter(self):
        assert ConstantLatency(1.0) != ConstantLatency(2.0)
        assert UniformLatency(1.0, 1.0) != ConstantLatency(1.0)
        assert ExponentialLatency(cap=40.0) != ExponentialLatency(cap=50.0)


# -- describe(): the canonical line -------------------------------------------

_FLOATS = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_POSITIVE = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)


@st.composite
def _uniform(draw):
    low = draw(_FLOATS)
    return UniformLatency(low, low + draw(_FLOATS))


FIELD_VALUES = {
    "technique": st.sampled_from(sorted(REGISTRY)),
    "replicas": st.integers(1, 7),
    "clients": st.integers(0, 5),
    "seed": st.integers(0, 10_000),
    "latency": st.one_of(
        st.builds(ConstantLatency, _FLOATS),
        _uniform(),
        st.builds(ExponentialLatency, _FLOATS, _POSITIVE, _POSITIVE),
    ),
    "fd_interval": _POSITIVE,
    "fd_timeout": _POSITIVE,
    "client_timeout": st.none() | _POSITIVE,
    "max_client_retries": st.integers(0, 20),
    "observe": st.booleans(),
    "trace_max_events": st.none() | st.integers(1, 10**6),
    "admission_rate": _FLOATS,
    "abcast": st.sampled_from(ABCAST_FLAVOURS),
    "propagation_delay": _FLOATS,
    "reconciliation": st.sampled_from(["lww", "priority", "abcast"]),
    "priorities": st.dictionaries(st.sampled_from(["r0", "r1", "r2"]),
                                  st.integers(0, 10)),
    "write_quorum": st.none() | st.integers(1, 7),
    "certification_mode": st.sampled_from(["read", "write"]),
    "processing_time": _FLOATS,
    "optimistic": st.booleans(),
}


def test_every_field_has_a_strategy():
    assert sorted(FIELD_VALUES) == sorted(f.name for f in fields(RunSpec))


@settings(max_examples=300, deadline=None)
@given(values=st.fixed_dictionaries(FIELD_VALUES), data=st.data())
def test_describe_is_canonical(values, data):
    spec = RunSpec(**values)
    # Value-equal specs, however they were made: equal lines and hashes.
    for twin in (RunSpec(**values), replace(spec), pickle.loads(pickle.dumps(spec))):
        assert twin == spec
        assert twin.describe() == spec.describe()
        assert hash(twin) == hash(spec)
    # Change exactly one field: a different line.
    name = data.draw(st.sampled_from(sorted(FIELD_VALUES)))
    other = data.draw(FIELD_VALUES[name].filter(
        lambda value: RunSpec(**dict(values, **{name: value})) != spec
    ))
    changed = replace(spec, **{name: other})
    assert changed.describe() != spec.describe()
    assert changed.describe().startswith(changed.technique + " ")
