"""Unit tests for operations, requests and results."""

import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.operations import (
    NON_DETERMINISTIC,
    Operation,
    Request,
    Result,
    ResultStore,
    UPDATE_FUNCTIONS,
    apply_update,
)


class TestOperation:
    def test_constructors(self):
        read = Operation.read("x")
        write = Operation.write("x", 5)
        update = Operation.update("x", "add", 3)
        assert read.kind == "read" and not read.is_write
        assert write.kind == "write" and write.is_write
        assert update.kind == "update" and update.func == "add"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Operation("delete", "x")

    def test_unknown_update_function_rejected(self):
        with pytest.raises(ValueError):
            Operation.update("x", "frobnicate")

    def test_wire_roundtrip(self):
        op = Operation.update("item", "append", "tail")
        assert Operation.from_wire(op.as_wire()) == op


class TestUpdateFunctions:
    def test_set(self):
        assert apply_update("set", "old", "new", random.Random(0)) == "new"

    def test_add_treats_none_as_zero(self):
        assert apply_update("add", None, 5, random.Random(0)) == 5
        assert apply_update("add", 10, -3, random.Random(0)) == 7

    def test_append(self):
        assert apply_update("append", None, "a", random.Random(0)) == ["a"]
        assert apply_update("append", ["a"], "b", random.Random(0)) == ["a", "b"]

    def test_random_token_draws_from_given_rng(self):
        a = apply_update("random_token", None, None, random.Random(1))
        b = apply_update("random_token", None, None, random.Random(1))
        c = apply_update("random_token", None, None, random.Random(2))
        assert a == b and a != c

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            apply_update("bogus", 1, 2, random.Random(0))

    def test_nondeterministic_registry_subset(self):
        assert NON_DETERMINISTIC <= set(UPDATE_FUNCTIONS)


class TestRequest:
    def test_make_wraps_single_operation(self):
        request = Request.make(Operation.read("x"), sequence=1)
        assert len(request.operations) == 1

    def test_read_only_flag(self):
        assert Request.make([Operation.read("x")], sequence=1).read_only
        assert not Request.make([Operation.write("x", 1)], sequence=2).read_only

    def test_wire_roundtrip(self):
        request = Request.make([Operation.read("x"), Operation.write("y", 2)],
                               sequence=1)
        assert Request.from_wire(request.as_wire()) == request


class TestResult:
    def test_latency_and_value(self):
        result = Result("r1", True, values=[None, 7],
                        submitted_at=2.0, completed_at=5.5)
        assert result.latency == 3.5
        assert result.value == 7

    def test_value_empty_when_no_values(self):
        assert Result("r1", True).value is None

    def test_repr_mentions_verdict(self):
        assert "committed" in repr(Result("r1", True))
        assert "aborted" in repr(Result("r1", False, reason="x"))


# Values of the types a store shares by value, and of types it must keep
# apart (1 == 1.0 == True): reading back must give each one's own type.
_values = st.one_of(
    st.sampled_from([None, 0, 1, 0.0, -0.0, 1.0, False, True, "", "1"]),
    st.integers(), st.text(max_size=3), st.floats(allow_nan=False),
    st.lists(st.integers(0, 1), max_size=2),
)
_operations = st.builds(
    Operation,
    kind=st.sampled_from(["read", "write", "update"]),
    item=st.sampled_from(["x", "y"]),
    argument=_values,
    func=st.sampled_from(sorted(UPDATE_FUNCTIONS)),
)
_results = st.builds(
    Result,
    request_id=st.sampled_from(["c0-r1", "c0-r2", "c1-r1"]),
    committed=st.booleans(),
    values=st.lists(_values, max_size=3),
    reason=st.sampled_from(["", "2pc abort", "shed: queue full"]),
    submitted_at=st.floats(allow_nan=False),
    completed_at=st.floats(allow_nan=False),
    server=st.sampled_from(["", "r0", "r1"]),
    retries=st.integers(0, 2**32 - 1),
    operations=st.lists(_operations, max_size=3).map(tuple),
)


def _same(read, written):
    """Every field equal, and of the same type all the way down."""
    for name in (field.name for field in fields(Result)):
        mine, theirs = getattr(read, name), getattr(written, name)
        assert mine == theirs and repr(mine) == repr(theirs), name
        assert type(mine) is type(theirs), name


class TestResultStore:
    @given(st.lists(_results, max_size=12), st.lists(_results, max_size=4),
           st.integers(-15, 15), st.integers(-15, 15), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_reads_back_what_a_list_holds(self, written, more, at, stop, step):
        store = ResultStore()
        for result in written:
            store.append(result)
        assert len(store) == len(written)
        assert store == written and written == store
        assert not store != written
        for read, result in zip(store, written):
            _same(read, result)
        if -len(written) <= at < len(written):
            _same(store[at], written[at])
            assert store[at] is not store[at]
        else:
            with pytest.raises(IndexError):
                store[at]
        if step != 0:
            window = slice(at, stop, step)
            assert store[window] == written[window]
            for read, result in zip(store[window], written[window]):
                _same(read, result)
        joined = store + ResultStore(more)
        assert isinstance(joined, ResultStore)
        assert joined == written + more and len(joined) == len(written) + len(more)
        assert store + more == written + more
        assert store == written, "concatenation must not change its operands"
        if more:
            assert store != written + more

    def test_equal_values_of_other_types_stay_apart(self):
        written = [
            Result(f"c0-r{i}", True, values=[value],
                   operations=(Operation.write("x", value),))
            for i, value in enumerate([1, True, 1.0, 0, False, -0.0, 0.0])
        ]
        store = ResultStore(written)
        for read, result in zip(store, written):
            _same(read, result)

    def test_is_a_read_only_sequence(self):
        store = ResultStore([Result("c0-r1", True)])
        with pytest.raises(TypeError):
            store[0] = Result("c0-r2", True)
        with pytest.raises(TypeError):
            hash(store)
        assert Result("c0-r1", True) in store
        assert store != (Result("c0-r1", True),)
