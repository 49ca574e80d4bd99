"""Unit tests for versioned storage."""

from hypothesis import given, settings, strategies as st

from repro.db import DataStore, Versioned


class TestBasics:
    def test_unwritten_item_reads_none_at_version_zero(self):
        store = DataStore("s1")
        assert store.read("x") is None
        assert store.version("x") == 0
        assert "x" not in store

    def test_write_bumps_version(self):
        store = DataStore()
        assert store.write("x", 10) == 1
        assert store.write("x", 20) == 2
        assert store.read("x") == 20
        assert store.version("x") == 2

    def test_write_versioned_installs_exact_version(self):
        store = DataStore()
        store.write_versioned("x", 5, 7)
        assert store.read_versioned("x") == Versioned(5, 7)

    def test_write_versioned_ignores_regression(self):
        store = DataStore()
        store.write_versioned("x", "new", 5)
        store.write_versioned("x", "old", 3)
        assert store.read("x") == "new"
        assert store.version("x") == 5

    def test_install_merges_digest_rows_and_ignores_a_lower_version(self):
        donor, target = DataStore(), DataStore()
        donor.write("x", "a")
        donor.write("y", "b")
        donor.write("y", "c")
        target.write_versioned("x", "newer", 4)
        target.install(donor.digest())
        assert target.read_versioned("x") == Versioned("newer", 4)
        assert target.read_versioned("y") == Versioned("c", 2)
        before = target.digest()
        target.install(donor.digest())
        assert target.digest() == before

    def test_digest_is_write_order_independent_across_items(self):
        a, b = DataStore(), DataStore()
        a.write("x", 1)
        a.write("y", 2)
        b.write("y", 2)
        b.write("x", 1)
        assert a.digest() == b.digest()
        assert a.values_digest() == b.values_digest()

    def test_values_digest_ignores_versions(self):
        a, b = DataStore(), DataStore()
        a.write("x", "old")
        a.write("x", "final")
        b.write("x", "final")
        assert a.digest() != b.digest()
        assert a.values_digest() == b.values_digest()

    def test_snapshot_and_restore(self):
        store = DataStore()
        store.write("x", 1)
        shadow = store.snapshot()
        store.write("x", 2)
        store.write("y", 3)
        store.restore(shadow)
        assert store.read("x") == 1
        assert store.read("y") is None

    def test_dump_plain_view(self):
        store = DataStore()
        store.write("b", 2)
        store.write("a", 1)
        assert store.dump() == {"a": 1, "b": 2}

    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.integers()), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_version_equals_write_count_per_item(self, writes):
        store = DataStore()
        counts = {}
        for item, value in writes:
            store.write(item, value)
            counts[item] = counts.get(item, 0) + 1
        for item, count in counts.items():
            assert store.version(item) == count

    @given(st.lists(st.tuples(st.sampled_from("xy"), st.integers()), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_snapshot_isolation_from_later_writes(self, writes):
        store = DataStore()
        store.write("x", "base")
        shadow = store.snapshot()
        for item, value in writes:
            store.write(item, value)
        fresh = DataStore()
        fresh.restore(shadow)
        assert fresh.read("x") == "base"
        assert len(fresh) == 1
