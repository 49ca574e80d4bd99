"""Tests for the certification test (optimistic replication)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db import Certifier, DataStore, UpdateRecord


def wset(*pairs):
    return [UpdateRecord(item, value, 0) for item, value in pairs]


class TestReadCertification:
    def test_fresh_readset_commits(self):
        store = DataStore()
        store.write("x", 1)  # version 1
        certifier = Certifier(store)
        outcome = certifier.certify({"x": 1}, wset(("x", 2)))
        assert outcome.committed
        assert store.read("x") == 2

    def test_stale_readset_aborts(self):
        store = DataStore()
        store.write("x", 1)
        certifier = Certifier(store)
        assert certifier.certify({"x": 1}, wset(("x", "a")))
        # second transaction read x at version 1, but it is now 2
        outcome = certifier.certify({"x": 1}, wset(("x", "b")))
        assert not outcome.committed
        assert outcome.conflicts == ["x"]
        assert store.read("x") == "a", "losing writeset must not be applied"

    def test_blind_write_always_commits_in_read_mode(self):
        store = DataStore()
        certifier = Certifier(store)
        for i in range(5):
            assert certifier.certify({}, wset(("x", i)))
        assert store.read("x") == 4

    def test_disjoint_items_do_not_conflict(self):
        store = DataStore()
        store.write("x", 0)
        store.write("y", 0)
        certifier = Certifier(store)
        assert certifier.certify({"x": 1}, wset(("x", 1)))
        assert certifier.certify({"y": 1}, wset(("y", 1)))

    def test_versions_converge_across_sites_in_same_order(self):
        stream = [
            ({"x": 0}, wset(("x", "a"))),
            ({"x": 1}, wset(("x", "b"))),
            ({"x": 1}, wset(("x", "c"))),   # stale -> abort at both
            ({}, wset(("y", 1))),
        ]
        site1, site2 = DataStore("s1"), DataStore("s2")
        cert1, cert2 = Certifier(site1), Certifier(site2)
        outcomes1 = [bool(cert1.certify(rs, ws)) for rs, ws in stream]
        outcomes2 = [bool(cert2.certify(rs, ws)) for rs, ws in stream]
        assert outcomes1 == outcomes2 == [True, True, False, True]
        assert site1.digest() == site2.digest()


class TestWriteCertification:
    def test_first_committer_wins(self):
        store = DataStore()
        certifier = Certifier(store, mode="write")
        # both writers based their write on version 0 of x
        assert certifier.certify({}, wset(("x", "first")), base_versions={"x": 0})
        outcome = certifier.certify({}, wset(("x", "second")), base_versions={"x": 0})
        assert not outcome.committed
        assert store.read("x") == "first"

    def test_sequential_writes_pass(self):
        store = DataStore()
        certifier = Certifier(store, mode="write")
        assert certifier.certify({}, wset(("x", 1)), base_versions={"x": 0})
        assert certifier.certify({}, wset(("x", 2)), base_versions={"x": 1})

    def test_read_only_conflicts_ignored_in_write_mode(self):
        store = DataStore()
        store.write("x", 0)
        certifier = Certifier(store, mode="write")
        assert certifier.certify({}, wset(("x", 1)), base_versions={"x": 1})
        # stale READ, but write mode does not care
        assert certifier.certify({"x": 1}, wset(("y", 1)), base_versions={"y": 0})

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Certifier(DataStore(), mode="pessimistic")


class TestDeterminismProperty:
    @given(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from("xy"), st.integers(0, 3), max_size=2),
                st.sampled_from("xy"),
                st.integers(),
            ),
            max_size=15,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_same_stream_same_outcomes_and_state(self, stream):
        """Certification is a deterministic function of the input order."""
        sites = [DataStore(f"s{i}") for i in range(3)]
        certifiers = [Certifier(site) for site in sites]
        all_outcomes = []
        for certifier in certifiers:
            outcomes = [
                bool(certifier.certify(rs, wset((item, value))))
                for rs, item, value in stream
            ]
            all_outcomes.append(outcomes)
        assert all_outcomes[0] == all_outcomes[1] == all_outcomes[2]
        assert sites[0].digest() == sites[1].digest() == sites[2].digest()
