"""Unit and property tests for partition groups."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columns import GROUP_OVERHEAD_BYTES
from repro.engine.tuples import StreamTuple

from tests.row_group import PartitionGroup, full_join_count

STREAMS = ("A", "B", "C")


def tup(stream, seq, key, size=64):
    return StreamTuple(stream=stream, seq=seq, key=key, ts=float(seq), size=size)


class TestInsertAndProbe:
    def test_empty_group_probe_finds_nothing(self):
        group = PartitionGroup(0, STREAMS)
        count, results = group.probe(tup("A", 0, 1))
        assert count == 0
        assert results == []

    def test_probe_counts_cross_product(self):
        group = PartitionGroup(0, STREAMS)
        for seq in range(2):
            group.insert(tup("B", seq, 5))
        for seq in range(3):
            group.insert(tup("C", seq, 5))
        count, __ = group.probe(tup("A", 0, 5))
        assert count == 6

    def test_probe_requires_all_other_inputs(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("B", 0, 5))
        # no C tuples with key 5 -> no result
        count, __ = group.probe(tup("A", 0, 5))
        assert count == 0

    def test_probe_matches_only_same_key(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("B", 0, 5))
        group.insert(tup("C", 0, 6))
        assert group.probe(tup("A", 0, 5))[0] == 0

    def test_materialized_results_in_stream_order(self):
        group = PartitionGroup(0, STREAMS)
        b = tup("B", 0, 5)
        c = tup("C", 0, 5)
        group.insert(b)
        group.insert(c)
        count, results = group.probe(tup("A", 9, 5), materialize=True)
        assert count == 1
        (result,) = results
        assert [p.stream for p in result.parts] == ["A", "B", "C"]
        assert result.parts[0].seq == 9

    def test_probe_from_middle_stream_orders_correctly(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("A", 1, 5))
        group.insert(tup("C", 2, 5))
        __, results = group.probe(tup("B", 3, 5), materialize=True)
        (result,) = results
        assert [p.stream for p in result.parts] == ["A", "B", "C"]

    def test_insert_unknown_stream_rejected(self):
        group = PartitionGroup(0, STREAMS)
        with pytest.raises(KeyError):
            group.insert(tup("Z", 0, 1))

    def test_needs_two_streams(self):
        with pytest.raises(ValueError):
            PartitionGroup(0, ("A",))
        with pytest.raises(ValueError):
            PartitionGroup(0, ("A", "A"))


class TestAccounting:
    def test_size_tracks_inserts(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("A", 0, 1, size=100))
        group.insert(tup("B", 0, 1, size=50))
        assert group.size_bytes == GROUP_OVERHEAD_BYTES + 150
        assert group.tuple_count == 2

    def test_productivity_empty_group_is_inf(self):
        group = PartitionGroup(0, STREAMS)
        assert math.isinf(group.productivity)

    def test_productivity_ratio(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("A", 0, 1, size=100))
        group.record_output(50)
        assert group.productivity == pytest.approx(0.5)

    def test_record_output_negative_rejected(self):
        group = PartitionGroup(0, STREAMS)
        with pytest.raises(ValueError):
            group.record_output(-1)

    def test_tuples_of_and_keys_of(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("A", 0, 1))
        group.insert(tup("A", 1, 2))
        assert {t.seq for t in group.tuples_of("A")} == {0, 1}
        assert set(group.keys_of("A")) == {1, 2}
        assert group.is_empty is False


class TestFreezeThaw:
    def test_freeze_snapshot_is_isolated(self):
        group = PartitionGroup(3, STREAMS, generation=1)
        group.insert(tup("A", 0, 1))
        frozen = group.freeze()
        group.insert(tup("A", 1, 1))
        assert frozen.tuple_count == 1
        assert group.tuple_count == 2
        assert frozen.pid == 3
        assert frozen.generation == 1

    def test_thaw_restores_contents_and_stats(self):
        group = PartitionGroup(3, STREAMS, generation=2)
        group.insert(tup("A", 0, 1, size=80))
        group.insert(tup("B", 0, 1, size=80))
        group.record_output(7)
        frozen = group.freeze()
        thawed = PartitionGroup.thaw(frozen, created_at=9.0)
        assert thawed.tuple_count == 2
        assert thawed.size_bytes == group.size_bytes
        assert thawed.output_count == 7
        assert thawed.generation == 2
        assert thawed.created_at == 9.0
        # thawed group joins as before
        count, __ = thawed.probe(tup("C", 0, 1))
        assert count == 1

    def test_frozen_keys_union(self):
        group = PartitionGroup(0, STREAMS)
        group.insert(tup("A", 0, 1))
        group.insert(tup("B", 0, 2))
        assert group.freeze().keys() == {1, 2}


class TestFullJoinCount:
    def test_simple(self):
        counts = {"A": {1: 2}, "B": {1: 3}, "C": {1: 4}}
        assert full_join_count(counts) == 24

    def test_multiple_keys_sum(self):
        counts = {"A": {1: 1, 2: 2}, "B": {1: 1, 2: 2}}
        assert full_join_count(counts) == 1 + 4

    def test_missing_key_in_one_stream(self):
        counts = {"A": {1: 5}, "B": {2: 5}}
        assert full_join_count(counts) == 0

    def test_empty(self):
        assert full_join_count({}) == 0


@settings(max_examples=60, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(st.sampled_from(STREAMS), st.integers(0, 4)), max_size=60
    )
)
def test_probe_count_matches_bruteforce(inserts):
    """Property: after any insert sequence, a probe's count equals the
    brute-force product of per-input match-list lengths."""
    group = PartitionGroup(0, STREAMS)
    tables = {s: {} for s in STREAMS}
    for seq, (stream, key) in enumerate(inserts):
        group.insert(tup(stream, seq, key))
        tables[stream].setdefault(key, []).append(seq)
    for key in range(5):
        probe = tup("A", 10_000, key)
        count, results = group.probe(probe, materialize=True)
        expected = len(tables["B"].get(key, [])) * len(tables["C"].get(key, []))
        assert count == expected
        assert len(results) == expected
        idents = {r.ident for r in results}
        assert len(idents) == len(results)  # no duplicates


@settings(max_examples=60, deadline=None)
@given(
    inserts=st.lists(
        st.tuples(st.sampled_from(STREAMS), st.integers(0, 3), st.integers(8, 128)),
        max_size=50,
    )
)
def test_size_accounting_invariant(inserts):
    """Property: group size always equals overhead + sum of tuple sizes."""
    group = PartitionGroup(0, STREAMS)
    total = 0
    for seq, (stream, key, size) in enumerate(inserts):
        group.insert(tup(stream, seq, key, size=size))
        total += size
    assert group.size_bytes == GROUP_OVERHEAD_BYTES + total
    frozen = group.freeze()
    assert frozen.size_bytes == group.size_bytes
    thawed = PartitionGroup.thaw(frozen)
    assert thawed.size_bytes == group.size_bytes
