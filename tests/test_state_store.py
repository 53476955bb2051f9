"""Unit tests for the per-instance state store and its memory accounting."""

import pytest

from repro.cluster.machine import Machine
from repro.engine.columns import (
    GROUP_OVERHEAD_BYTES,
    ColumnarPartitionGroup,
    FrozenColumnGroup,
)
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

from tests.row_group import (
    PartitionGroup,
    bucket_view,
    key_counts,
    merge_frozen,
    rebucket_frozen,
    split_frozen,
)

STREAMS = ("A", "B", "C")


def tup(stream, seq, key, size=64):
    return StreamTuple(stream=stream, seq=seq, key=key, ts=float(seq), size=size)


@pytest.fixture
def store(machine):
    return StateStore(machine, STREAMS)


class TestProbeInsert:
    def test_counts_and_stats(self, store):
        store.probe_insert(0, tup("B", 0, 1))
        store.probe_insert(0, tup("C", 0, 1))
        count, __ = store.probe_insert(0, tup("A", 0, 1))
        assert count == 1
        assert store.outputs_total == 1
        assert store.tuples_processed == 3

    def test_partitions_isolated(self, store):
        store.probe_insert(0, tup("B", 0, 1))
        store.probe_insert(0, tup("C", 0, 1))
        # same key but different partition id: no match
        count, __ = store.probe_insert(1, tup("A", 0, 1))
        assert count == 0

    def test_machine_memory_charged(self, store, machine):
        store.probe_insert(0, tup("A", 0, 1, size=100))
        assert machine.memory_used == GROUP_OVERHEAD_BYTES + 100
        assert store.total_bytes == machine.memory_used

    def test_group_count(self, store):
        store.probe_insert(0, tup("A", 0, 1))
        store.probe_insert(3, tup("A", 1, 3))
        assert store.group_count == 2
        assert store.partition_ids() == (0, 3)
        assert 0 in store and 1 not in store


class TestEvict:
    def test_evict_releases_memory(self, store, machine):
        store.probe_insert(0, tup("A", 0, 1, size=100))
        store.probe_insert(1, tup("A", 1, 2, size=100))
        before = machine.memory_used
        frozen = store.evict([0])
        assert len(frozen) == 1
        assert frozen[0].pid == 0
        assert machine.memory_used == before - (GROUP_OVERHEAD_BYTES + 100)
        assert store.total_bytes == machine.memory_used
        assert 0 not in store

    def test_evict_missing_pid_is_noop(self, store):
        assert store.evict([99]) == []

    def test_next_generation_increments(self, store):
        store.probe_insert(0, tup("A", 0, 1))
        (first,) = store.evict([0])
        assert first.generation == 0
        store.probe_insert(0, tup("A", 1, 1))
        (second,) = store.evict([0])
        assert second.generation == 1

    def test_fresh_group_after_evict_does_not_see_old_state(self, store):
        store.probe_insert(0, tup("B", 0, 1))
        store.probe_insert(0, tup("C", 0, 1))
        store.evict([0])
        count, __ = store.probe_insert(0, tup("A", 0, 1))
        assert count == 0  # old state inactive on "disk"


class TestInstall:
    def test_install_restores_state_and_memory(self, store, machine, sim):
        other_machine = Machine(sim, "m2")
        other = StateStore(other_machine, STREAMS)
        other.probe_insert(4, tup("B", 0, 9, size=64))
        other.probe_insert(4, tup("C", 0, 9, size=64))
        (frozen,) = other.evict([4])
        assert other_machine.memory_used == 0

        group = store.install(frozen, now=5.0)
        assert group.pid == 4
        assert machine.memory_used == frozen.size_bytes
        count, __ = store.probe_insert(4, tup("A", 0, 9))
        assert count == 1  # joins against the relocated state

    def test_install_conflicting_pid_rejected(self, store):
        store.probe_insert(4, tup("A", 0, 9))
        snapshot = store.state_of(4)
        with pytest.raises(ValueError):
            store.install(snapshot)

    def test_install_bumps_generation_floor(self, store, machine, sim):
        other = StateStore(Machine(sim, "m2"), STREAMS)
        other.probe_insert(4, tup("A", 0, 9))
        other.evict([4])  # gen 0 spilled elsewhere
        other.probe_insert(4, tup("A", 1, 9))
        (frozen,) = other.evict([4])  # gen 1 relocates
        store.install(frozen)
        (evicted,) = store.evict([4])
        assert evicted.generation == 1
        store.probe_insert(4, tup("A", 2, 9))
        (nxt,) = store.evict([4])
        assert nxt.generation == 2


class TestSplitMerge:
    """Accounting through the repartition funnel (split_group/merge_groups):
    memory, mutation counters, output attribution and the lazy victim
    index must all transfer to the new groups — a stale entry for a
    retired pid would feed adaptation decisions from dissolved state."""

    def populate(self, store, *, pid=0, keys=(1, 2, 3, 4), per_key=2):
        seq = 0
        for key in keys:
            for __ in range(per_key):
                for stream in STREAMS:
                    store.probe_insert(pid, tup(stream, seq, key), now=1.0)
                    seq += 1

    def test_split_conserves_tuples_bytes_and_outputs(self, store, machine):
        self.populate(store)
        parent = store.state_of(0)
        c0, c1 = store.split_group(0, (8, 9), lambda key: key % 2)
        assert 0 not in store and 8 in store and 9 in store
        assert c0.tuple_count + c1.tuple_count == parent.tuple_count
        assert c0.output_count + c1.output_count == parent.output_count
        # each child holds exactly its key-range half
        assert all(key % 2 == 0 for counts in key_counts(c0).values()
                   for key in counts)
        assert all(key % 2 == 1 for counts in key_counts(c1).values()
                   for key in counts)
        # the split re-homes payload bytes intact; one extra group object
        # exists now, so exactly one more group overhead is charged
        assert (c0.size_bytes + c1.size_bytes
                == parent.size_bytes + GROUP_OVERHEAD_BYTES)
        assert store.total_bytes == machine.memory_used

    def test_merge_restores_the_parent_exactly(self, store, machine):
        self.populate(store)
        before = canonical(store.state_of(0))
        used = machine.memory_used
        store.split_group(0, (8, 9), lambda key: key % 2)
        merged = store.merge_groups((8, 9), 0)
        assert canonical(merged) == before
        assert canonical(store.state_of(0)) == before
        assert machine.memory_used == used
        assert store.total_bytes == machine.memory_used

    def test_split_transfers_mutation_counters(self, store):
        self.populate(store)
        assert store.mutations.get(0)
        store.split_group(0, (8, 9), lambda key: key % 2)
        # the parent's dirty counter dies with its group; both children
        # start dirty so the next incremental checkpoint snapshots them
        assert 0 not in store.mutations
        assert store.mutations.get(8) and store.mutations.get(9)

    def test_split_refreshes_victim_index(self, store):
        self.populate(store)
        store.probe_insert(1, tup("A", 99, 5), now=1.0)
        rows = store.productivity_snapshot()
        assert {row[0] for row in rows} == {0, 1}
        store.split_group(0, (8, 9), lambda key: key % 2)
        rows = store.productivity_snapshot()
        # no stale entry may surface the dissolved parent
        assert {row[0] for row in rows} == {1, 8, 9}
        assert 0 not in store.pick_victims("size_desc", 1 << 30)

    def test_probe_joins_against_split_state(self, store):
        for stream in ("B", "C"):
            store.probe_insert(0, tup(stream, 0, 2), now=1.0)
        store.split_group(0, (8, 9), lambda key: key % 2)
        count, __ = store.probe_insert(8, tup("A", 1, 2), now=2.0)
        assert count == 1  # the moved state still joins under the child

    def test_split_then_evict_generation_orders_after_parent(self, store):
        self.populate(store)
        store.evict([0])  # generation 0 of the parent is on disk
        self.populate(store)  # parent reborn as generation 1
        store.split_group(0, (8, 9), lambda key: key % 2)
        (frozen,) = store.evict([8])
        assert frozen.generation == 1  # children inherit the parent's line

    def test_split_missing_parent_raises(self, store):
        with pytest.raises(KeyError):
            store.split_group(42, (8, 9), lambda key: 0)

    def test_merge_missing_child_raises(self, store):
        self.populate(store)
        store.split_group(0, (8, 9), lambda key: key % 2)
        store.evict([9])
        with pytest.raises(KeyError):
            store.merge_groups((8, 9), 0)

    def test_columnar_split_merge_matches_row_store(self, store):
        """The store's in-place column split and merge against the
        row-format reference transforms over the row-format twin: same
        statistics, identities and ``(stream, key)`` buckets, bucket order
        included."""
        twin = PartitionGroup(0, STREAMS)

        class TwinStore:  # ``populate`` feeds the twin the same rows
            def probe_insert(self, pid, row, *, now):
                twin.record_output(twin.probe(row)[0])
                twin.insert(row)

        self.populate(TwinStore())
        self.populate(store)
        want = split_frozen(twin.freeze(), (8, 9), lambda key: key % 2)
        store.split_group(0, (8, 9), lambda key: key % 2)
        for child, expected in zip((8, 9), want):
            assert canonical(store.state_of(child)) == canonical(expected)
            assert bucket_view(store.state_of(child)) == expected.data
        store.merge_groups((8, 9), 0)
        assert canonical(store.state_of(0)) == canonical(merge_frozen(0, want))
        assert bucket_view(store.state_of(0)) == merge_frozen(0, want).data
        assert store.total_bytes == store.machine.memory_used


def canonical(frozen):
    from tests.helpers import canonical_frozen

    return canonical_frozen(frozen)


# ----------------------------------------------------------------------
# Column snapshot transforms against the row-format reference
# ----------------------------------------------------------------------
SHAPES = ("scalar-size", "explicit-sizes", "payloads")


def snapshot(pid, keys, shape, *, generation=0, output_count=0, first_seq=0):
    """A frozen column group holding rows of ``keys`` for every stream,
    interleaved the way arrivals interleave, with non-monotone timestamps;
    ``shape`` picks uniform sizes, an explicit size column, or an explicit
    size column plus payloads."""
    group = ColumnarPartitionGroup(pid, STREAMS, generation=generation)
    seq = first_seq
    for round_ in range(3):
        for key in keys:
            for stream in STREAMS:
                group.insert(StreamTuple(
                    stream=stream, seq=seq, key=key,
                    ts=float((seq * 7) % 13),
                    size=64 if shape == "scalar-size" else 40 + seq % 5,
                    payload=(seq,) if shape == "payloads" and seq % 2 else (),
                ))
                seq += 1
    group.output_count = output_count
    return group.freeze()


def rows_of(frozen):
    """Every row of a column snapshot, in row order."""
    return [frozen.tuple_at(row) for row in range(frozen.nrows)]


def assert_matches(got, want):
    """A column snapshot equals a row-format one: statistics, identities,
    and every ``(stream, key)`` bucket in order; its own bookkeeping
    agrees with its rows."""
    assert canonical(got) == canonical(want)
    assert bucket_view(got) == want.data
    assert got.nrows == got.tuple_count == len(got.row_key)
    assert got.size_bytes == GROUP_OVERHEAD_BYTES + sum(
        tup.size for tup in rows_of(got))


class TestColumnSnapshotTransforms:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_split_matches_row_reference(self, shape):
        parent = snapshot(0, (1, 2, 3, 4, 5), shape, generation=3,
                          output_count=1001)
        got = parent.split((8, 9), lambda key: key % 2)
        want = split_frozen(parent, (8, 9), lambda key: key % 2)
        for child, expected in zip(got, want):
            assert type(child) is FrozenColumnGroup
            assert_matches(child, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_split_child_rows_keep_parent_order(self, shape):
        parent = snapshot(0, (1, 2, 3, 4, 5), shape, output_count=997)
        children = parent.split((8, 9), lambda key: key % 2)
        for bit, child in enumerate(children):
            assert rows_of(child) == [
                tup for tup in rows_of(parent) if tup.key % 2 == bit]
            assert child.generation == parent.generation
        assert sum(c.output_count for c in children) == parent.output_count
        # the floor goes to child 0, the remainder to child 1
        payload = [c.size_bytes - GROUP_OVERHEAD_BYTES for c in children]
        assert children[0].output_count == (
            parent.output_count * payload[0] // sum(payload))

    def test_split_with_an_empty_side(self):
        parent = snapshot(0, (2, 4), "explicit-sizes", output_count=50)
        even, odd = parent.split((8, 9), lambda key: key % 2)
        assert (even.output_count, odd.output_count) == (50, 0)
        assert odd.nrows == 0 and odd.size_bytes == GROUP_OVERHEAD_BYTES
        assert_matches(odd, split_frozen(parent, (8, 9),
                                         lambda key: key % 2)[1])
        assert ColumnarPartitionGroup.thaw(odd).is_empty

    @pytest.mark.parametrize("shapes", [
        ("scalar-size", "scalar-size"), ("scalar-size", "explicit-sizes"),
        ("payloads", "scalar-size"),
    ])
    def test_merge_matches_row_reference(self, shapes):
        parts = [
            snapshot(8, (2, 4), shapes[0], generation=1, output_count=30),
            snapshot(9, (1, 3, 5), shapes[1], generation=2, output_count=12,
                     first_seq=100),
        ]
        got = FrozenColumnGroup.merge(0, parts)
        assert_matches(got, merge_frozen(0, parts))
        assert rows_of(got) == rows_of(parts[0]) + rows_of(parts[1])
        assert (got.generation, got.output_count) == (2, 42)

    def test_merge_with_a_differently_sized_uniform_part(self):
        small = snapshot(8, (2,), "scalar-size")
        big = ColumnarPartitionGroup(9, STREAMS)
        big.insert(StreamTuple("A", 500, 1, 0.0, 99))
        got = FrozenColumnGroup.merge(0, [small, big.freeze()])
        assert got.row_size is not None
        assert_matches(got, merge_frozen(0, [small, big.freeze()]))

    def test_merge_rejects_parts_sharing_a_key(self):
        parts = [snapshot(8, (1, 2), "scalar-size"),
                 snapshot(9, (2, 3), "scalar-size", first_seq=100)]
        with pytest.raises(ValueError, match=r"keys \[2\]"):
            FrozenColumnGroup.merge(0, parts)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_rebucket_matches_row_reference(self, shape):
        """A segment frozen under parent pid 0 holding keys of three
        final pids: each bucket equals the row reference's, and the last
        pid in sorted order takes the output remainder."""
        frozen = snapshot(0, (1, 2, 3, 4, 5, 6, 7), shape, generation=2,
                          output_count=1000)

        def route(key):
            return 10 + key % 3

        got = frozen.rebucket(route)
        want = rebucket_frozen(frozen, route)
        assert sorted(got) == sorted(want) == [10, 11, 12]
        for pid in got:
            assert_matches(got[pid], want[pid])
            assert rows_of(got[pid]) == [
                tup for tup in rows_of(frozen) if route(tup.key) == pid]
        assert sum(p.output_count for p in got.values()) == 1000

    @pytest.mark.parametrize("route", [lambda key: 0, lambda key: 7],
                             ids=["every-key-stays", "every-key-moves"])
    def test_rebucket_of_one_target(self, route):
        frozen = snapshot(0, (1, 2, 3), "explicit-sizes", output_count=9)
        got = frozen.rebucket(route)
        want = rebucket_frozen(frozen, route)
        if route(1) == frozen.pid:
            assert got == {0: frozen}  # the input itself, not a copy
            assert got[0] is frozen
        else:
            assert list(got) == list(want) == [7]
            assert_matches(got[7], want[7])

    def test_rebucket_of_an_empty_snapshot_is_the_input(self):
        frozen = ColumnarPartitionGroup(4, STREAMS).freeze()
        got = frozen.rebucket(lambda key: 99)
        assert got == {4: frozen} and got[4] is frozen
        assert rebucket_frozen(frozen, lambda key: 99) == {4: frozen}

    def test_thaw_of_a_split_child_probes_like_the_row_twin(self):
        """The installed child answers windowed, materialising probes in
        the row twin's result order."""
        parent = snapshot(0, (1, 2, 3, 4), "payloads", output_count=10)
        child, __ = parent.split((8, 9), lambda key: key % 2)
        live = ColumnarPartitionGroup.thaw(child)
        twin = PartitionGroup.thaw(split_frozen(parent, (8, 9),
                                                lambda key: key % 2)[0])
        for key in (2, 4):
            probe = StreamTuple("A", 9_999, key, 6.0, 10)
            assert (live.probe_windowed(probe, 5.0, materialize=True)
                    == twin.probe_windowed(probe, 5.0, materialize=True))
            assert (live.probe(probe, materialize=True)
                    == twin.probe(probe, materialize=True))


class TestProductivitySnapshot:
    def test_rows_sorted_ascending(self, store):
        # pid 0: large size, no output -> low productivity
        for seq in range(5):
            store.probe_insert(0, tup("A", seq, 0, size=200))
        # pid 1: small and productive
        store.probe_insert(1, tup("B", 0, 1))
        store.probe_insert(1, tup("C", 0, 1))
        store.probe_insert(1, tup("A", 0, 1))
        rows = store.productivity_snapshot()
        assert rows[0][0] == 0  # least productive first
        assert rows[-1][0] == 1

    def test_state_of_returns_none_for_unknown(self, store):
        assert store.state_of(77) is None
