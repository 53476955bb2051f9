"""Unit tests for the per-instance state store and its memory accounting."""

import pytest

from repro.cluster.machine import Machine
from repro.engine.partitions import (
    GROUP_OVERHEAD_BYTES,
    PartitionGroup,
    merge_frozen,
    split_frozen,
)
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

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
        assert all(key % 2 == 0 for s in STREAMS
                   for key in c0.key_counts(s))
        assert all(key % 2 == 1 for s in STREAMS
                   for key in c1.key_counts(s))
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
        """The store's in-place split and merge against the same
        transforms over the row-format reference twin."""
        twin = PartitionGroup(0, STREAMS)

        class TwinStore:  # ``populate`` feeds the twin the same rows
            def probe_insert(self, pid, row, *, now):
                twin.record_output(twin.probe(row)[0])
                twin.insert(row)

        self.populate(TwinStore())
        self.populate(store)
        want = split_frozen(twin.freeze(), (8, 9), lambda key: key % 2)
        store.split_group(0, (8, 9), lambda key: key % 2)
        assert canonical(store.state_of(8)) == canonical(want[0])
        assert canonical(store.state_of(9)) == canonical(want[1])
        store.merge_groups((8, 9), 0)
        assert canonical(store.state_of(0)) == canonical(merge_frozen(0, want))
        assert store.total_bytes == store.machine.memory_used


def canonical(frozen):
    from tests.helpers import canonical_frozen

    return canonical_frozen(frozen)


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
