"""Tests for spill policies and the spill executor."""

import pytest

from repro.cluster.disk import Disk
from repro.core.config import CostModel, SpillPolicyName
from repro.core.spill import (
    LargestFirstSpillPolicy,
    LessProductiveSpillPolicy,
    MoreProductiveSpillPolicy,
    RandomSpillPolicy,
    SpillExecutor,
    make_spill_policy,
)
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

STREAMS = ("A", "B")


def fill_store(store, pid, n_tuples, size=64, outputs=0):
    for seq in range(n_tuples):
        store.probe_insert(pid, StreamTuple(stream="A", seq=seq, key=pid,
                                            ts=0.0, size=size))
    if outputs:
        store.peek(pid).record_output(outputs)


@pytest.fixture
def store(machine):
    return StateStore(machine, STREAMS)


class TestPolicies:
    def test_factory_round_trip(self):
        for name in SpillPolicyName:
            policy = make_spill_policy(name)
            assert policy.name is name

    def test_factory_accepts_strings(self):
        assert make_spill_policy("largest").name is SpillPolicyName.LARGEST

    def test_largest_first_orders_by_size(self, store):
        fill_store(store, 0, 1)
        fill_store(store, 1, 5)
        fill_store(store, 2, 3)
        order = LargestFirstSpillPolicy().order(list(store.groups()))
        assert [g.pid for g in order] == [1, 2, 0]

    def test_less_productive_orders_ascending(self, store):
        fill_store(store, 0, 2, outputs=100)
        fill_store(store, 1, 2, outputs=1)
        order = LessProductiveSpillPolicy().order(list(store.groups()))
        assert [g.pid for g in order] == [1, 0]

    def test_more_productive_orders_descending(self, store):
        fill_store(store, 0, 2, outputs=100)
        fill_store(store, 1, 2, outputs=1)
        order = MoreProductiveSpillPolicy().order(list(store.groups()))
        assert [g.pid for g in order] == [0, 1]

    def test_random_is_seeded_and_deterministic(self, store):
        for pid in range(6):
            fill_store(store, pid, 1)
        groups = list(store.groups())
        a = [g.pid for g in RandomSpillPolicy(seed=5).order(groups)]
        b = [g.pid for g in RandomSpillPolicy(seed=5).order(groups)]
        assert a == b

    def test_select_accumulates_to_amount(self, store):
        for pid in range(4):
            fill_store(store, pid, 2, size=100, outputs=pid)  # ~328B each
        groups = list(store.groups())
        victims = LessProductiveSpillPolicy().select(groups, amount=400)
        # first group (pid 0) is 328B < 400 -> crossing group included
        assert victims == [0, 1]

    def test_select_zero_amount_selects_nothing(self, store):
        fill_store(store, 0, 2)
        assert LessProductiveSpillPolicy().select(list(store.groups()), 0) == []

    def test_select_always_makes_progress(self, store):
        fill_store(store, 0, 2)
        victims = LessProductiveSpillPolicy().select(list(store.groups()), 1)
        assert victims == [0]

    def test_select_skips_empty_groups(self, store):
        store.group(0)  # empty group
        fill_store(store, 1, 2)
        victims = LessProductiveSpillPolicy().select(list(store.groups()), 10_000)
        assert victims == [1]


class TestExecutor:
    def make_executor(self, sim, store):
        disk = Disk(write_bandwidth=1e6, seek_time=0.01)
        return SpillExecutor(store.machine, disk, store, CostModel()), disk

    def test_execute_moves_state_to_disk(self, sim, store):
        executor, disk = self.make_executor(sim, store)
        fill_store(store, 0, 4, size=100)
        fill_store(store, 1, 4, size=100)
        before = store.machine.memory_used
        outcome = executor.execute(
            LessProductiveSpillPolicy(), amount=before, now=1.0
        )
        assert outcome is not None
        assert store.machine.memory_used == 0
        assert disk.resident_bytes == before
        assert outcome.bytes_spilled == before
        assert set(outcome.partition_ids) == {0, 1}
        assert executor.spill_count == 1

    def test_execute_occupies_cpu(self, sim, store):
        executor, disk = self.make_executor(sim, store)
        fill_store(store, 0, 4, size=100)
        done = []
        executor.execute(
            LessProductiveSpillPolicy(), amount=10**6, now=0.0,
            on_done=lambda o: done.append(sim.now),
        )
        sim.run()
        assert done and done[0] > 0.01  # at least the seek time

    def test_execute_nothing_to_spill_returns_none(self, sim, store):
        executor, __ = self.make_executor(sim, store)
        assert executor.execute(LessProductiveSpillPolicy(), 100, now=0.0) is None

    def test_segments_carry_generation_and_time(self, sim, store):
        executor, disk = self.make_executor(sim, store)
        fill_store(store, 0, 2)
        executor.execute(LessProductiveSpillPolicy(), 10**6, now=5.0)
        fill_store(store, 0, 2)
        executor.execute(LessProductiveSpillPolicy(), 10**6, now=9.0)
        segs = disk.segments_for(0)
        assert [s.generation for s in segs] == [0, 1]
        assert [s.spilled_at for s in segs] == [5.0, 9.0]

    def test_compute_amount_fraction(self, sim, store):
        executor, __ = self.make_executor(sim, store)
        fill_store(store, 0, 10, size=100)
        assert executor.compute_amount(0.3) == int(store.total_bytes * 0.3)
