"""The lazily-repaired victim index must be indistinguishable from full
re-sorts.

`StateStore` keeps per-order heaps that are invalidated through the same
`_touch` funnel as the incremental-checkpoint counters and repaired only
when a policy actually reads an ordering.  Every test here drives the
store through mutation/evict/install/purge sequences and checks the
incremental orderings against freshly sorted ground truth — including the
exact tie-breaks the sorted paths used before.
"""

import random

import pytest

from repro.cluster.machine import Machine
from repro.cluster.simulation import Simulator
from repro.core.local_controller import select_relocation_parts
from repro.core.spill import make_spill_policy
from repro.engine.state_store import (
    ORDER_PRODUCTIVITY_ASC,
    ORDER_PRODUCTIVITY_DESC,
    ORDER_SIZE_DESC,
    StateStore,
)
from repro.engine.tuples import StreamTuple

STREAMS = ("A", "B", "C")

ORDER_KEYS = {
    ORDER_PRODUCTIVITY_ASC: lambda g: (g.productivity, g.pid),
    ORDER_PRODUCTIVITY_DESC: lambda g: (-g.productivity, g.pid),
    ORDER_SIZE_DESC: lambda g: (-g.size_bytes, g.pid),
}


def fresh_store():
    sim = Simulator()
    return StateStore(Machine(sim, "m"), STREAMS)


def sorted_reference(store, order):
    return [g.pid for g in sorted(store.groups(), key=ORDER_KEYS[order])]


def drain_order(store, order):
    it = store.iter_in_order(order)
    try:
        return [g.pid for g in it]
    finally:
        it.close()


def populate(store, n_tuples, *, n_partitions=8, key_range=10, seed=5):
    rng = random.Random(seed)
    for seq in range(n_tuples):
        key = rng.randrange(key_range)
        store.probe_insert(
            key % n_partitions,
            StreamTuple(stream=STREAMS[seq % 3], seq=seq, key=key,
                        ts=seq * 0.5, size=64),
        )


class TestIncrementalOrdering:
    @pytest.mark.parametrize("order", list(ORDER_KEYS))
    def test_matches_full_sort_after_inserts(self, order):
        store = fresh_store()
        populate(store, 200)
        assert drain_order(store, order) == sorted_reference(store, order)

    @pytest.mark.parametrize("order", list(ORDER_KEYS))
    def test_repeated_reads_are_stable(self, order):
        store = fresh_store()
        populate(store, 120)
        first = drain_order(store, order)
        # consumed groups are re-marked dirty, so the next read rebuilds
        # their entries and sees the same ordering
        assert drain_order(store, order) == first

    def test_snapshot_limit_prefix(self):
        store = fresh_store()
        populate(store, 150)
        full = store.productivity_snapshot()
        assert store.productivity_snapshot(limit=3) == full[:3]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomised_mutation_sequences(self, seed):
        """Interleave inserts, batches, evicts, installs, purges and
        ordered reads; the index must track ground truth throughout."""
        rng = random.Random(seed)
        store = fresh_store()
        parked = []  # frozen groups available for re-install
        seq = 0
        for step in range(300):
            roll = rng.random()
            pids = store.partition_ids()
            if roll < 0.55:
                key = rng.randrange(10)
                store.probe_insert(
                    key % 8,
                    StreamTuple(stream=STREAMS[seq % 3], seq=seq, key=key,
                                ts=seq * 0.5, size=64),
                )
                seq += 1
            elif roll < 0.7:
                batch = []
                for __ in range(rng.randrange(1, 12)):
                    key = rng.randrange(10)
                    batch.append((key % 8, StreamTuple(
                        stream=STREAMS[seq % 3], seq=seq, key=key,
                        ts=seq * 0.5, size=64)))
                    seq += 1
                store.probe_insert_batch(batch)
            elif roll < 0.8 and pids:
                victim = pids[rng.randrange(len(pids))]
                parked.extend(store.evict([victim]))
            elif roll < 0.9 and parked:
                frozen = parked.pop(rng.randrange(len(parked)))
                if frozen.pid not in store:
                    store.install(frozen)
            else:
                store.purge_window(seq * 0.5 - rng.randrange(1, 50))
            if step % 23 == 0:
                for order in ORDER_KEYS:
                    assert drain_order(store, order) == sorted_reference(
                        store, order
                    ), f"order {order} diverged at step {step}"
        for order in ORDER_KEYS:
            assert drain_order(store, order) == sorted_reference(store, order)

    def test_crash_reset_clears_index(self):
        store = fresh_store()
        populate(store, 60)
        store.crash_reset()
        for order in ORDER_KEYS:
            assert drain_order(store, order) == []
        # post-crash state is indexed normally again
        populate(store, 60, seed=9)
        for order in ORDER_KEYS:
            assert drain_order(store, order) == sorted_reference(store, order)


class TestPolicyEquivalence:
    @pytest.mark.parametrize("policy_name",
                             ["largest", "less_productive", "more_productive"])
    def test_select_victims_matches_sorted_select(self, policy_name):
        store = fresh_store()
        populate(store, 250)
        policy = make_spill_policy(policy_name)
        for amount in (0, 1, 700, 5_000, 10**9):
            expected = policy.select(list(store.groups()), amount)
            assert policy.select_victims(store, amount) == expected

    def test_relocation_parts_match_ranked_selection(self):
        store = fresh_store()
        populate(store, 250)
        for amount in (1, 700, 5_000, 10**9):
            expected, total = select_relocation_parts(list(store.groups()), amount)
            picked = tuple(store.pick_victims(ORDER_PRODUCTIVITY_DESC, amount))
            assert picked == expected
            assert sum(store.peek(p).size_bytes for p in picked) == total

    def test_empty_groups_never_selected(self):
        store = fresh_store()
        store.group(99)  # overhead-only group
        populate(store, 40)
        policy = make_spill_policy("less_productive")
        victims = policy.select_victims(store, 10**9)
        assert 99 not in victims
        assert victims  # the non-empty groups were all taken
