"""Equivalence of the micro-batched store entry point with the per-row one.

The row-batch entry point (`StateStore.probe_insert_batch`) amortises
memory-accounting, mutation-counter and statistics updates across a
routed row batch.  That is only legal if it is *unobservable*: same
results in the same order, same counters, same victim orderings as
calling `StateStore.probe_insert` per row.  No delivery calls it; it is
the store-level row reference `tests/test_columnar_path.py` holds the
column entry every delivery takes to, and these tests keep it equal to
the per-row one.
"""

import random

import pytest

from repro.cluster.machine import Machine
from repro.cluster.simulation import Simulator
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

STREAMS = ("A", "B", "C")


def synth_batch(n, *, n_partitions=6, key_range=12, seed=3, ts_step=0.5):
    rng = random.Random(seed)
    batch = []
    for seq in range(n):
        key = rng.randrange(key_range)
        tup = StreamTuple(stream=STREAMS[seq % 3], seq=seq, key=key,
                          ts=seq * ts_step, size=64)
        batch.append((key % n_partitions, tup))
    return batch


def fresh_store():
    sim = Simulator()
    return StateStore(Machine(sim, "m"), STREAMS)


class TestStoreBatchEquivalence:
    @pytest.mark.parametrize("window", [None, 5.0])
    @pytest.mark.parametrize("materialize", [False, True])
    def test_batch_matches_per_tuple(self, materialize, window):
        batch = synth_batch(300)
        per_tuple = fresh_store()
        total_a = 0
        results_a = []
        for pid, tup in batch:
            count, results = per_tuple.probe_insert(
                pid, tup, materialize=materialize, window=window
            )
            total_a += count
            results_a.extend(results)
        batched = fresh_store()
        total_b, results_b = batched.probe_insert_batch(
            batch, materialize=materialize, window=window
        )
        assert total_b == total_a
        assert results_b == results_a  # same results, same order
        assert batched.total_bytes == per_tuple.total_bytes
        assert batched.outputs_total == per_tuple.outputs_total
        assert batched.tuples_processed == per_tuple.tuples_processed
        # identical per-pid counter *values*, not just dirtiness: the
        # incremental checkpointer compares exact counts
        assert batched.mutations == per_tuple.mutations
        assert batched.machine.memory_used == per_tuple.machine.memory_used
        assert batched.machine.memory_high_water == per_tuple.machine.memory_high_water
        assert batched.productivity_snapshot() == per_tuple.productivity_snapshot()

    def test_empty_batch_is_a_no_op(self):
        store = fresh_store()
        assert store.probe_insert_batch([]) == (0, [])
        assert store.total_bytes == 0
        assert store.mutations == {}

    def test_batch_split_points_do_not_matter(self):
        batch = synth_batch(240)
        whole = fresh_store()
        whole.probe_insert_batch(batch)
        pieces = fresh_store()
        for start in range(0, len(batch), 17):
            pieces.probe_insert_batch(batch[start:start + 17])
        assert pieces.outputs_total == whole.outputs_total
        assert pieces.total_bytes == whole.total_bytes
        assert pieces.mutations == whole.mutations
        assert pieces.productivity_snapshot() == whole.productivity_snapshot()
