"""Equivalence of the micro-batched data path with the per-tuple path.

The batched entry points (`StateStore.probe_insert_batch`,
`MJoinInstance.process_batch`) amortise memory-accounting, mutation-counter
and statistics updates across a delivered batch.  That is only legal if it
is *unobservable*: same results in the same order, same counters, same
victim orderings, and — end to end — byte-identical outputs and traces for
the same seeds.  These tests assert exactly that, at the store level and
over full deployments with spills and relocations.
"""

import random

import pytest

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.machine import Machine
from repro.cluster.simulation import Simulator
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple
from repro.obs.trace import Tracer
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import small_deployment

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


def run_deployment(batched, **kwargs):
    tracer = Tracer()
    dep = small_deployment(collect=True,
                           data_path="batched" if batched else "tuple",
                           tracer=tracer, **kwargs)
    dep.run(duration=40.0, sample_interval=5.0)
    report = dep.cleanup(materialize=True)
    return dep, report, tracer


class TestDeploymentEquivalence:
    def test_byte_identical_outputs_and_traces(self):
        dep_a, report_a, tracer_a = run_deployment(True)
        dep_b, report_b, tracer_b = run_deployment(False)
        assert dep_a.spill_count > 0  # the run actually adapted
        # identical result sequences (order included), counts, cleanup
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert report_a.missing_results == report_b.missing_results
        assert ({r.ident for r in report_a.results}
                == {r.ident for r in report_b.results})
        # byte-identical adaptation traces: every spill, relocation and
        # protocol step happened at the same simulated instant either way
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()

    def test_windowed_deployment_equivalence(self):
        def run(batched):
            tracer = Tracer()
            dep = Deployment(
                join=three_way_join(window=20.0),
                workload=WorkloadSpec.uniform(
                    n_partitions=8, join_rate=3.0, tuple_range=240,
                    interarrival=0.05, seed=7,
                ),
                workers=["m1"],
                config=AdaptationConfig(
                    strategy=StrategyName.NO_RELOCATION,
                    memory_threshold=6_000,
                    ss_interval=2.0,
                ),
                collect_results=True,
                record_inputs=True,
                data_path="batched" if batched else "tuple",
                tracer=tracer,
            )
            dep.run(duration=50, sample_interval=10)
            return dep, tracer

        dep_a, tracer_a = run(True)
        dep_b, tracer_b = run(False)
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()
