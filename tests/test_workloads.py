"""Tests for the synthetic workload generators (paper §3.1 data model)."""

import bisect
import itertools
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generator import (
    PartitionWorkload,
    StreamWorkloadSpec,
    TupleGenerator,
    WorkloadSpec,
    distinct_values,
)
from repro.engine.tuples import StreamTuple
from repro.workloads.patterns import AlternatingPattern, DiurnalPattern


def make_generator(spec, stream="A", payload_fn=None):
    return TupleGenerator(StreamWorkloadSpec(stream=stream, spec=spec,
                                             payload_fn=payload_fn))


class TestDistinctValues:
    def test_formula(self):
        # share 1/10 of a 30k range at rate 3 -> 1000 distinct values
        assert distinct_values(3.0, 30_000, 0.1) == 1000

    def test_at_least_one(self):
        assert distinct_values(100.0, 10, 0.01) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            distinct_values(0, 100, 0.5)
        with pytest.raises(ValueError):
            distinct_values(1, 0, 0.5)
        with pytest.raises(ValueError):
            distinct_values(1, 100, 0)
        with pytest.raises(ValueError):
            distinct_values(1, 100, 1.5)


class TestWorkloadSpec:
    def test_uniform_builder(self):
        spec = WorkloadSpec.uniform(n_partitions=8, join_rate=3, tuple_range=300)
        assert spec.n_partitions == 8
        assert all(p.join_rate == 3 for p in spec.partitions)

    def test_mixed_rates_fractions(self):
        spec = WorkloadSpec.mixed_rates(
            9, {4.0: 1 / 3, 2.0: 1 / 3, 1.0: 1 / 3}, tuple_range=300
        )
        rates = [p.join_rate for p in spec.partitions]
        assert rates.count(4.0) == 3
        assert rates.count(2.0) == 3
        assert rates.count(1.0) == 3

    def test_mixed_rates_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec.mixed_rates(9, {4.0: 0.5, 1.0: 0.2})

    def test_partition_ids_must_be_in_order(self):
        parts = (PartitionWorkload(pid=1), PartitionWorkload(pid=0))
        with pytest.raises(ValueError):
            WorkloadSpec(n_partitions=2, partitions=parts)

    def test_partition_count_must_match(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_partitions=3, partitions=(PartitionWorkload(pid=0),))

    def test_partition_workload_validation(self):
        with pytest.raises(ValueError):
            PartitionWorkload(pid=0, join_rate=0)
        with pytest.raises(ValueError):
            PartitionWorkload(pid=0, tuple_range=0)
        with pytest.raises(ValueError):
            PartitionWorkload(pid=0, weight=0)


class TestTupleGenerator:
    def test_arrival_times_are_evenly_spaced(self):
        spec = WorkloadSpec.uniform(n_partitions=4, interarrival=0.5,
                                    tuple_range=100)
        arrivals = make_generator(spec).take(5)
        times = [t for t, __ in arrivals]
        assert times == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])

    def test_keys_route_back_to_their_partition(self):
        spec = WorkloadSpec.uniform(n_partitions=8, tuple_range=400)
        for __, tup in make_generator(spec).take(200):
            assert tup.key % 8 == tup.key % spec.n_partitions

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec.uniform(n_partitions=8, tuple_range=400, seed=42)
        a = [t.key for __, t in make_generator(spec).take(100)]
        b = [t.key for __, t in make_generator(spec).take(100)]
        assert a == b

    def test_streams_draw_from_same_value_universe(self):
        spec = WorkloadSpec.uniform(n_partitions=4, join_rate=4, tuple_range=80)
        keys_a = {t.key for __, t in make_generator(spec, "A").take(400)}
        keys_b = {t.key for __, t in make_generator(spec, "B").take(400)}
        # round-robin pools guarantee heavy overlap (join partners exist)
        assert len(keys_a & keys_b) > 0.9 * len(keys_a)

    def test_multiplicative_factor_grows_linearly(self):
        """After k tuples each value should have ~r occurrences (paper §3.1)."""
        rate, rng = 4.0, 400
        spec = WorkloadSpec.uniform(n_partitions=4, join_rate=rate,
                                    tuple_range=rng)
        counts = {}
        for __, tup in make_generator(spec).take(rng):
            counts[tup.key] = counts.get(tup.key, 0) + 1
        mean = sum(counts.values()) / len(counts)
        assert mean == pytest.approx(rate, rel=0.25)

    def test_sequence_numbers_increase(self):
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=100)
        seqs = [t.seq for __, t in make_generator(spec).take(10)]
        assert seqs == list(range(10))

    def test_payload_fn_applied(self):
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=100)
        gen = make_generator(spec, payload_fn=lambda key, seq, rng: (key * 2,))
        for __, tup in gen.take(5):
            assert tup.payload == (tup.key * 2,)

    def test_weighted_partitions_receive_more(self):
        parts = tuple(
            PartitionWorkload(pid=i, tuple_range=400,
                              weight=(9.0 if i < 2 else 1.0))
            for i in range(4)
        )
        spec = WorkloadSpec(n_partitions=4, partitions=parts, seed=3)
        hot = cold = 0
        for __, tup in make_generator(spec).take(2000):
            if tup.key % 4 < 2:
                hot += 1
            else:
                cold += 1
        assert hot > 4 * cold

    def test_alternating_pattern_shifts_load(self):
        pattern = AlternatingPattern([{0, 1}, {2, 3}], period=10.0, factor=10.0)
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=400,
                                    interarrival=0.01, pattern=pattern)
        gen = make_generator(spec)
        phase0 = [t for time, t in gen.take(900) if time < 9.0]
        hot0 = sum(1 for t in phase0 if t.key % 4 in (0, 1))
        assert hot0 > 0.7 * len(phase0)


def reference_rows(spec, stream="A", payload_fn=None, *, n):
    """The per-row definition of the arrival sequence, kept as the test
    reference: one RNG draw, one weight table and one ``StreamTuple`` per
    row, nothing hoisted or cached.  Returns the rows and the RNG."""
    rng = random.Random(spec.seed * 1_000_003 + zlib.crc32(stream.encode()))
    total_weight = sum(p.weight for p in spec.partitions)
    pool = [distinct_values(p.join_rate, p.tuple_range, p.weight / total_weight)
            for p in spec.partitions]
    cursor = [0] * spec.n_partitions
    tables = {}
    rows = []
    for seq in range(n):
        t = 0.0 + (seq + 1) * spec.interarrival
        phase = spec.pattern.phase(t)
        if phase not in tables:  # multipliers are constant within a phase
            tables[phase] = list(itertools.accumulate(
                p.weight * spec.pattern.multiplier(p.pid, t)
                for p in spec.partitions
            ))
        cumulative = tables[phase]
        pid = bisect.bisect_left(cumulative, rng.random() * cumulative[-1])
        key = pid + spec.n_partitions * cursor[pid]
        cursor[pid] = (cursor[pid] + 1) % pool[pid]
        payload = payload_fn(key, seq, rng) if payload_fn else ()
        rows.append((t, StreamTuple(stream, seq, key, t, spec.tuple_size,
                                    payload)))
    return rows, rng


def random_payload(key, seq, rng):
    # draws from the generator's RNG: a skipped or repeated call would
    # shift every later key
    return (key, rng.randrange(100)) if seq % 3 else ()


COLUMN_CASES = {
    "uniform": dict(spec=WorkloadSpec.uniform(
        n_partitions=8, join_rate=3.0, tuple_range=240, interarrival=0.05,
        seed=5)),
    "mixed_rates": dict(spec=WorkloadSpec.mixed_rates(
        9, {4.0: 1 / 3, 2.0: 1 / 3, 1.0: 1 / 3}, tuple_range=300, seed=9)),
    # 0.37 s phases over 25-row batches 1.25 s long: the phase flips
    # several times inside every batch
    "alternating_flip_in_batch": dict(spec=WorkloadSpec.uniform(
        n_partitions=6, tuple_range=120, interarrival=0.05, seed=3,
        pattern=AlternatingPattern([{0, 1}, {2, 3}, {4}], period=0.37,
                                   factor=8.0))),
    "diurnal_flip_in_batch": dict(spec=WorkloadSpec.uniform(
        n_partitions=6, tuple_range=120, interarrival=0.05, seed=4,
        pattern=DiurnalPattern([{0, 1, 2}, {3, 4, 5}], period=7.0,
                               factor=5.0, steps=12))),
    "payload_fn": dict(spec=WorkloadSpec.uniform(
        n_partitions=4, tuple_range=100, seed=8), payload_fn=random_payload),
}


class TestColumnBatches:
    """``TupleGenerator.batches`` defines the arrival sequence once; it
    must be the per-row sequence, whatever the batch size."""

    @pytest.mark.parametrize("case", COLUMN_CASES)
    @pytest.mark.parametrize("batch_size", [1, 25, 64])
    def test_columns_equal_the_row_reference(self, case, batch_size):
        kwargs = COLUMN_CASES[case]
        n = 5 * batch_size
        expected, rng = reference_rows(**kwargs, n=n)
        gen = make_generator(**kwargs)
        batches = list(itertools.islice(gen.batches(batch_size), 5))
        assert [len(b) for b in batches] == [batch_size] * 5
        assert [b.seq0 for b in batches] == [i * batch_size for i in range(5)]
        got = [(t, tup) for b in batches for t, tup in zip(b.ts, b)]
        assert got == expected
        assert gen.tuples_generated == n
        assert gen._rng.getstate() == rng.getstate()
        if "payload_fn" not in kwargs:
            assert all(b.payloads is None for b in batches)

    @pytest.mark.parametrize("case", COLUMN_CASES)
    def test_arrivals_is_a_row_view_of_the_columns(self, case):
        kwargs = COLUMN_CASES[case]
        expected, rng = reference_rows(**kwargs, n=130)
        gen = make_generator(**kwargs)
        assert gen.take(130) == expected
        # lazy row by row: nothing drawn ahead of what was consumed
        assert gen.tuples_generated == 130
        assert gen._rng.getstate() == rng.getstate()

    def test_stop_at_mid_batch_draws_and_discards_one_row(self):
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=100,
                                    interarrival=0.1)
        gen = make_generator(spec, payload_fn=random_payload)
        batches = list(gen.batches(5, stop_at=0.75))
        assert [len(b) for b in batches] == [5, 2]  # arrivals at .1 .. .7
        # the row path drew the first late arrival before dropping it
        expected, rng = reference_rows(spec, payload_fn=random_payload, n=8)
        assert [tup for b in batches for tup in b] == [
            tup for __, tup in expected[:7]
        ]
        assert gen.tuples_generated == 8
        assert gen._rng.getstate() == rng.getstate()

    def test_stop_at_on_a_batch_boundary_yields_no_empty_batch(self):
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=100,
                                    interarrival=0.1)
        gen = make_generator(spec)
        assert [len(b) for b in gen.batches(5, stop_at=1.05)] == [5, 5]
        assert gen.tuples_generated == 11


class TestArrivalBatch:
    def make(self, payload_fn=None):
        spec = WorkloadSpec.uniform(n_partitions=4, tuple_range=100)
        batch = next(make_generator(spec, payload_fn=payload_fn).batches(6))
        rows = [tup for __, tup in
                make_generator(spec, payload_fn=payload_fn).take(6)]
        return batch, rows

    @pytest.mark.parametrize("payload_fn", [None, random_payload])
    def test_sized_and_iterates_to_stream_tuples(self, payload_fn):
        batch, rows = self.make(payload_fn)
        assert len(batch) == 6
        assert list(batch) == rows
        assert [batch.row(i) for i in range(6)] == rows
        for tup in batch:
            assert isinstance(tup, StreamTuple)

    def test_rows_are_built_once(self):
        batch, __ = self.make()
        first = list(batch)
        assert all(a is b for a, b in zip(first, batch))
        assert batch.row(2) is first[2]


@settings(max_examples=30, deadline=None)
@given(
    n_partitions=st.integers(2, 16),
    join_rate=st.floats(0.5, 8.0),
    tuple_range=st.integers(50, 1000),
    seed=st.integers(0, 10_000),
)
def test_generator_invariants(n_partitions, join_rate, tuple_range, seed):
    """Property: keys are non-negative, route to valid partitions, arrival
    times strictly increase, and generation is reproducible."""
    spec = WorkloadSpec.uniform(
        n_partitions=n_partitions,
        join_rate=join_rate,
        tuple_range=tuple_range,
        seed=seed,
    )
    sample = make_generator(spec).take(60)
    times = [t for t, __ in sample]
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    for __, tup in sample:
        assert tup.key >= 0
        assert 0 <= tup.key % n_partitions < n_partitions
    again = make_generator(spec).take(60)
    assert [t.key for __, t in sample] == [t.key for __, t in again]
