"""Unit tests for the symmetric m-way hash join operator."""

import pytest

from repro.cluster.machine import Machine
from repro.engine.columns import ColumnBatch
from repro.engine.operators.mjoin import MJoin
from repro.engine.reference import reference_join_count
from repro.engine.tuples import Schema, StreamTuple
from repro.workloads.queries import three_way_join


def tup(stream, seq, key, ts=None):
    return StreamTuple(stream=stream, seq=seq, key=key,
                       ts=float(seq) if ts is None else ts)


def deliver(instance, routed, **kwargs):
    """Deliver ``[(pid, tuple), ...]`` the way the engine does: as one
    column batch."""
    cb = ColumnBatch.from_routed(routed, instance.join.stream_names)
    return instance.process_columns(cb, **kwargs)


@pytest.fixture
def instance(sim):
    return three_way_join().make_instance(Machine(sim, "m1"))


class TestMJoinDescriptor:
    def test_stream_names_and_arity(self):
        join = three_way_join()
        assert join.stream_names == ("A", "B", "C")
        assert join.arity == 3

    def test_needs_two_inputs(self):
        schema = Schema(name="A", key_field="k", fields=("k",))
        with pytest.raises(ValueError):
            MJoin("j", (schema,))

    def test_duplicate_inputs_rejected(self):
        schema = Schema(name="A", key_field="k", fields=("k",))
        with pytest.raises(ValueError):
            MJoin("j", (schema, schema))

    def test_invalid_window_rejected(self):
        join = three_way_join
        with pytest.raises(ValueError):
            three_way_join(window=0)

    def test_logical_descriptor_does_not_process(self):
        with pytest.raises(NotImplementedError):
            three_way_join().process(tup("A", 0, 1))


class TestProcess:
    def test_probe_then_insert_no_self_join(self, instance):
        count, __ = deliver(instance, [(0, tup("A", 0, 5))])
        assert count == 0  # nothing to match yet

    def test_results_appear_when_all_inputs_present(self, instance):
        deliver(instance, [(0, tup("A", 0, 5))])
        deliver(instance, [(0, tup("B", 0, 5))])
        count, __ = deliver(instance, [(0, tup("C", 0, 5))])
        assert count == 1
        assert instance.results_count == 1

    def test_count_matches_reference_join(self, instance):
        arrivals = [
            ("A", 5), ("B", 5), ("C", 5), ("A", 5), ("C", 5),
            ("B", 6), ("A", 6), ("C", 6), ("B", 5), ("A", 7),
        ]
        total = 0
        tuples = []
        for seq, (stream, key) in enumerate(arrivals):
            t = tup(stream, seq, key)
            tuples.append(t)
            count, __ = deliver(instance, [(0, t)])
            total += count
        assert total == reference_join_count(tuples, ("A", "B", "C"))

    def test_partition_isolation(self, instance):
        deliver(instance, [(0, tup("A", 0, 5))])
        deliver(instance, [(0, tup("B", 0, 5))])
        count, __ = deliver(instance, [(1, tup("C", 0, 5))])
        assert count == 0

    def test_materialized_results_have_unique_idents(self, instance):
        for seq in range(3):
            deliver(instance, [(0, tup("A", seq, 5))])
            deliver(instance, [(0, tup("B", seq, 5))])
        __, results = deliver(instance, [(0, tup("C", 0, 5))], materialize=True)
        assert len(results) == 9
        assert len({r.ident for r in results}) == 9

    def test_memory_tracked(self, instance):
        deliver(instance, [(0, tup("A", 0, 5))])
        assert instance.memory_bytes > 0
        assert instance.machine.memory_used == instance.memory_bytes


class TestWindowedJoin:
    def make_instance(self, sim, window):
        return three_way_join(window=window).make_instance(Machine(sim, "mw"))

    def test_within_window_joins(self, sim):
        inst = self.make_instance(sim, window=10.0)
        deliver(inst, [(0, tup("A", 0, 5, ts=0.0))])
        deliver(inst, [(0, tup("B", 0, 5, ts=3.0))])
        count, __ = deliver(inst, [(0, tup("C", 0, 5, ts=6.0))])
        assert count == 1

    def test_outside_window_does_not_join(self, sim):
        inst = self.make_instance(sim, window=5.0)
        deliver(inst, [(0, tup("A", 0, 5, ts=0.0))])
        deliver(inst, [(0, tup("B", 0, 5, ts=3.0))])
        count, __ = deliver(inst, [(0, tup("C", 0, 5, ts=20.0))])
        assert count == 0

    def test_window_filters_per_match(self, sim):
        inst = self.make_instance(sim, window=5.0)
        deliver(inst, [(0, tup("A", 0, 5, ts=0.0))])
        deliver(inst, [(0, tup("A", 1, 5, ts=8.0))])
        deliver(inst, [(0, tup("B", 0, 5, ts=9.0))])
        count, results = deliver(inst, [(0, tup("C", 0, 5, ts=10.0))], materialize=True)
        # only the ts=8 A-tuple is within 5s of both B(9) and C(10)
        assert count == 1
        assert results[0].parts[0].ts == 8.0

    def test_purge_window_reclaims_memory(self, sim):
        inst = self.make_instance(sim, window=5.0)
        deliver(inst, [(0, tup("A", 0, 5, ts=0.0))])
        deliver(inst, [(0, tup("A", 1, 5, ts=100.0))])
        before = inst.memory_bytes
        purged = inst.purge_window(watermark=50.0)
        assert purged == 1
        assert inst.memory_bytes < before
        assert inst.machine.memory_used == inst.memory_bytes
        # remaining tuple still joins
        deliver(inst, [(0, tup("B", 0, 5, ts=101.0))])
        count, __ = deliver(inst, [(0, tup("C", 0, 5, ts=102.0))])
        assert count == 1

    def test_purge_requires_window(self, instance):
        with pytest.raises(ValueError):
            instance.purge_window(10.0)

    def test_windowed_count_matches_reference(self, sim):
        from repro.engine.reference import reference_join

        inst = self.make_instance(sim, window=4.0)
        arrivals = [("A", 1, 0.0), ("B", 1, 1.0), ("C", 1, 2.0),
                    ("A", 1, 7.0), ("B", 1, 8.0), ("C", 1, 12.5)]
        tuples = []
        total = 0
        for seq, (stream, key, ts) in enumerate(arrivals):
            t = tup(stream, seq, key, ts=ts)
            tuples.append(t)
            count, __ = deliver(inst, [(0, t)])
            total += count
        expected = len(reference_join(tuples, ("A", "B", "C"), window=4.0))
        assert total == expected
