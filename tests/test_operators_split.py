"""Unit tests for the split operator and partition maps."""

import math

import pytest

from repro.engine.operators.split import PartitionMap, Split
from repro.engine.tuples import StreamTuple


def tup(key, seq=0):
    return StreamTuple(stream="A", seq=seq, key=key, ts=0.0)


class TestPartitionMap:
    def test_round_robin_spreads_evenly(self):
        pm = PartitionMap.round_robin(10, ["m1", "m2"])
        assert len(pm.partitions_of("m1")) == 5
        assert len(pm.partitions_of("m2")) == 5
        assert pm.n_partitions == 10

    def test_weighted_60_20_20(self):
        pm = PartitionMap.weighted(10, {"m1": 0.6, "m2": 0.2, "m3": 0.2})
        assert len(pm.partitions_of("m1")) == 6
        assert len(pm.partitions_of("m2")) == 2
        assert len(pm.partitions_of("m3")) == 2

    def test_weighted_covers_all_partitions(self):
        pm = PartitionMap.weighted(7, {"a": 1, "b": 2})
        owned = sum(len(pm.partitions_of(m)) for m in ("a", "b"))
        assert owned == 7

    def test_owner_and_remap(self):
        pm = PartitionMap.round_robin(4, ["m1", "m2"])
        pid = pm.partitions_of("m1")[0]
        pm.remap([pid], "m2")
        assert pm.owner(pid) == "m2"

    def test_remap_unknown_partition_rejected(self):
        pm = PartitionMap.round_robin(4, ["m1"])
        with pytest.raises(KeyError):
            pm.remap([99], "m1")

    def test_owner_unknown_partition_rejected(self):
        pm = PartitionMap.round_robin(4, ["m1"])
        with pytest.raises(KeyError):
            pm.owner(99)

    def test_copy_is_independent(self):
        pm = PartitionMap.round_robin(4, ["m1", "m2"])
        clone = pm.copy()
        pid = pm.partitions_of("m1")[0]
        clone.remap([pid], "m2")
        assert pm.owner(pid) == "m1"

    def test_machines(self):
        pm = PartitionMap.round_robin(4, ["m2", "m1"])
        assert pm.machines() == ("m1", "m2")

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionMap({})
        with pytest.raises(ValueError):
            PartitionMap.round_robin(0, ["m1"])
        with pytest.raises(ValueError):
            PartitionMap.round_robin(4, [])
        with pytest.raises(ValueError):
            PartitionMap.weighted(4, {"m1": 0.0})

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_weighted_rejects_bad_weights(self, bad, at):
        weights = {"m1": 2.0, "m2": 1.0, "m3": 1.0}
        weights[f"m{at + 1}"] = bad
        with pytest.raises(ValueError, match=f"'m{at + 1}' must be finite"):
            PartitionMap.weighted(24, weights)


class TestSplitRouting:
    def make_split(self, n=8, machines=("m1", "m2")):
        return Split("split_A", n, PartitionMap.round_robin(n, list(machines)))

    def test_route_is_key_mod_partitions(self):
        split = self.make_split(n=8)
        assert split.route(3) == 3
        assert split.route(11) == 3

    def test_process_yields_pid_owner_tuple(self):
        split = self.make_split(n=8)
        [(pid, owner, routed)] = list(split.process(tup(key=10)))
        assert pid == 2
        assert owner == split.partition_map.owner(2)
        assert routed.key == 10
        assert split.outputs_emitted == 1

    def test_map_size_mismatch_rejected(self):
        pm = PartitionMap.round_robin(4, ["m1"])
        with pytest.raises(ValueError):
            Split("s", 8, pm)


class TestSplitBuffering:
    def test_paused_partition_buffers(self):
        split = TestSplitRouting().make_split(n=4)
        split.pause([1])
        assert list(split.process(tup(key=1))) == []
        assert split.buffered_now == 1
        assert split.paused_partitions == frozenset({1})
        # other partitions still flow
        assert len(list(split.process(tup(key=2)))) == 1

    def test_resume_flushes_in_arrival_order(self):
        split = TestSplitRouting().make_split(n=4)
        split.pause([1])
        for seq in range(3):
            list(split.process(tup(key=1, seq=seq)))
        flushed = split.resume([1], "m2")
        assert [t.seq for __, __, t in flushed] == [0, 1, 2]
        assert all(owner == "m2" for __, owner, __ in flushed)
        assert split.buffered_now == 0
        assert split.paused_partitions == frozenset()

    def test_resume_applies_new_mapping(self):
        split = TestSplitRouting().make_split(n=4)
        old_owner = split.partition_map.owner(1)
        new_owner = "m2" if old_owner == "m1" else "m1"
        split.pause([1])
        split.resume([1], new_owner)
        [(pid, owner, __)] = list(split.process(tup(key=1)))
        assert owner == new_owner

    def test_resume_without_buffered_tuples(self):
        split = TestSplitRouting().make_split(n=4)
        split.pause([3])
        assert split.resume([3], "m1") == []

    def test_buffered_total_counts_lifetime(self):
        split = TestSplitRouting().make_split(n=4)
        split.pause([1])
        list(split.process(tup(key=1)))
        split.resume([1], "m1")
        split.pause([1])
        list(split.process(tup(key=1, seq=1)))
        assert split.buffered_total == 2
