"""Tests for the cleanup phase: duplicate-free merge of spilled segments.

The key invariant (paper §3): run-time results + cleanup results ==
reference join results, with nothing produced twice.  The property tests
drive random arrival/spill schedules through a state store, then check the
merge reconstructs exactly the missed combinations.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.disk import Disk, SpillSegment
from repro.cluster.machine import Machine
from repro.cluster.simulation import Simulator
from repro.core.cleanup import CleanupExecutor, merge_missing
from repro.core.config import CostModel
from repro.engine.columns import ColumnarPartitionGroup
from repro.engine.reference import reference_join, result_idents
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

from tests.helpers import small_deployment

STREAMS = ("A", "B", "C")


def tup(stream, seq, key):
    return StreamTuple(stream=stream, seq=seq, key=key, ts=float(seq))


def build_parts(arrival_groups):
    """Build frozen parts from groups of (stream, key) arrivals, emulating
    run-time probe-insert within each part and returning both the parts and
    the run-time-produced result idents."""
    parts = []
    runtime = set()
    seq = 0
    for arrivals in arrival_groups:
        group = ColumnarPartitionGroup(0, STREAMS, generation=len(parts))
        for stream, key in arrivals:
            t = tup(stream, seq, key)
            seq += 1
            __, results = group.probe(t, materialize=True)
            group.insert(t)
            runtime.update(r.ident for r in results)
        parts.append(group.freeze())
    return parts, runtime


def merge_missing_count(parts, streams):
    return merge_missing(parts, streams)[0]


def merge_missing_results(parts, streams):
    return merge_missing(parts, streams, materialize=True)[1]


def all_tuples(parts):
    out = []
    for part in parts:
        for stream in STREAMS:
            out.extend(part.tuples_of(stream))
    return out


class TestMergeBasics:
    def test_single_part_nothing_missing(self):
        parts, __ = build_parts([[("A", 1), ("B", 1), ("C", 1)]])
        assert merge_missing_count(parts, STREAMS) == 0
        assert merge_missing_results(parts, STREAMS) == []

    def test_two_parts_cross_results(self):
        parts, runtime = build_parts(
            [[("A", 1)], [("B", 1), ("C", 1)]]
        )
        # A in part0, B and C in part1 -> the (A,B,C) combo is missing
        assert merge_missing_count(parts, STREAMS) == 1
        results = merge_missing_results(parts, STREAMS)
        assert len(results) == 1
        assert [p.stream for p in results[0].parts] == ["A", "B", "C"]

    def test_within_part_results_not_remitted(self):
        parts, runtime = build_parts(
            [[("A", 1), ("B", 1), ("C", 1)], [("A", 1), ("B", 1), ("C", 1)]]
        )
        missing = merge_missing_results(parts, STREAMS)
        idents = result_idents(missing)
        assert not (idents & runtime)
        # reference has 8 results total; each part produced 1 at run time
        assert len(missing) == 8 - 2

    def test_count_and_results_agree(self):
        parts, __ = build_parts(
            [
                [("A", 1), ("B", 1), ("A", 2), ("C", 2)],
                [("C", 1), ("B", 2)],
                [("A", 1), ("B", 1), ("C", 1)],
            ]
        )
        count = merge_missing_count(parts, STREAMS)
        results = merge_missing_results(parts, STREAMS)
        assert count == len(results)

    def test_empty_parts_list(self):
        assert merge_missing_count([], STREAMS) == 0
        assert merge_missing_results([], STREAMS) == []


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(
        st.lists(
            st.tuples(st.sampled_from(STREAMS), st.integers(0, 2)),
            max_size=10,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_merge_reconstructs_exactly_the_missing_results(schedule):
    """Property: runtime ∪ cleanup == reference, disjointly, for any split
    of arrivals into spill generations."""
    parts, runtime = build_parts(schedule)
    missing = merge_missing_results(parts, STREAMS)
    missing_idents = result_idents(missing)
    assert len(missing_idents) == len(missing)  # cleanup emits no duplicates
    assert not (missing_idents & runtime)  # never re-emit runtime results
    reference = result_idents(reference_join(all_tuples(parts), STREAMS))
    assert runtime | missing_idents == reference
    assert merge_missing_count(parts, STREAMS) == len(missing)


class TestCleanupExecutor:
    def make_world(self):
        sim = Simulator()
        cost = CostModel()
        machines = {n: Machine(sim, n) for n in ("m1", "m2")}
        disks = {n: Disk() for n in machines}
        stores = {n: StateStore(machines[n], STREAMS) for n in machines}
        return sim, cost, machines, disks, stores

    def spill(self, store, disk, pids, now):
        for frozen in store.evict(pids):
            disk.store_segment(
                SpillSegment(
                    partition_id=frozen.pid,
                    generation=frozen.generation,
                    frozen=frozen,
                    size_bytes=frozen.size_bytes,
                    spilled_at=now,
                    machine_name=store.machine.name,
                )
            )

    def test_merges_disk_segments_with_memory_part(self):
        __, cost, __, disks, stores = self.make_world()
        store = stores["m1"]
        store.probe_insert(0, tup("A", 0, 1))
        self.spill(store, disks["m1"], [0], now=1.0)
        store.probe_insert(0, tup("B", 1, 1))
        store.probe_insert(0, tup("C", 2, 1))
        executor = CleanupExecutor(STREAMS, cost)
        memory_parts = {0: ("m1", store.state_of(0))}
        report = executor.run(disks, memory_parts, materialize=True)
        assert report.missing_results == 1
        assert report.partitions_merged == 1
        assert report.segments_merged == 1
        assert len(report.results) == 1

    def test_segments_across_machines_merge_by_pid(self):
        """A partition that spilled on m1 then relocated and spilled on m2
        still cleans up exactly once across both disks."""
        __, cost, __, disks, stores = self.make_world()
        s1, s2 = stores["m1"], stores["m2"]
        s1.probe_insert(0, tup("A", 0, 1))
        self.spill(s1, disks["m1"], [0], now=1.0)
        s2.probe_insert(0, tup("B", 1, 1))
        self.spill(s2, disks["m2"], [0], now=2.0)
        s2.probe_insert(0, tup("C", 2, 1))
        executor = CleanupExecutor(STREAMS, cost)
        report = executor.run(disks, {0: ("m2", s2.state_of(0))},
                              materialize=True)
        assert report.missing_results == 1
        assert set(report.per_machine) == {"m1", "m2"}

    def test_read_charged_to_owner_merge_to_segment_majority(self):
        """Reads are charged where the segments sit, and the merge runs on
        the machine holding most of the partition's disk bytes — the
        distribution that makes lazy-disk's cleanup parallel (§5.2)."""
        __, cost, __, disks, stores = self.make_world()
        s1 = stores["m1"]
        for seq, stream in enumerate(STREAMS):
            s1.probe_insert(0, tup(stream, seq, 1))
        self.spill(s1, disks["m1"], [0], now=1.0)
        s2 = stores["m2"]
        for seq, stream in enumerate(STREAMS):
            s2.probe_insert(0, tup(stream, 10 + seq, 1))
        executor = CleanupExecutor(STREAMS, cost)
        report = executor.run(disks, {0: ("m2", s2.state_of(0))})
        # m1 holds all of partition 0's disk bytes: it reads AND merges
        assert report.per_machine["m1"].bytes_read > 0
        assert report.per_machine["m1"].merge_duration > 0.0
        assert "m2" not in report.per_machine
        # 2 tuples/stream overall -> 8 reference results; 1 produced at run
        # time within each of the two parts -> 6 missing
        assert report.missing_results == 6

    def test_wall_duration_is_max_across_machines(self):
        __, cost, __, disks, stores = self.make_world()
        for name in ("m1", "m2"):
            store = stores[name]
            pid = 0 if name == "m1" else 1
            store.probe_insert(pid, tup("A", 0, pid))
            self.spill(store, disks[name], [pid], now=1.0)
            store.probe_insert(pid, tup("B", 1, pid))
            store.probe_insert(pid, tup("C", 2, pid))
        executor = CleanupExecutor(STREAMS, cost)
        memory_parts = {
            0: ("m1", stores["m1"].state_of(0)),
            1: ("m2", stores["m2"].state_of(1)),
        }
        report = executor.run(disks, memory_parts)
        assert report.wall_duration == max(
            mc.duration for mc in report.per_machine.values()
        )
        assert report.total_duration == pytest.approx(
            sum(mc.duration for mc in report.per_machine.values())
        )

    def test_partition_with_only_segments_and_no_memory_part(self):
        __, cost, __, disks, stores = self.make_world()
        store = stores["m1"]
        store.probe_insert(0, tup("A", 0, 1))
        store.probe_insert(0, tup("B", 1, 1))
        self.spill(store, disks["m1"], [0], now=1.0)
        executor = CleanupExecutor(STREAMS, cost)
        report = executor.run(disks, {})
        assert report.missing_results == 0  # single part: nothing missed

    def test_counting_matches_materializing(self):
        __, cost, __, disks, stores = self.make_world()
        store = stores["m1"]
        for round_ in range(3):
            for seq, stream in enumerate(STREAMS):
                store.probe_insert(0, tup(stream, round_ * 10 + seq, 1))
            if round_ < 2:
                self.spill(store, disks["m1"], [0], now=float(round_))
        executor = CleanupExecutor(STREAMS, cost)
        memory_parts = {0: ("m1", store.state_of(0))}
        counted = executor.run(disks, memory_parts).missing_results
        # rebuild the same world for the materialising pass
        __, cost2, __, disks2, stores2 = self.make_world()
        store2 = stores2["m1"]
        for round_ in range(3):
            for seq, stream in enumerate(STREAMS):
                store2.probe_insert(0, tup(stream, round_ * 10 + seq, 1))
            if round_ < 2:
                self.spill(store2, disks2["m1"], [0], now=float(round_))
        report = CleanupExecutor(STREAMS, cost2).run(
            disks2, {0: ("m1", store2.state_of(0))}, materialize=True
        )
        assert counted == len(report.results)


def test_deployment_cleanup_runs_once():
    """A second ``Deployment.cleanup`` raises, as a second ``run`` does,
    instead of charging every segment's read again and recording a second
    cleanup event."""
    dep = small_deployment(memory_threshold=20_000)
    dep.run(40)
    dep.cleanup()
    read = {name: disk.stats.bytes_read for name, disk in dep.disks.items()}
    assert all(read.values())
    with pytest.raises(RuntimeError, match="cleanup already ran"):
        dep.cleanup(materialize=True)
    assert read == {name: disk.stats.bytes_read
                    for name, disk in dep.disks.items()}
    assert dep.metrics.events.count("cleanup") == 1
