"""Unit tests for the disk model and spill-segment registry."""

import pytest

from repro.cluster.disk import Disk, SpillSegment

from tests.row_group import PartitionGroup


def make_segment(pid=1, generation=0, size=1000, spilled_at=0.0, machine="m1"):
    group = PartitionGroup(pid, ("A", "B"))
    return SpillSegment(
        partition_id=pid,
        generation=generation,
        frozen=group.freeze(),
        size_bytes=size,
        spilled_at=spilled_at,
        machine_name=machine,
    )


class TestCostModel:
    def test_write_duration_includes_seek_and_bandwidth(self):
        disk = Disk(write_bandwidth=100.0, seek_time=0.5)
        assert disk.write_duration(200) == pytest.approx(0.5 + 2.0)

    def test_read_duration(self):
        disk = Disk(read_bandwidth=50.0, seek_time=0.1)
        assert disk.read_duration(100) == pytest.approx(0.1 + 2.0)

    def test_zero_bytes_costs_only_seek(self):
        disk = Disk(seek_time=0.25)
        assert disk.write_duration(0) == pytest.approx(0.25)

    def test_negative_size_rejected(self):
        disk = Disk()
        with pytest.raises(ValueError):
            disk.write_duration(-1)
        with pytest.raises(ValueError):
            disk.read_duration(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Disk(write_bandwidth=0)
        with pytest.raises(ValueError):
            Disk(seek_time=-1)


class TestSegmentRegistry:
    def test_store_segment_charges_write_stats(self):
        disk = Disk()
        disk.store_segment(make_segment(size=500))
        assert disk.stats.bytes_written == 500
        assert disk.stats.writes == 1
        assert disk.resident_bytes == 500

    def test_segments_for_sorted_by_generation(self):
        disk = Disk()
        disk.store_segment(make_segment(pid=1, generation=2, spilled_at=20.0))
        disk.store_segment(make_segment(pid=1, generation=0, spilled_at=5.0))
        disk.store_segment(make_segment(pid=2, generation=0, spilled_at=7.0))
        generations = [s.generation for s in disk.segments_for(1)]
        assert generations == [0, 2]

    def test_partition_ids_distinct_sorted(self):
        disk = Disk()
        for pid in (5, 1, 5, 3):
            disk.store_segment(make_segment(pid=pid))
        assert disk.partition_ids() == (1, 3, 5)

    def test_take_all_segments_drains(self):
        disk = Disk()
        disk.store_segment(make_segment(pid=1))
        disk.store_segment(make_segment(pid=2))
        taken = disk.take_segments()
        assert len(taken) == 2
        assert disk.segments == ()
        assert disk.resident_bytes == 0

    def test_take_selected_partitions(self):
        disk = Disk()
        disk.store_segment(make_segment(pid=1))
        disk.store_segment(make_segment(pid=2))
        disk.store_segment(make_segment(pid=1))
        taken = disk.take_segments([1])
        assert all(s.partition_id == 1 for s in taken)
        assert len(taken) == 2
        assert disk.partition_ids() == (2,)

    def test_account_read(self):
        disk = Disk()
        disk.account_read(1234)
        assert disk.stats.bytes_read == 1234
        assert disk.stats.reads == 1

    def test_stats_merge(self):
        a = Disk()
        b = Disk()
        a.store_segment(make_segment(size=100))
        b.store_segment(make_segment(size=200))
        merged = a.stats.merge(b.stats)
        assert merged.bytes_written == 300
        assert merged.writes == 2
