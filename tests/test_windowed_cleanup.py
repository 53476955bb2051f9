"""Windowed joins under spill: the cleanup merge must respect the window.

Without window filtering the cleanup delta would join tuples that were
never within the window of each other, over-producing results.  These
tests run a windowed join with spills and compare against the windowed
reference oracle.
"""

from repro import AdaptationConfig, Deployment, StrategyName
from repro.core.cleanup import merge_missing
from repro.engine.columns import ColumnarPartitionGroup
from repro.engine.reference import reference_join, result_idents
from repro.engine.tuples import StreamTuple
from repro.workloads import WorkloadSpec, three_way_join

STREAMS = ("A", "B", "C")


def merge_missing_results(parts, streams, *, window=None):
    return merge_missing(parts, streams, window=window, materialize=True)[1]


class TestWindowedMerge:
    def build_parts(self, arrivals_per_part):
        parts = []
        seq = 0
        for gen, arrivals in enumerate(arrivals_per_part):
            group = ColumnarPartitionGroup(0, STREAMS, generation=gen)
            for stream, key, ts in arrivals:
                group.insert(StreamTuple(stream=stream, seq=seq, key=key,
                                         ts=ts))
                seq += 1
            parts.append(group.freeze())
        return parts

    def test_window_filters_cross_part_combos(self):
        parts = self.build_parts([
            [("A", 1, 0.0)],
            [("B", 1, 2.0), ("C", 1, 100.0)],
        ])
        unwindowed = merge_missing_results(parts, STREAMS)
        windowed = merge_missing_results(parts, STREAMS, window=10.0)
        assert len(unwindowed) == 1  # A x B x C ignoring time
        assert windowed == []  # C is 100s away from A

    def test_window_keeps_close_combos(self):
        parts = self.build_parts([
            [("A", 1, 0.0)],
            [("B", 1, 2.0), ("C", 1, 4.0)],
        ])
        windowed = merge_missing_results(parts, STREAMS, window=10.0)
        assert len(windowed) == 1


class TestWindowedDeploymentCleanup:
    def run_windowed(self, window=20.0):
        dep = Deployment(
            join=three_way_join(window=window),
            workload=WorkloadSpec.uniform(n_partitions=8, join_rate=3.0,
                                          tuple_range=240, interarrival=0.05),
            workers=["m1"],
            config=AdaptationConfig(
                strategy=StrategyName.NO_RELOCATION,
                memory_threshold=6_000,
                ss_interval=2.0,
            ),
            collect_results=True,
            record_inputs=True,
        )
        dep.run(duration=60, sample_interval=10)
        return dep

    def test_exactly_once_windowed_with_spill(self):
        dep = self.run_windowed()
        assert dep.spill_count > 0
        report = dep.cleanup(materialize=True)
        produced = (result_idents(dep.collector.results)
                    | result_idents(report.results))
        reference = result_idents(
            reference_join(dep.source_host.inputs, dep.join.stream_names,
                           window=dep.join.window)
        )
        assert produced == reference

    def test_counting_cleanup_equals_materializing_for_windows(self):
        dep_a = self.run_windowed()
        counted = dep_a.cleanup().missing_results
        dep_b = self.run_windowed()
        materialized = dep_b.cleanup(materialize=True)
        assert counted == len(materialized.results)

    def test_window_reduces_cleanup_volume(self):
        windowed = self.run_windowed(window=5.0).cleanup().missing_results
        wide = self.run_windowed(window=1000.0).cleanup().missing_results
        assert windowed < wide
