"""Unit tests for stream sources and the output collector."""

import pytest

from repro import StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash
from repro.cluster.simulation import Simulator
from repro.engine.operators.base import Operator
from repro.engine.streams import OutputCollector, StreamSource
from repro.engine.tuples import ArrivalBatch, JoinResult, StreamTuple
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator, WorkloadSpec

from tests.helpers import small_deployment


class KeepEven(Operator):
    """A downstream operator that passes results with an even key."""

    def process(self, item):
        return [item] if item.key % 2 == 0 else []


class RecordingHost:
    """Minimal stand-in for a SourceHost."""

    def __init__(self):
        self.batches = []
        self.raw = []  # the batch objects exactly as handed over

    def inject(self, stream, batch):
        self.raw.append(batch)
        self.batches.append((stream, list(batch)))


def make_source(sim, *, batch_size=5, interarrival=0.1, stop_at=None):
    spec = WorkloadSpec.uniform(n_partitions=4, join_rate=2.0,
                                tuple_range=100, interarrival=interarrival)
    generator = TupleGenerator(StreamWorkloadSpec(stream="A", spec=spec))
    host = RecordingHost()
    source = StreamSource(sim, generator, host, batch_size=batch_size,
                          stop_at=stop_at)
    return source, host


class TestStreamSource:
    def test_batches_delivered_at_last_arrival_time(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=5, interarrival=0.1)
        source.start()
        sim.run(until=0.5)
        assert len(host.batches) == 1
        assert sim.now == 0.5
        stream, batch = host.batches[0]
        assert stream == "A"
        assert len(batch) == 5

    def test_stop_at_truncates_final_batch(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=10, interarrival=0.1,
                                   stop_at=0.75)
        source.start()
        sim.run()
        total = sum(len(b) for __, b in host.batches)
        assert total == 7  # arrivals at .1 .. .7
        assert source.tuples_sent == 7
        # the first late arrival was drawn, then discarded
        assert source.generator.tuples_generated == 8

    def test_stop_prevents_further_batches(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=2, interarrival=0.1)
        source.start()
        sim.run(until=0.2)
        source.stop()
        sim.run(until=5.0)
        assert sum(len(b) for __, b in host.batches) <= 4

    def test_start_is_idempotent(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=2, interarrival=0.1,
                                   stop_at=0.4)
        source.start()
        source.start()
        sim.run()
        seqs = [t.seq for __, b in host.batches for t in b]
        assert seqs == sorted(set(seqs))  # no duplicated arrivals

    def test_stop_at_set_before_start_is_honoured(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=2, interarrival=0.1)
        source.stop_at = 0.35  # how plan.launch / pipeline.run arm it
        source.start()
        sim.run()
        assert source.tuples_sent == 3
        assert source._stopped

    def test_stop_at_cannot_change_after_start(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=2, interarrival=0.1,
                                   stop_at=0.4)
        source.start()
        source.stop_at = 0.4  # re-arming with the same value is a no-op
        with pytest.raises(RuntimeError):
            source.stop_at = 5.0
        sim.run()
        assert source.tuples_sent == 4

    def test_invalid_batch_size(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            make_source(sim, batch_size=0)

    def test_tuples_carry_generator_stream_name(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=3, stop_at=0.3)
        assert source.stream == "A"
        source.start()
        sim.run()
        assert all(t.stream == "A" for __, b in host.batches for t in b)


class TestArrivalBatchHandOff:
    """The source hands the host columns; rows exist only if asked for."""

    def test_host_receives_sized_batches_equal_to_take(self):
        sim = Simulator()
        source, host = make_source(sim, batch_size=4, stop_at=1.05)
        source.start()
        sim.run()
        batches = host.raw
        assert [len(b) for b in batches] == [4, 4, 2]
        assert all(isinstance(b, ArrivalBatch) for b in batches)
        fresh, __ = make_source(Simulator())
        expected = [tup for __, tup in fresh.generator.take(10)]
        assert [tup for b in batches for tup in b] == expected

    def test_columnar_hot_path_builds_no_stream_tuples(self, monkeypatch):
        """A run with no pause, no replay log and count-only probes never
        constructs a ``StreamTuple``."""
        built = []
        init = StreamTuple.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        dep = small_deployment(strategy=StrategyName.ALL_MEMORY,
                               n_partitions=8, join_rate=3.0,
                               tuple_range=240, interarrival=0.05)
        monkeypatch.setattr(StreamTuple, "__init__", counting_init)
        dep.run(duration=20, sample_interval=10)
        monkeypatch.undo()
        assert dep.source_host.tuples_routed == 1200
        assert dep.total_outputs > 0
        assert len(built) == 0

    @pytest.mark.parametrize("crash", [False, True])
    def test_checkpointed_columnar_source_boxes_only_what_it_replays(
            self, monkeypatch, crash):
        """With the replay log on, the column route still builds no
        ``StreamTuple``: the log keeps column references and trims them by
        identity.  A crash boxes exactly the suffix it replays (plus the
        rows the splits buffered while the partitions were paused)."""
        built = []
        init = StreamTuple.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        dep = small_deployment(workers=2, n_partitions=8, join_rate=3.0,
                               tuple_range=240, interarrival=0.05,
                               memory_threshold=10**7,
                               config_overrides=dict(
                                   checkpoint_enabled=True,
                                   checkpoint_interval=2.0,
                                   failure_timeout=5.0,
                               ))
        if crash:
            FaultSchedule([
                MachineCrash(time=11.0, engine=dep.engines["m2"]),
            ]).arm(dep.sim)
        monkeypatch.setattr(StreamTuple, "__init__", counting_init)
        dep.run(duration=21, sample_interval=10)
        monkeypatch.undo()
        host = dep.source_host
        assert host.tuples_routed == 1260 and host.trimmed_total > 630
        if crash:
            buffered = sum(s.buffered_total for s in dep.splits.values())
            assert host.replayed_total > 0 and buffered > 0
            assert len(built) == host.replayed_total + buffered
        else:
            assert dep.checkpoint_count == 20
            assert len(built) == 0


class TestOutputCollector:
    def make_result(self, key=1, seq=0):
        part = StreamTuple(stream="A", seq=seq, key=key, ts=0.0)
        return JoinResult(key=key, parts=(part,), ts=0.0)

    def test_counts_without_collecting(self):
        collector = OutputCollector()
        collector.add(5, [], now=1.0)
        collector.add(3, [], now=2.0)
        assert collector.total == 8
        assert collector.results == []

    def test_collects_when_enabled(self):
        collector = OutputCollector(collect=True)
        result = self.make_result()
        collector.add(1, [result], now=1.0)
        assert collector.results == [result]

    def test_downstream_chain_applied_per_result(self):
        collector = OutputCollector(downstream=[KeepEven("even")])
        collector.add(2, [self.make_result(key=2), self.make_result(key=3)],
                      now=1.0)
        assert len(collector.downstream_outputs) == 1
        assert collector.downstream_outputs[0].key == 2

    def test_source_parameter_is_accepted_and_ignored(self):
        collector = OutputCollector()
        collector.add(1, [], now=0.0, source="m1")
        assert collector.total == 1
