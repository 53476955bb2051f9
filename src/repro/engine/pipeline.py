"""Pipelines of partitioned stateful operators (paper footnote 2, [15]).

The paper focuses on a single partitioned m-way join but notes that "trees
of such operators, each with its own join columns, can be naturally
supported", citing the authors' SIGMOD'06 work [15] on spill
*interdependencies* along a pipeline.  This module supplies that support:

* :class:`PipelineStage` — one partitioned m-way join with its own join
  column, worker set, partition count and initial placement.  A
  non-terminal stage declares a ``key_fn`` that re-keys its results for
  the next stage's join column.
* :class:`StageBridge` — the glue between stages: it converts a stage's
  :class:`~repro.engine.tuples.JoinResult` objects into input tuples of
  the next stage (carrying their *provenance* — the leaf tuple identities
  — in the payload, so exactly-once can be verified end to end) and ships
  them over the network to the next stage's split host.
* :class:`PipelineDeployment` — wires stages onto the shared simulated
  cluster.  Every stage has its own splits, query engines, local
  controllers and adaptation coordinator, so spill and relocation operate
  per stage exactly as in the single-operator deployment.
* :meth:`PipelineDeployment.cleanup` — the cross-stage cleanup: stages are
  cleaned in topological order, and each stage's recovered results are fed
  into its successor's merge as one extra *late part*.  Because a late
  part holds tuples of a single input stream, it can never join within
  itself, so the standard mixed-combination delta produces exactly the
  missing results — the same argument as for spilled segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.cluster.disk import Disk
from repro.cluster.machine import Machine
from repro.obs.hub import ObsHub
from repro.cluster.network import Network
from repro.cluster.simulation import Simulator
from repro.core.cleanup import merge_missing_count, merge_missing_results
from repro.core.config import AdaptationConfig, CostModel
from repro.core.coordinator import GlobalCoordinator
from repro.core.strategies import profile_of, trace_strategy
from repro.engine.columns import ColumnarPartitionGroup, FrozenColumnGroup
from repro.engine.operators.mjoin import MJoin
from repro.engine.operators.split import PartitionMap, Split
from repro.engine.query_engine import QueryEngine, SourceHost
from repro.engine.streams import OutputCollector, StreamSource
from repro.engine.tuples import JoinResult, StreamTuple
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator, WorkloadSpec


@dataclass(frozen=True)
class PipelineStage:
    """Specification of one pipeline stage.

    Parameters
    ----------
    name:
        Stage name; also the stream name its results carry downstream.
    join:
        The stage's m-way join.  For stages after the first, exactly one
        input stream must be named after the previous stage (that input is
        fed by the bridge); the remaining inputs are external streams.
    workers:
        Machines hosting this stage's join instances.
    n_partitions:
        Hash partitions of this stage's split operators.
    key_fn:
        Re-keying function applied to this stage's results before they
        enter the next stage (``None`` for the terminal stage).  It
        receives the :class:`JoinResult` and returns the next join-column
        value.
    assignment:
        Optional initial placement weights over ``workers``.
    result_size:
        Accounted size in bytes of one result shipped downstream.
    """

    name: str
    join: MJoin
    workers: tuple[str, ...]
    n_partitions: int
    key_fn: Callable[[JoinResult], int] | None = None
    assignment: Mapping[str, float] | None = None
    result_size: int = 64


class StageBridge:
    """Collector-compatible sink that feeds the next stage.

    Converts materialised results into next-stage input tuples (provenance
    in the payload) and ships them from the producing worker to the next
    stage's split host.
    """

    def __init__(
        self,
        network: Network,
        *,
        stream_name: str,
        next_host: str,
        key_fn: Callable[[JoinResult], int],
        result_size: int,
        provenance_streams: frozenset[str] = frozenset(),
    ) -> None:
        self.network = network
        self.stream_name = stream_name
        self.next_host = next_host
        self.key_fn = key_fn
        self.result_size = result_size
        #: input streams that are themselves pipeline outputs: their
        #: tuples carry flattened leaf provenance in payload[0], which is
        #: folded into this bridge's provenance so identity stays
        #: end-to-end verifiable across any pipeline depth
        self.provenance_streams = provenance_streams
        self.total = 0
        self.forwarded = 0
        self._seq = 0

    def _provenance(self, result: JoinResult) -> tuple:
        """Flattened leaf-tuple identities of one result."""
        leaves: list = []
        for part in result.parts:
            if part.stream in self.provenance_streams and part.payload:
                leaves.extend(part.payload[0])
            else:
                leaves.append(part.ident)
        return tuple(leaves)

    def convert(self, result: JoinResult, now: float) -> StreamTuple:
        """Build the downstream tuple for one result (provenance payload)."""
        tup = StreamTuple(
            stream=self.stream_name,
            seq=self._seq,
            key=self.key_fn(result),
            ts=now,
            size=self.result_size,
            payload=(self._provenance(result),),
        )
        self._seq += 1
        return tup

    def add(self, count: int, results: list[JoinResult], now: float,
            source: str | None = None) -> None:
        self.total += count
        if not results:
            return
        if source is None:
            raise ValueError("a stage bridge needs the producing machine")
        batch = [self.convert(r, now) for r in results]
        self.forwarded += len(batch)
        src = source
        self.network.send(
            src, self.next_host, "ingest",
            {"stream": self.stream_name, "tuples": batch},
            sum(t.size for t in batch),
        )


@dataclass
class StageCleanup:
    """Per-stage cleanup accounting within a pipeline cleanup."""

    stage: str
    missing_results: int = 0
    partitions_merged: int = 0
    late_inputs: int = 0


@dataclass
class PipelineCleanupReport:
    """Outcome of a full cross-stage cleanup."""

    stages: dict[str, StageCleanup] = field(default_factory=dict)
    final_missing: int = 0
    results: list[JoinResult] = field(default_factory=list)


class PipelineDeployment:
    """A linear pipeline of partitioned m-way joins on one simulated cluster.

    Stage *i*'s results stream into stage *i+1* through a
    :class:`StageBridge`; the terminal stage feeds an
    :class:`~repro.engine.streams.OutputCollector`.  Each stage gets its
    own split host (``source_<stage>``) and adaptation coordinator
    (``gc_<stage>``); adaptation decisions are per-stage, matching the
    paper's per-operator state organisation.
    """

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        workload: WorkloadSpec,
        config: AdaptationConfig,
        *,
        cost: CostModel | None = None,
        batch_size: int = 25,
        collect_results: bool = False,
        record_inputs: bool = False,
        seed: int = 11,
        tracer=None,
        ledger=None,
    ) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        for stage in stages[:-1]:
            if stage.key_fn is None:
                raise ValueError(f"non-terminal stage {stage.name!r} needs key_fn")
        for prev, nxt in zip(stages, stages[1:]):
            if prev.name not in nxt.join.stream_names:
                raise ValueError(
                    f"stage {nxt.name!r} has no input named {prev.name!r}"
                )
        self.stages = list(stages)
        self.workload = workload
        self.config = config
        self.cost = cost or CostModel()
        self.profile = profile_of(config)

        self.sim = Simulator()
        self.metrics = ObsHub()
        self.metrics.registry.bind_clock(lambda: self.sim.now)
        if tracer is not None:
            self.metrics.tracer = tracer
            tracer.bind_clock(lambda: self.sim.now)
            trace_strategy(tracer, config)
        if ledger is not None:
            self.metrics.ledger = ledger
            ledger.bind_clock(lambda: self.sim.now)
        self.network = Network(
            self.sim,
            latency=self.cost.network_latency,
            bandwidth=self.cost.network_bandwidth,
        )

        capacity = None  # soft limits only; thresholds drive adaptation
        self.machines: dict[str, Machine] = {}
        self.disks: dict[str, Disk] = {}
        self.instances: dict[str, dict[str, object]] = {}
        self.engines: dict[str, dict[str, QueryEngine]] = {}
        self.splits: dict[str, dict[str, Split]] = {}
        self.hosts: dict[str, SourceHost] = {}
        self.coordinators: dict[str, GlobalCoordinator] = {}
        self.bridges: dict[str, StageBridge] = {}
        self.collector = OutputCollector(collect=collect_results)
        self.sources: list[StreamSource] = []
        self._record_inputs = record_inputs
        self.external_inputs: list[StreamTuple] = []

        pipeline_streams = {s.name for s in self.stages}
        for idx, stage in enumerate(self.stages):
            host_name = f"source_{stage.name}"
            gc_name = f"gc_{stage.name}"
            terminal = idx == len(self.stages) - 1

            for worker in stage.workers:
                if worker in self.machines:
                    raise ValueError(f"machine {worker!r} used by two stages")
                self.machines[worker] = Machine(self.sim, worker,
                                                memory_capacity=capacity)
                self.disks[worker] = Disk(
                    write_bandwidth=self.cost.disk_write_bandwidth,
                    read_bandwidth=self.cost.disk_read_bandwidth,
                    seek_time=self.cost.disk_seek_time,
                )
            if stage.assignment is None:
                base_map = PartitionMap.round_robin(stage.n_partitions,
                                                    list(stage.workers))
            else:
                base_map = PartitionMap.weighted(stage.n_partitions,
                                                 dict(stage.assignment))
            if self.metrics.tracer.enabled:
                for worker in stage.workers:
                    self.metrics.tracer.event(
                        "deploy.assignment",
                        machine=worker,
                        stage=stage.name,
                        pids=tuple(sorted(base_map.partitions_of(worker))),
                    )
            stage_splits = {
                stream: Split(f"split_{stage.name}_{stream}",
                              stage.n_partitions, base_map.copy())
                for stream in stage.join.stream_names
            }
            self.splits[stage.name] = stage_splits
            host_machine = Machine(self.sim, host_name)
            host = SourceHost(
                self.sim, self.network, host_machine, stage_splits,
                self.cost, self.metrics, coordinator_name=gc_name,
                record_inputs=False,
            )
            self.hosts[stage.name] = host

            if terminal:
                sink = self.collector
            else:
                nxt = self.stages[idx + 1]
                parents = {s.name for s in self.stages[:idx]}
                sink = StageBridge(
                    self.network,
                    stream_name=stage.name,
                    next_host=f"source_{nxt.name}",
                    key_fn=stage.key_fn,
                    result_size=stage.result_size,
                    provenance_streams=frozenset(
                        parents & set(stage.join.stream_names)
                    ),
                )
                self.bridges[stage.name] = sink

            stage_instances = {}
            stage_engines = {}
            for j, worker in enumerate(stage.workers):
                instance = stage.join.make_instance(self.machines[worker])
                stage_instances[worker] = instance
                stage_engines[worker] = QueryEngine(
                    self.sim, self.network, self.machines[worker],
                    self.disks[worker], instance, config, self.cost,
                    self.metrics, sink, coordinator_name=gc_name,
                    materialize=(not terminal) or collect_results,
                    seed=seed + idx * 100 + j,
                )
            self.instances[stage.name] = stage_instances
            self.engines[stage.name] = stage_engines
            self.coordinators[stage.name] = GlobalCoordinator(
                self.sim, self.network, self.metrics, config, self.cost,
                workers=list(stage.workers), split_hosts=[host_name],
                name=gc_name,
            )

            # external stream sources for inputs not fed by a parent stage
            for stream in stage.join.stream_names:
                if stream in pipeline_streams:
                    continue
                generator = TupleGenerator(
                    StreamWorkloadSpec(stream=stream, spec=workload)
                )
                self.sources.append(
                    StreamSource(self.sim, generator, host,
                                 batch_size=batch_size)
                )

        # allow bridges to deliver into downstream hosts: SourceHost must
        # accept "ingest" messages — patched in via the handler below.
        for stage_name, host in self.hosts.items():
            host._on_ingest = _make_ingest_handler(host, self)  # type: ignore[attr-defined]

        self._started = False
        self._finished = False
        self.metrics.registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry) -> None:
        """Pull-collector: gather every stage component's counters."""
        registry.counter(
            "repro_outputs_total", help="Final-stage results collected"
        ).set_total(self.collector.total)
        self.network.publish_metrics(registry)
        for coordinator in self.coordinators.values():
            coordinator.publish_metrics(registry)
        for host in self.hosts.values():
            host.publish_metrics(registry)
        for stage_engines in self.engines.values():
            for engine in stage_engines.values():
                engine.publish_metrics(registry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float, *, sample_interval: float = 30.0) -> None:
        """Run the pipeline for ``duration`` simulated seconds + drain."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self._finished:
            raise RuntimeError("pipeline already ran; build a fresh one")
        for source in self.sources:
            source.stop_at = duration
        if not self._started:
            self._started = True
            for stage_engines in self.engines.values():
                for engine in stage_engines.values():
                    engine.start()
            for coordinator in self.coordinators.values():
                coordinator.start()
            for source in self.sources:
                source.start()
        t = 0.0
        self._sample()
        while t < duration:
            t = min(t + sample_interval, duration)
            self.sim.run(until=t)
            self._sample()
        for stage_engines in self.engines.values():
            for engine in stage_engines.values():
                engine.stop()
        for coordinator in self.coordinators.values():
            coordinator.stop()
        for source in self.sources:
            source.stop()
        self.sim.run()
        self._sample()
        self._finished = True

    def _sample(self) -> None:
        now = self.sim.now
        self.metrics.registry.sample(now, "outputs", self.collector.total)
        for stage in self.stages:
            for worker in stage.workers:
                store = self.instances[stage.name][worker].store
                self.metrics.registry.sample(now, f"memory:{worker}", store.total_bytes)

    @property
    def total_outputs(self) -> int:
        """Final-stage results produced during the run-time phase."""
        return self.collector.total

    def stage_outputs(self, stage_name: str) -> int:
        """Results a non-terminal stage produced (run-time phase)."""
        return self.bridges[stage_name].total

    # ------------------------------------------------------------------
    # Cross-stage cleanup
    # ------------------------------------------------------------------
    def cleanup(self, *, materialize: bool = False) -> PipelineCleanupReport:
        """Clean stages in topological order, cascading late results.

        Stage *k*'s missing results (from its own spilled segments *and*
        from late inputs delivered by stage *k−1*'s cleanup) are converted
        and appended as one extra part to stage *k+1*'s per-partition merge.
        The terminal stage's missing results are the pipeline's.
        """
        report = PipelineCleanupReport()
        late_tuples: list[StreamTuple] = []
        for idx, stage in enumerate(self.stages):
            terminal = idx == len(self.stages) - 1
            # results we must materialise to cascade them (always for
            # non-terminal stages; caller's choice at the terminal one)
            need_results = (not terminal) or materialize
            missing = self._cleanup_stage(stage, late_tuples, need_results)
            stage_report = StageCleanup(
                stage=stage.name,
                missing_results=(len(missing) if need_results else missing),
                late_inputs=len(late_tuples),
            )
            report.stages[stage.name] = stage_report
            if terminal:
                if need_results:
                    report.final_missing = len(missing)
                    report.results = missing
                else:
                    report.final_missing = missing
            else:
                bridge = self.bridges[stage.name]
                late_tuples = [bridge.convert(r, self.sim.now) for r in missing]
        return report

    def _cleanup_stage(self, stage: PipelineStage,
                       late_inputs: list[StreamTuple], need_results: bool):
        """Merge one stage's disk segments + memory + late part per pid."""
        streams = stage.join.stream_names
        split = next(iter(self.splits[stage.name].values()))
        # gather parts per partition ID
        segments_by_pid: dict[int, list] = {}
        for worker in stage.workers:
            for segment in self.disks[worker].segments:
                segments_by_pid.setdefault(segment.partition_id, []).append(segment)
        late_by_pid: dict[int, list[StreamTuple]] = {}
        for tup in late_inputs:
            late_by_pid.setdefault(split.route(tup.key), []).append(tup)
        memory_by_pid: dict[int, FrozenColumnGroup] = {}
        for worker in stage.workers:
            for group in self.instances[stage.name][worker].store.groups():
                if group.tuple_count > 0:
                    memory_by_pid[group.pid] = group.freeze()

        pids = sorted(set(segments_by_pid) | set(late_by_pid))
        tracer = self.metrics.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin_span("cleanup", stage=stage.name)
        total = 0
        collected: list[JoinResult] = []
        for pid in pids:
            parts: list[FrozenColumnGroup] = []
            segs = sorted(segments_by_pid.get(pid, ()),
                          key=lambda s: (s.spilled_at, s.generation))
            parts.extend(s.frozen for s in segs)
            if pid in memory_by_pid:
                parts.append(memory_by_pid[pid])
            late = late_by_pid.get(pid)
            if late:
                late_group = ColumnarPartitionGroup(pid, streams)
                for tup in late:
                    late_group.insert(tup)
                parts.append(late_group.freeze())
            if len(parts) < 2:
                if span:
                    tracer.event(
                        "cleanup.skip", span=span, pid=pid,
                        stage=stage.name, segments=len(segs),
                    )
                continue
            window = stage.join.window
            if need_results:
                found = merge_missing_results(parts, streams, window=window)
                count = len(found)
                collected.extend(found)
            elif window is not None:
                count = len(
                    merge_missing_results(parts, streams, window=window)
                )
                total += count
            else:
                count = merge_missing_count(parts, streams)
                total += count
            if span:
                tracer.event(
                    "cleanup.merge", span=span, pid=pid, stage=stage.name,
                    segments=len(segs), parts=len(parts), results=count,
                )
        if span:
            tracer.end_span(
                span, results=(len(collected) if need_results else total)
            )
        return collected if need_results else total


def _make_ingest_handler(host: SourceHost, deployment: PipelineDeployment):
    """Build the ``ingest`` message handler for a stage's split host.

    Bridge deliveries arrive over the network (kind ``ingest``) rather
    than through the local :meth:`SourceHost.inject` call used by stream
    sources; the handler simply re-enters the normal inject path.
    """

    def _on_ingest(message) -> None:
        payload = message.payload
        host.inject(payload["stream"], payload["tuples"])

    return _on_ingest
