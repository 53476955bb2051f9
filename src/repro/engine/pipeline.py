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
* :class:`PipelineDeployment` — one namespaced
  :class:`~repro.engine.plan.Deployment` per stage on a shared simulator,
  network and observability hub, so spill, relocation, repartitioning and
  checkpointing operate per stage exactly as in a single query.
* :meth:`PipelineDeployment.cleanup` — the cross-stage cleanup: stages are
  cleaned in topological order, and each stage's recovered results are fed
  into its successor's merge as one extra *late part*.  Because a late
  part holds tuples of a single input stream, it can never join within
  itself, so the standard mixed-combination delta produces exactly the
  missing results — the same argument as for spilled segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.cluster.network import Network
from repro.cluster.simulation import Simulator
from repro.core.config import AdaptationConfig, CostModel
from repro.core.strategies import trace_strategy
from repro.engine.operators.mjoin import MJoin
from repro.engine.operators.split import PartitionMap
from repro.engine.plan import SOURCE_NAME, Deployment
from repro.engine.tuples import JoinResult, StreamTuple
from repro.obs.hub import ObsHub
from repro.workloads.generator import WorkloadSpec


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
        self.network.send(
            source, self.next_host, "ingest",
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

    Every stage is a :class:`~repro.engine.plan.Deployment` under the
    namespace ``"<stage>:"`` (machines ``<stage>:m1``, split host
    ``<stage>:source``, coordinator ``<stage>:gc``), all on one shared
    simulator, network and observability hub.  Stage *i*'s results stream
    into stage *i+1* through a :class:`StageBridge` — stage *i*'s
    collector; the terminal stage's collector is the pipeline's.
    Adaptation, checkpointing and repartitioning are per stage, exactly as
    for a single query.
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
        named = [w for stage in stages for w in stage.workers]
        shared = sorted({w for w in named if named.count(w) > 1})
        if shared:
            raise ValueError(f"machines {shared!r} used by two stages")
        self.stages = list(stages)
        self.workload = workload
        self.config = config
        self.cost = cost or CostModel()

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

        self.deployments: dict[str, Deployment] = {}
        self.bridges: dict[str, StageBridge] = {}
        pipeline_streams = {s.name for s in self.stages}
        for idx, stage in enumerate(self.stages):
            namespace = f"{stage.name}:"
            bridge = None
            if idx + 1 < len(self.stages):
                parents = {s.name for s in self.stages[:idx]}
                bridge = self.bridges[stage.name] = StageBridge(
                    self.network,
                    stream_name=stage.name,
                    next_host=f"{self.stages[idx + 1].name}:{SOURCE_NAME}",
                    key_fn=stage.key_fn,
                    result_size=stage.result_size,
                    provenance_streams=frozenset(
                        parents & set(stage.join.stream_names)
                    ),
                )
            workers = [namespace + w for w in stage.workers]
            if stage.assignment is None:
                base_map = PartitionMap.round_robin(stage.n_partitions, workers)
            else:
                base_map = PartitionMap.weighted(
                    stage.n_partitions,
                    {namespace + w: weight
                     for w, weight in stage.assignment.items()},
                )
            dep = Deployment(
                stage.join, workload, list(stage.workers), config,
                cost=self.cost, assignment=base_map, batch_size=batch_size,
                collect_results=collect_results, seed=seed + idx * 100,
                sim=self.sim, network=self.network, metrics=self.metrics,
                namespace=namespace, collector=bridge,
                metric_labels={"stage": stage.name},
            )
            # an input named after an upstream stage arrives through that
            # stage's bridge, not from a generator
            dep.sources = [s for s in dep.sources
                           if s.stream not in pipeline_streams]
            self.deployments[stage.name] = dep
        self.collector = dep.collector
        self.sources = [s for d in self.deployments.values() for s in d.sources]
        self._finished = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float, *, sample_interval: float = 30.0) -> None:
        """Run the pipeline for ``duration`` simulated seconds + drain."""
        if not 0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not sample_interval > 0:
            raise ValueError("sample_interval must be positive")
        if self._finished:
            raise RuntimeError("pipeline already ran; build a fresh one")
        stages = list(self.deployments.values())
        for dep in stages:
            dep.launch(duration)
        t = self.sim.now
        end = t + duration
        while t < end:
            t = min(t + sample_interval, end)
            self.sim.run(until=t)
            self._sample()
        for dep in stages:
            dep.stop_components()
        self.sim.run()
        if self.config.checkpoint_enabled:
            # outputs a stage releases travel on and wait behind the next
            # stage's checkpoint: flush and drain one stage at a time
            for dep in stages:
                dep.flush_outputs()
                self.sim.run()
        self._sample()
        self._finished = True

    def _sample(self) -> None:
        for dep in self.deployments.values():
            dep.sample()

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
        by its bridge and handed to stage *k+1*'s
        :meth:`~repro.engine.plan.Deployment.cleanup` as late input.  The
        terminal stage's missing results are the pipeline's.  Like a
        stage's, the phase runs once: a second call raises
        ``RuntimeError``.
        """
        report = PipelineCleanupReport()
        late: list[StreamTuple] = []
        for name, dep in self.deployments.items():
            bridge = self.bridges.get(name)
            # a stage that cascades must materialise what it recovers
            found = dep.cleanup(materialize=materialize or bridge is not None,
                                late=late)
            report.stages[name] = StageCleanup(
                stage=name,
                missing_results=found.missing_results,
                partitions_merged=found.partitions_merged,
                late_inputs=len(late),
            )
            if bridge is not None:
                late = [bridge.convert(r, self.sim.now) for r in found.results]
        report.final_missing = found.missing_results
        report.results = found.results
        return report
