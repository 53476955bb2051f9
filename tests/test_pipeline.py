"""Tests for pipelines of partitioned joins (paper footnote 2 / [15]).

The heavy check: a two-stage pipeline (A ⋈ B ⋈ C) → (⋈ D), with spills and
relocations at both stages, must produce — across run time and the
cascading cross-stage cleanup — exactly the two-level reference join,
identified by leaf-tuple provenance.
"""

from dataclasses import replace

import pytest

from repro import AdaptationConfig, StrategyName, Tracer
from repro.engine.pipeline import PipelineDeployment, PipelineStage
from repro.engine.reference import reference_join
from repro.engine.tuples import Schema
from repro.workloads import WorkloadSpec
from repro.workloads.queries import three_way_join

from tests.helpers import assert_no_violations


def second_stage_join():
    """(stage1-output) ⋈ D on the re-keyed column."""
    schemas = (
        Schema(name="stage1", key_field="k", fields=("k",)),
        Schema(name="D", key_field="k", fields=("k",)),
    )
    from repro.engine.operators.mjoin import MJoin

    return MJoin("J2", schemas)


def build_pipeline(*, strategy=StrategyName.ALL_MEMORY, threshold=10**9,
                   collect=False, seed=7, n_partitions=6,
                   assignment1=None, theta_r=0.9, tracer=None, **config_kw):
    stages = [
        PipelineStage(
            name="stage1",
            join=three_way_join(),
            workers=("m1", "m2"),
            n_partitions=n_partitions,
            key_fn=lambda r: r.key,  # stage 2 joins on the same domain
            assignment=assignment1,
        ),
        PipelineStage(
            name="stage2",
            join=second_stage_join(),
            workers=("m3",),
            n_partitions=n_partitions,
        ),
    ]
    workload = WorkloadSpec.uniform(
        n_partitions=n_partitions, join_rate=2.0, tuple_range=120,
        interarrival=0.05, seed=seed,
    )
    config = replace(AdaptationConfig(
        strategy=strategy,
        memory_threshold=threshold,
        theta_r=theta_r,
        tau_m=8.0,
        ss_interval=2.0,
        stats_interval=2.0,
        coordinator_interval=4.0,
        min_relocation_bytes=512,
    ), **config_kw)
    return PipelineDeployment(stages, workload, config,
                              collect_results=collect, tracer=tracer)


def pipeline_reference(dep):
    """Two-level brute-force reference over the external input tuples,
    identified by ((leaf idents of the stage-1 result), D ident)."""
    inputs = {}
    for source in dep.sources:
        inputs.setdefault(source.generator.stream, [])
    # inputs were generated by the sources; regenerate deterministically
    # from identical generators
    from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator

    collected = {}
    for source in dep.sources:
        gen = TupleGenerator(StreamWorkloadSpec(stream=source.generator.stream,
                                                spec=dep.workload))
        collected[source.generator.stream] = [
            t for __, t in gen.take(source.tuples_sent)
        ]
    abc = [t for s in ("A", "B", "C") for t in collected[s]]
    stage1 = reference_join(abc, ("A", "B", "C"))
    expected = set()
    d_by_key = {}
    for t in collected["D"]:
        d_by_key.setdefault(t.key, []).append(t)
    for result in stage1:
        for d in d_by_key.get(result.key, ()):  # key_fn is identity
            expected.add((result.ident, d.ident))
    return expected


def produced_identities(dep, report):
    """Final results as ((stage1 leaf idents), D ident) pairs."""
    out = set()
    for result in list(dep.collector.results) + list(report.results):
        stage1_part = next(p for p in result.parts if p.stream == "stage1")
        d_part = next(p for p in result.parts if p.stream == "D")
        out.add((stage1_part.payload[0], d_part.ident))
    return out


class TestConstruction:
    def test_stage_validation(self):
        with pytest.raises(ValueError):
            PipelineDeployment([], WorkloadSpec.uniform(n_partitions=4,
                                                        tuple_range=100),
                               AdaptationConfig())

    def test_non_terminal_needs_key_fn(self):
        stage = PipelineStage(name="s1", join=three_way_join(),
                              workers=("m1",), n_partitions=4)
        stage2 = PipelineStage(name="s2", join=second_stage_join(),
                               workers=("m2",), n_partitions=4)
        with pytest.raises(ValueError):
            PipelineDeployment(
                [stage, stage2],
                WorkloadSpec.uniform(n_partitions=4, tuple_range=100),
                AdaptationConfig(),
            )

    def test_successor_must_consume_predecessor(self):
        stage1 = PipelineStage(name="xx", join=three_way_join(),
                               workers=("m1",), n_partitions=4,
                               key_fn=lambda r: r.key)
        stage2 = PipelineStage(name="s2", join=second_stage_join(),
                               workers=("m2",), n_partitions=4)
        with pytest.raises(ValueError):
            PipelineDeployment(
                [stage1, stage2],
                WorkloadSpec.uniform(n_partitions=4, tuple_range=100),
                AdaptationConfig(),
            )

    def test_machines_cannot_be_shared_between_stages(self):
        stage1 = PipelineStage(name="stage1", join=three_way_join(),
                               workers=("m1",), n_partitions=4,
                               key_fn=lambda r: r.key)
        stage2 = PipelineStage(name="stage2", join=second_stage_join(),
                               workers=("m1",), n_partitions=4)
        with pytest.raises(ValueError):
            PipelineDeployment(
                [stage1, stage2],
                WorkloadSpec.uniform(n_partitions=4, tuple_range=100),
                AdaptationConfig(),
            )


class TestExecution:
    def test_results_flow_through_both_stages(self):
        dep = build_pipeline(collect=True)
        dep.run(duration=30, sample_interval=10)
        assert dep.stage_outputs("stage1") > 0
        assert dep.total_outputs > 0
        # terminal results combine a stage1 tuple and a D tuple
        result = dep.collector.results[0]
        assert {p.stream for p in result.parts} == {"stage1", "D"}

    def test_all_memory_pipeline_matches_reference(self):
        dep = build_pipeline(collect=True)
        dep.run(duration=30, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert report.final_missing == 0
        assert produced_identities(dep, report) == pipeline_reference(dep)

    def test_non_positive_sample_interval_rejected(self):
        # the sampling loop would otherwise never advance and spin forever
        dep = build_pipeline()
        for bad in (0, -5.0):
            with pytest.raises(ValueError,
                               match="sample_interval must be positive"):
                dep.run(duration=10, sample_interval=bad)

    def test_infinite_duration_rejected(self):
        dep = build_pipeline()
        with pytest.raises(ValueError, match="positive and finite"):
            dep.run(duration=float("inf"))

    def test_provenance_payloads_attached(self):
        dep = build_pipeline(collect=True)
        dep.run(duration=20, sample_interval=10)
        result = dep.collector.results[0]
        stage1_part = next(p for p in result.parts if p.stream == "stage1")
        prov = stage1_part.payload[0]
        assert len(prov) == 3  # one leaf ident per ABC input
        assert {s for s, __ in prov} == {"A", "B", "C"}


class TestPipelineCleanup:
    def test_exactly_once_with_spills_at_both_stages(self):
        dep = build_pipeline(strategy=StrategyName.NO_RELOCATION,
                             threshold=4_000, collect=True)
        dep.run(duration=40, sample_interval=10)
        spills = dep.metrics.events.count("spill")
        assert spills > 0
        report = dep.cleanup(materialize=True)
        assert report.final_missing == len(report.results)
        produced = produced_identities(dep, report)
        expected = pipeline_reference(dep)
        assert produced == expected, (
            f"lost {len(expected - produced)}, extra {len(produced - expected)}"
        )

    def test_exactly_once_with_relocation_and_spill(self):
        dep = build_pipeline(strategy=StrategyName.LAZY_DISK,
                             threshold=4_000, collect=True,
                             assignment1={"m1": 0.8, "m2": 0.2})
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert produced_identities(dep, report) == pipeline_reference(dep)

    def test_late_results_cascade_to_stage2(self):
        dep = build_pipeline(strategy=StrategyName.NO_RELOCATION,
                             threshold=4_000, collect=True)
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        stage1 = report.stages["stage1"]
        stage2 = report.stages["stage2"]
        assert stage1.missing_results > 0
        # the stage-2 merge saw stage-1's recovered results as late inputs
        assert stage2.late_inputs == stage1.missing_results

    def test_counting_cleanup_matches_materializing(self):
        def run(materialize):
            dep = build_pipeline(strategy=StrategyName.NO_RELOCATION,
                                 threshold=4_000, collect=materialize)
            dep.run(duration=40, sample_interval=10)
            return dep.cleanup(materialize=materialize)

        counted = run(False).final_missing
        materialized = run(True).final_missing
        assert counted == materialized

    def test_second_cleanup_raises(self):
        """The phase runs once: a second call would charge every stage's
        segment reads again and record a second cleanup per stage."""
        dep = build_pipeline(strategy=StrategyName.NO_RELOCATION,
                             threshold=4_000)
        dep.run(duration=20, sample_interval=10)
        dep.cleanup()
        read = {name: disk.stats.bytes_read
                for stage in dep.deployments.values()
                for name, disk in stage.disks.items()}
        assert any(read.values())
        with pytest.raises(RuntimeError, match="cleanup already ran"):
            dep.cleanup()
        assert read == {name: disk.stats.bytes_read
                        for stage in dep.deployments.values()
                        for name, disk in stage.disks.items()}


def skewed_spilling_pipeline(**kw):
    """LAZY_DISK with a skewed stage 1: spills and relocations at both
    stages."""
    return build_pipeline(strategy=StrategyName.LAZY_DISK, threshold=4_000,
                          collect=True, assignment1={"m1": 0.8, "m2": 0.2},
                          **kw)


class TestStageIsADeployment:
    """A stage is a namespaced Deployment, so what a single query can do
    a stage does too, with no pipeline-specific wiring."""

    def test_stages_are_namespaced(self):
        dep = build_pipeline()
        assert dep.deployments["stage1"].worker_names == ["stage1:m1",
                                                          "stage1:m2"]
        assert dep.deployments["stage2"].source_name == "stage2:source"
        assert dep.deployments["stage2"].coordinator_name == "stage2:gc"
        # the stage-1 output stream is fed by the bridge, not a generator
        assert [s.stream for s in dep.sources] == ["A", "B", "C", "D"]

    def test_repartitioning_stage_exactly_once(self):
        # groups stay small under a 4 kB threshold, so the split bounds
        # are scaled down; a spill check off the coordinator's 4 s grid
        # lets a split order find its engine idle rather than spilling
        tracer = Tracer()
        dep = skewed_spilling_pipeline(repartition_enabled=True,
                                       split_min_bytes=2_000,
                                       split_skew_factor=2.0,
                                       ss_interval=3.0, tracer=tracer)
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        events = assert_no_violations(tracer, "pipeline-repartition")
        done = [e for e in events if e.phase == "E"
                and e.name == "repartition" and e.get("status") == "done"]
        assert done, "no stage completed a repartition"
        assert produced_identities(dep, report) == pipeline_reference(dep)

    def test_checkpointing_stage_exactly_once(self):
        # the drain flushes each stage's checkpoint-held outputs before the
        # next stage's: flushed together, stage-2 outputs of stage-1's
        # late-released results would stay buffered and be lost
        dep = skewed_spilling_pipeline(checkpoint_enabled=True,
                                       checkpoint_interval=5.0)
        dep.run(duration=40, sample_interval=10)
        assert dep.metrics.events.count("checkpoint") > 0
        report = dep.cleanup(materialize=True)
        assert produced_identities(dep, report) == pipeline_reference(dep)
