"""Three-stage pipeline: provenance and cleanup cascade through two hops.

(A ⋈ B ⋈ C) → (⋈ D) → (⋈ E): stage-1 cleanup results become stage-2 late
inputs, whose recovered results become stage-3 late inputs.  Identity is
tracked end-to-end via flattened leaf provenance.
"""

from repro import (
    AdaptationConfig,
    PipelineDeployment,
    PipelineStage,
    StrategyName,
    Tracer,
)

from tests.helpers import assert_no_violations
from repro.engine.operators.mjoin import MJoin
from repro.engine.reference import reference_join
from repro.engine.tuples import Schema
from repro.workloads import WorkloadSpec
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator
from repro.workloads.queries import three_way_join


def enrich_join(name, upstream, other):
    schemas = (
        Schema(name=upstream, key_field="k", fields=("k",)),
        Schema(name=other, key_field="k", fields=("k",)),
    )
    return MJoin(name, schemas)


def build(*, strategy=StrategyName.ALL_MEMORY, threshold=10**9,
          tracer=None):
    stages = [
        PipelineStage(name="s1", join=three_way_join(), workers=("m1",),
                      n_partitions=4, key_fn=lambda r: r.key),
        PipelineStage(name="s2", join=enrich_join("j2", "s1", "D"),
                      workers=("m2",), n_partitions=4,
                      key_fn=lambda r: r.key),
        PipelineStage(name="s3", join=enrich_join("j3", "s2", "E"),
                      workers=("m3",), n_partitions=4),
    ]
    workload = WorkloadSpec.uniform(n_partitions=4, join_rate=1.5,
                                    tuple_range=90, interarrival=0.08)
    config = AdaptationConfig(
        strategy=strategy, memory_threshold=threshold,
        ss_interval=2.0, stats_interval=2.0, coordinator_interval=4.0,
    )
    return PipelineDeployment(stages, workload, config,
                              collect_results=True, tracer=tracer)


def regenerate_inputs(dep):
    collected = {}
    for source in dep.sources:
        gen = TupleGenerator(
            StreamWorkloadSpec(stream=source.generator.stream,
                               spec=dep.workload)
        )
        collected[source.generator.stream] = [
            t for __, t in gen.take(source.tuples_sent)
        ]
    return collected


def three_level_reference(dep):
    """Expected final identities: (a, b, c, d idents ...) + e ident."""
    inputs = regenerate_inputs(dep)
    abc = [t for s in ("A", "B", "C") for t in inputs[s]]
    stage1 = reference_join(abc, ("A", "B", "C"))
    by_key = {}
    for t in inputs["D"]:
        by_key.setdefault(t.key, []).append(t)
    stage2 = []
    for r1 in stage1:
        for d in by_key.get(r1.key, ()):  # identity re-keying
            stage2.append((r1.ident + (d.ident,), r1.key))
    e_by_key = {}
    for t in inputs["E"]:
        e_by_key.setdefault(t.key, []).append(t)
    expected = set()
    for prov, key in stage2:
        for e in e_by_key.get(key, ()):
            expected.add((prov, e.ident))
    return expected


def produced(dep, report):
    out = set()
    for result in list(dep.collector.results) + list(report.results):
        s2_part = next(p for p in result.parts if p.stream == "s2")
        e_part = next(p for p in result.parts if p.stream == "E")
        out.add((s2_part.payload[0], e_part.ident))
    return out


class TestThreeStages:
    def test_all_memory_matches_three_level_reference(self):
        dep = build()
        dep.run(duration=30, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert report.final_missing == 0
        assert produced(dep, report) == three_level_reference(dep)

    def test_flattened_provenance_reaches_stage3(self):
        dep = build()
        dep.run(duration=30, sample_interval=10)
        result = dep.collector.results[0]
        s2_part = next(p for p in result.parts if p.stream == "s2")
        prov = s2_part.payload[0]
        # four leaves: one per A/B/C/D input
        assert len(prov) == 4
        assert {s for s, __ in prov} == {"A", "B", "C", "D"}

    def test_exactly_once_with_spills_in_all_three_stages(self):
        dep = build(strategy=StrategyName.NO_RELOCATION, threshold=2_500)
        dep.run(duration=40, sample_interval=10)
        spill_machines = {e.machine for e in dep.metrics.events.of_kind("spill")}
        assert len(spill_machines) >= 2, "spills did not hit multiple stages"
        report = dep.cleanup(materialize=True)
        assert produced(dep, report) == three_level_reference(dep)

    def test_cascade_accounting(self):
        dep = build(strategy=StrategyName.NO_RELOCATION, threshold=2_500)
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        s1 = report.stages["s1"]
        s2 = report.stages["s2"]
        s3 = report.stages["s3"]
        assert s2.late_inputs == s1.missing_results
        assert s3.late_inputs == s2.missing_results
        assert report.final_missing == s3.missing_results


class TestPipelineTracing:
    def test_spill_spans_cover_multiple_stages(self):
        """Traced pipeline run: spill spans appear on machines of at
        least two different stages, cleanup reconciles every stage's
        spills, and no invariant breaks across the cascade."""
        tracer = Tracer()
        dep = build(strategy=StrategyName.NO_RELOCATION, threshold=2_500,
                    tracer=tracer)
        dep.run(duration=40, sample_interval=10)
        dep.cleanup(materialize=True)
        events = assert_no_violations(tracer, "pipeline-spills")
        # a stage's machines are namespaced "<stage>:<worker>"
        spill_stages = {e.machine.partition(":")[0] for e in events
                        if e.name == "spill" and e.phase == "B"}
        assert len(spill_stages) >= 2, "spill spans did not hit 2+ stages"
        merge_stages = {e.get("stage") for e in events
                        if e.name == "cleanup.merge"}
        assert len(merge_stages) >= 2

    def test_stage_relocation_steps_ordered(self):
        """A skewed two-worker stage relocates via its own coordinator;
        the per-stage trace shows the 8 protocol steps in order."""
        stages = [
            PipelineStage(name="s1", join=three_way_join(),
                          workers=("m1", "m1b"), n_partitions=8,
                          key_fn=lambda r: r.key,
                          assignment={"m1": 0.8, "m1b": 0.2}),
            PipelineStage(name="s2", join=enrich_join("j2", "s1", "D"),
                          workers=("m2",), n_partitions=4),
        ]
        workload = WorkloadSpec.uniform(n_partitions=8, join_rate=2.0,
                                        tuple_range=120, interarrival=0.05)
        config = AdaptationConfig(
            strategy=StrategyName.LAZY_DISK, memory_threshold=6_000,
            theta_r=0.9, tau_m=10.0, min_relocation_bytes=1024,
            ss_interval=2.0, stats_interval=2.0, coordinator_interval=4.0,
        )
        tracer = Tracer()
        dep = PipelineDeployment(stages, workload, config,
                                 collect_results=True, tracer=tracer)
        dep.run(duration=40, sample_interval=10)
        dep.cleanup(materialize=True)
        events = assert_no_violations(tracer, "pipeline-relocation")
        done = [e.span for e in events
                if e.phase == "E" and e.name == "relocation"
                and e.get("status") == "done"]
        assert done, "skewed stage completed no relocation"
        for span in done:
            steps = [e.get("step") for e in events
                     if e.name == "relocation.step" and e.span == span]
            assert steps == list(range(1, 9))
