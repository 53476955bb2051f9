#!/usr/bin/env python
"""Two-stage join pipeline — trees of partitioned operators (footnote 2).

A market-surveillance flavour of the paper's integration scenario:

* **Stage 1** joins three order streams A ⋈ B ⋈ C on the instrument key
  (matching orders across venues);
* **Stage 2** joins stage 1's matches with a reference stream D (e.g.
  instrument master data), re-keyed on the same domain.

Each stage is a full deployment of its own — split operators, query
engines, adaptation coordinator — under the stage's name prefix, so spills
and relocations happen per stage.  The interesting part is the **cross-stage
cleanup**: results that stage 1 recovers from disk after the run are fed
into stage 2's merge as a *late part*, so the pipeline's final answer is
complete and duplicate-free even though both stages spilled.

Run:  python examples/pipeline_integration.py
"""

from repro import AdaptationConfig, PipelineDeployment, PipelineStage, StrategyName
from repro.engine.operators.mjoin import MJoin
from repro.engine.tuples import Schema
from repro.workloads import WorkloadSpec, three_way_join


def main(duration: float = 240.0) -> None:
    stage2_join = MJoin(
        "enrich",
        (
            Schema(name="orders", key_field="k", fields=("k",)),
            Schema(name="D", key_field="k", fields=("k",)),
        ),
    )
    stages = [
        PipelineStage(
            name="orders",                    # A ⋈ B ⋈ C
            join=three_way_join(),
            workers=("m1", "m2"),
            n_partitions=12,
            key_fn=lambda r: r.key,           # stage 2 joins on the same key
            assignment={"m1": 0.7, "m2": 0.3},
        ),
        PipelineStage(
            name="enriched",                  # orders ⋈ D
            join=stage2_join,
            workers=("m3",),
            n_partitions=12,
        ),
    ]
    workload = WorkloadSpec.uniform(
        n_partitions=12, join_rate=1.0, tuple_range=4_000, interarrival=0.03,
    )
    config = AdaptationConfig(
        strategy=StrategyName.LAZY_DISK,
        memory_threshold=150_000,
        theta_r=0.8,
        tau_m=20.0,
        ss_interval=5.0,
    )
    pipeline = PipelineDeployment(stages, workload, config)

    print(f"running the 2-stage pipeline for {duration:g} simulated seconds ...")
    pipeline.run(duration=duration, sample_interval=60)

    print(f"\nstage-1 matches produced   : {pipeline.stage_outputs('orders'):,}")
    print(f"final enriched results     : {pipeline.total_outputs:,}")
    spills = pipeline.metrics.events.count("spill")
    relocs = pipeline.metrics.events.count("relocation")
    print(f"spills / relocations       : {spills} / {relocs}")

    report = pipeline.cleanup()
    stage1 = report.stages["orders"]
    stage2 = report.stages["enriched"]
    print("\ncross-stage cleanup:")
    print(f"  stage 1 recovered {stage1.missing_results:,} matches from disk")
    print(f"  stage 2 merged them as {stage2.late_inputs:,} late inputs "
          f"and recovered {report.final_missing:,} final results")
    print(f"\ncomplete pipeline answer: "
          f"{pipeline.total_outputs + report.final_missing:,} results "
          "(exactly once)")


if __name__ == "__main__":
    main()
