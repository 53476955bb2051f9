"""Differential tests of the windowed m-way join under combined adaptation
schedules.

The unwindowed paths are differentially checked per strategy in
``test_correctness_e2e.py``; before this file, windowed runs were only
checked under spill.  Here windowed 3-way and 4-way joins run under
spill + relocation (and, with checkpointing, a crash mid-run), and
run-time ∪ cleanup results must match the windowed brute-force reference
exactly — no losses, no duplicates, no out-of-window combinations.
"""

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.engine.operators.mjoin import MJoin
from repro.engine.reference import reference_join, result_idents
from repro.engine.tuples import Schema
from repro.workloads import WorkloadSpec, three_way_join


def four_way_join(*, window=None):
    schemas = tuple(
        Schema(name=name, key_field="k", fields=("k",), tuple_size=64)
        for name in ("A", "B", "C", "D")
    )
    return MJoin("ABCD", schemas, window=window)


def build(join, *, workers=2, assignment=None, config_overrides=None, seed=7,
          **deployment_kwargs):
    overrides = dict(
        strategy=StrategyName.LAZY_DISK,
        memory_threshold=20_000,
        theta_r=0.9,
        tau_m=10.0,
        coordinator_interval=5.0,
        stats_interval=2.0,
        ss_interval=2.0,
        min_relocation_bytes=1024,
    )
    if config_overrides:
        overrides.update(config_overrides)
    return Deployment(
        join=join,
        workload=WorkloadSpec.uniform(n_partitions=8, join_rate=3.0,
                                      tuple_range=240, interarrival=0.05,
                                      seed=seed),
        workers=workers,
        config=AdaptationConfig(**overrides),
        assignment=assignment,
        collect_results=True,
        record_inputs=True,
        **deployment_kwargs,
    )


def check_against_reference(dep, report):
    runtime = result_idents(dep.collector.results)
    assert len(runtime) == len(dep.collector.results), "duplicate runtime results"
    cleanup = result_idents(report.results)
    assert len(cleanup) == len(report.results), "duplicate cleanup results"
    assert not (runtime & cleanup), "cleanup re-emitted a runtime result"
    reference = result_idents(
        reference_join(dep.source_host.inputs, dep.join.stream_names,
                       window=dep.join.window)
    )
    produced = runtime | cleanup
    assert produced == reference, (
        f"lost {len(reference - produced)}, extra {len(produced - reference)}"
    )


class TestWindowedUnderAdaptation:
    def test_windowed_spill_and_relocation(self):
        dep = build(three_way_join(window=20.0),
                    assignment={"m1": 0.8, "m2": 0.2})
        dep.run(duration=60, sample_interval=10)
        assert dep.spill_count > 0
        assert dep.relocation_count > 0
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)

    def test_four_way_windowed_spill_and_relocation(self):
        dep = build(four_way_join(window=15.0),
                    assignment={"m1": 0.8, "m2": 0.2},
                    config_overrides=dict(memory_threshold=15_000))
        dep.run(duration=50, sample_interval=10)
        assert dep.spill_count > 0
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)

    def test_windowed_spill_relocation_and_crash(self):
        dep = build(
            three_way_join(window=20.0),
            workers=3,
            assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
            config_overrides=dict(
                memory_threshold=30_000,
                checkpoint_enabled=True,
                checkpoint_interval=6.0,
                failure_timeout=5.0,
            ),
        )
        FaultSchedule([
            MachineCrash(time=25.0, engine=dep.engines["m1"]),
            MachineRestart(time=32.0, engine=dep.engines["m1"]),
        ]).arm(dep.sim)
        dep.run(duration=60, sample_interval=10)
        assert dep.engines["m1"].crashes == 1
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)
