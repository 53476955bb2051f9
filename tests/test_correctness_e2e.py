"""End-to-end exactly-once correctness under every adaptation strategy.

The paper's requirement: "we need accurate query results and thus cannot
afford to lose financial data" — no result may be lost, duplicated, or
corrupted by any schedule of spills and relocations.  These tests run full
deployments in materialising mode and compare run-time ∪ cleanup results
against the brute-force reference join over exactly the generated inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StrategyName
from repro.engine.reference import reference_join, result_idents

from tests.helpers import small_deployment


def run_and_check(dep, duration=50):
    """Run a collecting deployment and assert the exactly-once contract."""
    dep.run(duration=duration, sample_interval=10)
    report = dep.cleanup(materialize=True)
    runtime = result_idents(dep.collector.results)
    assert len(runtime) == len(dep.collector.results), "duplicate runtime results"
    cleanup = result_idents(report.results)
    assert len(cleanup) == len(report.results), "duplicate cleanup results"
    assert not (runtime & cleanup), "cleanup re-emitted a runtime result"
    reference = result_idents(
        reference_join(dep.source_host.inputs, dep.join.stream_names)
    )
    produced = runtime | cleanup
    assert produced == reference, (
        f"lost {len(reference - produced)}, extra {len(produced - reference)}"
    )
    return dep, report


# keep e2e scales small: ~1000 tuples/stream, modest fan-out
E2E = dict(n_partitions=8, join_rate=3.0, tuple_range=240, interarrival=0.05,
           collect=True)


class TestExactlyOncePerStrategy:
    def test_all_memory_matches_reference(self):
        dep, report = run_and_check(
            small_deployment(strategy=StrategyName.ALL_MEMORY, **E2E)
        )
        assert report.missing_results == 0

    def test_spill_only(self):
        dep, report = run_and_check(
            small_deployment(strategy=StrategyName.NO_RELOCATION,
                             memory_threshold=10_000, **E2E)
        )
        assert dep.spill_count > 0
        assert report.missing_results > 0

    def test_relocation_only(self):
        dep, report = run_and_check(
            small_deployment(strategy=StrategyName.RELOCATION_ONLY,
                             assignment={"m1": 0.8, "m2": 0.2}, **E2E)
        )
        assert dep.relocation_count > 0
        # relocation alone loses nothing to disk
        assert report.missing_results == 0

    def test_lazy_disk_spills_and_relocates(self):
        dep, report = run_and_check(
            small_deployment(strategy=StrategyName.LAZY_DISK,
                             assignment={"m1": 0.8, "m2": 0.2},
                             memory_threshold=10_000, **E2E)
        )
        assert dep.relocation_count > 0
        assert dep.spill_count > 0

    def test_active_disk(self):
        dep, report = run_and_check(
            small_deployment(
                strategy=StrategyName.ACTIVE_DISK,
                assignment={"m1": 0.7, "m2": 0.3},
                memory_threshold=12_000,
                config_overrides=dict(lambda_productivity=1.5,
                                      forced_spill_cap=100_000,
                                      forced_spill_pressure=0.2),
                workload=None,
                **E2E,
            )
        )
        assert dep.spill_count > 0

    def test_three_workers_with_heavy_skew(self):
        run_and_check(
            small_deployment(strategy=StrategyName.LAZY_DISK, workers=3,
                             assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
                             memory_threshold=8_000, **E2E)
        )


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 1_000),
    threshold=st.sampled_from([6_000, 12_000, 25_000]),
    skew=st.sampled_from([0.5, 0.7, 0.9]),
)
def test_exactly_once_random_schedules(seed, threshold, skew):
    """Property: exactly-once holds across random seeds, thresholds and
    initial skews (which vary the spill/relocation interleavings)."""
    dep = small_deployment(
        strategy=StrategyName.LAZY_DISK,
        assignment={"m1": skew, "m2": round(1 - skew, 3)},
        memory_threshold=threshold,
        seed=seed,
        n_partitions=8,
        join_rate=3.0,
        tuple_range=200,
        interarrival=0.06,
        collect=True,
    )
    run_and_check(dep, duration=45)


class TestSplitBufferingDuringRelocation:
    def test_buffered_tuples_are_not_lost(self):
        """Tuples arriving mid-relocation are buffered and replayed; the
        reference comparison above already proves it, but this checks the
        buffering machinery actually engaged."""
        from repro import CostModel

        # slow fabric: a bulk state transfer takes ~seconds, so arrivals at
        # 20 ms spacing reliably land inside the pause window.  The join
        # rate is kept moderate — this test materialises every result, and
        # an aggressive multiplicative factor would balloon memory.
        slow_net = CostModel(network_bandwidth=20_000,
                             serialize_cost_per_byte=2e-6)
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.85, "m2": 0.15},
            n_partitions=8, join_rate=2.0, tuple_range=300,
            interarrival=0.02,  # fast arrivals -> tuples land mid-protocol
            collect=True,
            cost=slow_net,
        )
        dep.run(duration=45, sample_interval=10)
        assert dep.relocation_count > 0
        buffered = sum(s.buffered_total for s in dep.splits.values())
        assert buffered > 0, "no tuple was ever buffered mid-relocation"
        report = dep.cleanup(materialize=True)
        produced = result_idents(dep.collector.results) | result_idents(report.results)
        reference = result_idents(
            reference_join(dep.source_host.inputs, dep.join.stream_names)
        )
        assert produced == reference
