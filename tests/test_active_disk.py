"""Deployment-level behaviour of the active-disk strategy (§5.3-5.4)."""

from repro import StrategyName
from repro.workloads.generator import PartitionWorkload, WorkloadSpec

from tests.helpers import small_deployment


def productivity_skewed_workload(n_partitions=9, hot_rate=4.0, cold_rate=1.0,
                                 tuple_range=240, interarrival=0.03):
    """First third of partitions hot, rest cold (the Fig 13 shape)."""
    third = n_partitions // 3
    parts = tuple(
        PartitionWorkload(
            pid=pid,
            join_rate=hot_rate if pid < third else cold_rate,
            tuple_range=tuple_range,
        )
        for pid in range(n_partitions)
    )
    return WorkloadSpec(n_partitions=n_partitions, partitions=parts,
                        interarrival=interarrival)


def run_active(**overrides):
    config = dict(
        lambda_productivity=1.5,
        forced_spill_cap=50_000,
        forced_spill_pressure=0.3,
    )
    config.update(overrides.pop("config_overrides", {}))
    dep = small_deployment(
        strategy=StrategyName.ACTIVE_DISK,
        workers=["m1", "m2", "m3"],
        assignment={"m1": 1 / 3, "m2": 1 / 3, "m3": 1 / 3},
        memory_threshold=overrides.pop("memory_threshold", 9_000),
        workload=productivity_skewed_workload(),
        config_overrides=config,
        **overrides,
    )
    dep.run(duration=60, sample_interval=10)
    return dep


class TestForcedSpills:
    def test_forced_spills_target_low_productivity_machines(self):
        dep = run_active()
        forced = dep.metrics.events.of_kind("forced_spill")
        assert forced, "no forced spill happened"
        # m1 initially owns the hot partitions, so the *first* forced spill
        # must hit one of the cold machines.  (Later relocations may move
        # hot partitions off m1, legitimately making it the coldest.)
        first = min(forced, key=lambda e: e.time)
        assert first.machine in ("m2", "m3"), first.machine

    def test_forced_bytes_respect_cap(self):
        cap = 20_000
        dep = run_active(config_overrides=dict(lambda_productivity=1.2,
                                               forced_spill_cap=cap,
                                               forced_spill_pressure=0.1))
        assert dep.coordinator.stats.forced_spill_bytes <= cap + 10_000, (
            "cumulative forced volume far exceeded the cap"
        )

    def test_forced_spill_events_distinguished_from_local(self):
        dep = run_active()
        kinds = {e.kind for e in dep.metrics.events}
        assert "forced_spill" in kinds
        for event in dep.metrics.events.of_kind("forced_spill"):
            assert event.details["bytes"] > 0

    def test_no_pressure_means_no_forced_spills(self):
        dep = run_active(memory_threshold=10**8,
                         config_overrides=dict(forced_spill_pressure=0.9))
        assert dep.metrics.events.count("forced_spill") == 0


class TestActiveVsLazyThroughput:
    def test_active_disk_outperforms_lazy_under_productivity_skew(self):
        def total(strategy):
            dep = small_deployment(
                strategy=strategy,
                workers=["m1", "m2", "m3"],
                assignment={"m1": 1 / 3, "m2": 1 / 3, "m3": 1 / 3},
                memory_threshold=7_000,
                workload=productivity_skewed_workload(interarrival=0.02),
                config_overrides=dict(lambda_productivity=1.5,
                                      forced_spill_cap=60_000,
                                      forced_spill_pressure=0.3),
            )
            dep.run(duration=120, sample_interval=20)
            return dep.total_outputs

        active = total(StrategyName.ACTIVE_DISK)
        lazy = total(StrategyName.LAZY_DISK)
        assert active > lazy, f"active={active} lazy={lazy}"
