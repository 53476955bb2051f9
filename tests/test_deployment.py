"""Integration tests: full deployments per strategy on the simulated cluster."""

import pytest

from repro import StrategyName
from repro.engine.operators.split import PartitionMap

from tests.helpers import small_deployment


class TestLifecycle:
    def test_run_produces_outputs_and_series(self):
        dep = small_deployment(strategy=StrategyName.ALL_MEMORY)
        dep.run(duration=30, sample_interval=10)
        assert dep.total_outputs > 0
        series = dep.output_series()
        assert len(series) >= 4
        assert series.values[-1] == dep.total_outputs
        for worker in dep.worker_names:
            assert len(dep.memory_series(worker)) == len(series)

    def test_run_twice_rejected(self):
        dep = small_deployment()
        dep.run(duration=10, sample_interval=5)
        with pytest.raises(RuntimeError):
            dep.run(duration=10, sample_interval=5)

    def test_invalid_run_args(self):
        dep = small_deployment()
        with pytest.raises(ValueError):
            dep.run(duration=0)
        with pytest.raises(ValueError):
            dep.run(duration=10, sample_interval=0)

    def test_worker_name_validation(self):
        with pytest.raises(ValueError):
            small_deployment(workers=["m1", "m1"])
        with pytest.raises(ValueError):
            small_deployment(workers=["source"])
        with pytest.raises(ValueError):
            small_deployment(workers=0)

    def test_unknown_data_path_rejected(self):
        from repro.engine.query_engine import DATA_PATHS, check_data_path

        assert [check_data_path(name) for name in DATA_PATHS] == list(DATA_PATHS)
        with pytest.raises(ValueError, match="unknown data path 'rows'"):
            small_deployment(data_path="rows")

    def test_int_workers_named_m1_m2(self):
        dep = small_deployment(workers=3)
        assert dep.worker_names == ["m1", "m2", "m3"]

    def test_assignment_weights_respected(self):
        dep = small_deployment(workers=["m1", "m2"],
                               assignment={"m1": 0.75, "m2": 0.25},
                               n_partitions=12)
        assert len(dep.initial_map.partitions_of("m1")) == 9
        assert len(dep.initial_map.partitions_of("m2")) == 3

    def test_unknown_assignment_machine_rejected(self):
        with pytest.raises(ValueError):
            small_deployment(workers=["m1"], assignment={"ghost": 1.0})

    def test_explicit_partition_map_sets_partition_count(self):
        # the map, not the 8-partition workload, sizes the splits
        dep = small_deployment(workers=["m1", "m2"], n_partitions=8,
                               assignment=PartitionMap.round_robin(
                                   4, ["m1", "m2"]))
        assert {s.n_partitions for s in dep.splits.values()} == {4}
        dep.run(duration=10, sample_interval=5)
        assert dep.total_outputs > 0
        routed = {pid for inst in dep.instances.values()
                  for pid in inst.store.partition_ids()}
        assert routed == {0, 1, 2, 3}

    def test_explicit_partition_map_unknown_worker_rejected(self):
        with pytest.raises(ValueError, match="unknown workers"):
            small_deployment(workers=["m1", "m2"],
                             assignment=PartitionMap.round_robin(
                                 4, ["m1", "m9"]))


class TestStrategyBehaviour:
    def test_all_memory_never_adapts(self):
        dep = small_deployment(strategy=StrategyName.ALL_MEMORY,
                               memory_threshold=1_000)
        dep.run(duration=40, sample_interval=10)
        assert dep.spill_count == 0
        assert dep.relocation_count == 0
        assert dep.spilled_bytes() == 0

    def test_no_relocation_spills_locally(self):
        dep = small_deployment(strategy=StrategyName.NO_RELOCATION,
                               memory_threshold=10_000)
        dep.run(duration=60, sample_interval=10)
        assert dep.spill_count > 0
        assert dep.relocation_count == 0
        assert dep.spilled_bytes() > 0

    def test_relocation_only_never_spills(self):
        dep = small_deployment(strategy=StrategyName.RELOCATION_ONLY,
                               assignment={"m1": 0.8, "m2": 0.2})
        dep.run(duration=60, sample_interval=10)
        assert dep.spill_count == 0
        assert dep.relocation_count > 0
        assert dep.spilled_bytes() == 0

    def test_lazy_disk_does_both_under_pressure(self):
        dep = small_deployment(strategy=StrategyName.LAZY_DISK,
                               assignment={"m1": 0.8, "m2": 0.2},
                               memory_threshold=15_000)
        dep.run(duration=60, sample_interval=10)
        assert dep.relocation_count > 0
        assert dep.spill_count > 0

    def test_spill_controls_memory_below_runaway(self):
        threshold = 15_000
        spilling = small_deployment(strategy=StrategyName.NO_RELOCATION,
                                    memory_threshold=threshold)
        spilling.run(duration=60, sample_interval=5)
        unbounded = small_deployment(strategy=StrategyName.ALL_MEMORY,
                                     memory_threshold=threshold)
        unbounded.run(duration=60, sample_interval=5)
        for worker in spilling.worker_names:
            assert (spilling.memory_series(worker).max()
                    < unbounded.memory_series(worker).max())

    def test_relocation_balances_memory(self):
        """With a skewed initial assignment, relocation narrows the gap
        between the fullest and emptiest machine."""
        def final_imbalance(strategy):
            dep = small_deployment(strategy=strategy,
                                   assignment={"m1": 0.85, "m2": 0.15})
            dep.run(duration=90, sample_interval=15)
            sizes = [dep.instances[w].store.total_bytes
                     for w in dep.worker_names]
            return max(sizes) / max(1, min(sizes))

        skewed = final_imbalance(StrategyName.ALL_MEMORY)
        balanced = final_imbalance(StrategyName.RELOCATION_ONLY)
        assert balanced < skewed

    def test_relocated_state_is_live_not_on_disk(self):
        dep = small_deployment(strategy=StrategyName.RELOCATION_ONLY,
                               assignment={"m1": 0.8, "m2": 0.2})
        dep.run(duration=60, sample_interval=10)
        assert dep.relocation_count > 0
        total_live = dep.total_state_bytes()
        assert total_live > 0
        assert dep.spilled_bytes() == 0

    def test_relocation_events_carry_details(self):
        dep = small_deployment(strategy=StrategyName.RELOCATION_ONLY,
                               assignment={"m1": 0.8, "m2": 0.2})
        dep.run(duration=60, sample_interval=10)
        events = dep.metrics.events.of_kind("relocation")
        assert events
        for event in events:
            assert event.details["bytes"] > 0
            assert event.details["receiver"] in dep.worker_names
            assert event.machine in dep.worker_names
            assert event.details["partition_ids"]


class TestMemoryInvariant:
    def test_store_bytes_equals_machine_memory(self):
        """Accounting invariant: every worker's machine.memory_used equals
        its store's total at quiescence (no other allocators here)."""
        dep = small_deployment(strategy=StrategyName.LAZY_DISK,
                               assignment={"m1": 0.8, "m2": 0.2},
                               memory_threshold=15_000)
        dep.run(duration=60, sample_interval=10)
        for worker in dep.worker_names:
            machine = dep.machines[worker]
            store = dep.instances[worker].store
            assert machine.memory_used == store.total_bytes

    def test_group_sizes_sum_to_store_total(self):
        dep = small_deployment(strategy=StrategyName.LAZY_DISK,
                               memory_threshold=15_000)
        dep.run(duration=45, sample_interval=15)
        for worker in dep.worker_names:
            store = dep.instances[worker].store
            assert sum(g.size_bytes for g in store.groups()) == store.total_bytes


class TestStatsAndNetwork:
    def test_control_traffic_is_light(self):
        """The paper's scalability claim: coordinator traffic is a sliver of
        data traffic."""
        dep = small_deployment(strategy=StrategyName.LAZY_DISK)
        dep.run(duration=60, sample_interval=10)
        stats = dep.network.stats
        assert stats.control_bytes < 0.05 * stats.bytes_sent

    def test_queue_and_disk_series_sampled(self):
        dep = small_deployment(memory_threshold=15_000)
        dep.run(duration=30, sample_interval=10)
        for worker in dep.worker_names:
            assert dep.metrics.registry.has_timeseries(f"queue:{worker}")
            assert dep.metrics.registry.has_timeseries(f"disk:{worker}")

    def test_cleanup_event_recorded(self):
        dep = small_deployment(memory_threshold=10_000)
        dep.run(duration=45, sample_interval=15)
        dep.cleanup()
        assert dep.metrics.events.count("cleanup") == 1
