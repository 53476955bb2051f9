"""Tests for fault injection, including correctness under perturbation."""

import pytest

from repro import StrategyName
from repro.cluster.faults import CpuSlowdown, FaultSchedule, NetworkDegradation
from repro.cluster.machine import Task
from repro.cluster.network import Network
from repro.engine.reference import reference_join, result_idents

from tests.helpers import small_deployment


class TestCpuSlowdown:
    def test_slowdown_scales_future_tasks(self, sim, machine):
        starts = []
        FaultSchedule([CpuSlowdown(5.0, machine, 0.5)]).arm(sim)
        sim.run(until=5.0)
        machine.submit(Task(2.0, lambda: starts.append(sim.now)))
        machine.submit(Task(1.0, lambda: starts.append(sim.now)))
        sim.run()
        # first task takes 2/0.5 = 4s at half speed
        assert starts == [5.0, 9.0]

    def test_validation(self, sim, machine):
        with pytest.raises(ValueError):
            CpuSlowdown(0.0, machine, 0.0)

    def test_describe(self, sim, machine):
        fault = CpuSlowdown(60.0, machine, 0.5)
        assert "m1" in fault.describe()


class TestNetworkDegradation:
    def test_bandwidth_change_applies_at_time(self, sim):
        net = Network(sim, latency=0.0, bandwidth=100.0)
        arrivals = []
        net.register("b", lambda m: arrivals.append(sim.now))
        FaultSchedule([NetworkDegradation(10.0, net, bandwidth=10.0)]).arm(sim)
        net.send("a", "b", "data", None, 100)  # 1s at 100 B/s
        sim.run(until=10.0)
        net.send("a", "b", "data", None, 100)  # 10s at 10 B/s
        sim.run()
        assert arrivals == [pytest.approx(1.0), pytest.approx(20.0)]

    def test_latency_change(self, sim):
        net = Network(sim, latency=0.1, bandwidth=1e9)
        NetworkDegradation(0.0, net, latency=2.0).apply()
        assert net.latency == 2.0

    def test_validation(self, sim):
        net = Network(sim)
        with pytest.raises(ValueError):
            NetworkDegradation(0.0, net)
        with pytest.raises(ValueError):
            NetworkDegradation(0.0, net, bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkDegradation(0.0, net, latency=-1.0)


class TestFaultSchedule:
    def test_faults_fire_in_time_order(self, sim, machine):
        schedule = FaultSchedule([
            CpuSlowdown(20.0, machine, 2.0),
            CpuSlowdown(10.0, machine, 0.5),
        ])
        schedule.arm(sim)
        sim.run()
        assert len(schedule.applied) == 2
        assert "x0.5" in schedule.applied[0]

    def test_arm_is_idempotent(self, sim, machine):
        schedule = FaultSchedule([CpuSlowdown(1.0, machine, 0.5)])
        schedule.arm(sim)
        schedule.arm(sim)
        sim.run()
        assert machine.cpu_speed == 0.5  # applied once, not twice


class TestCorrectnessUnderFaults:
    def test_exactly_once_with_mid_run_slowdown_and_congestion(self):
        """A machine slows to 40% and the network drops to 1% bandwidth
        mid-run; spills and relocations continue; the answer is intact."""
        dep = small_deployment(
            strategy=StrategyName.LAZY_DISK,
            assignment={"m1": 0.8, "m2": 0.2},
            memory_threshold=10_000,
            n_partitions=8, join_rate=3.0, tuple_range=240,
            interarrival=0.05, collect=True,
        )
        FaultSchedule([
            CpuSlowdown(15.0, dep.machines["m1"], 0.4),
            NetworkDegradation(20.0, dep.network, bandwidth=1.25e6),
            CpuSlowdown(35.0, dep.machines["m1"], 2.5),  # recovery
        ]).arm(dep.sim)
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        produced = (result_idents(dep.collector.results)
                    | result_idents(report.results))
        reference = result_idents(
            reference_join(dep.source_host.inputs, dep.join.stream_names)
        )
        assert produced == reference

    def test_slow_machine_accumulates_queue(self):
        dep = small_deployment(strategy=StrategyName.ALL_MEMORY,
                               n_partitions=8, join_rate=4.0,
                               tuple_range=240, interarrival=0.01)
        FaultSchedule([CpuSlowdown(5.0, dep.machines["m1"], 0.01)]).arm(dep.sim)
        # run without drain to observe the backlog while input still flows
        for source in dep.sources:
            source.stop_at = 30.0
        for engine in dep.engines.values():
            engine.start()
        dep.coordinator.start()
        for source in dep.sources:
            source.start()
        dep.sim.run(until=30.0)
        assert dep.machines["m1"].queue_depth > 0
