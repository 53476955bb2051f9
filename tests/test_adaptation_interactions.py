"""Interaction edge cases between the adaptation mechanisms.

Each test pins a combination the individual suites don't cover: network
faults striking during a relocation session, whole-operator relocation
correctness, and rapid back-to-back relocations.
"""

from repro import CostModel, StrategyName
from repro.cluster.faults import FaultSchedule, NetworkDegradation
from repro.core.config import RelocationScope
from repro.engine.reference import reference_join, result_idents

from tests.helpers import small_deployment

E2E = dict(n_partitions=8, join_rate=3.0, tuple_range=240, interarrival=0.05,
           collect=True)


def check_exactly_once(dep):
    report = dep.cleanup(materialize=True)
    produced = (result_idents(dep.collector.results)
                | result_idents(report.results))
    reference = result_idents(
        reference_join(dep.source_host.inputs, dep.join.stream_names)
    )
    assert produced == reference
    return report


class TestFaultsDuringProtocol:
    def test_network_collapse_mid_session_still_exactly_once(self):
        """Drop the network to a trickle right as relocations begin: state
        transfers crawl, sessions stretch, tuples pile into split buffers —
        the answer must survive."""
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.85, "m2": 0.15},
            cost=CostModel(),
            **E2E,
        )
        FaultSchedule([
            NetworkDegradation(12.0, dep.network, bandwidth=5_000),
            NetworkDegradation(30.0, dep.network, bandwidth=125e6),
        ]).arm(dep.sim)
        dep.run(duration=45, sample_interval=10)
        assert dep.relocation_count > 0
        check_exactly_once(dep)


class TestOperatorScopeRelocation:
    def test_whole_operator_moves_remain_exactly_once(self):
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.8, "m2": 0.2},
            config_overrides=dict(
                relocation_scope=RelocationScope.OPERATOR,
                tau_m=15.0,
            ),
            **E2E,
        )
        dep.run(duration=45, sample_interval=10)
        assert dep.relocation_count > 0
        # every relocation carried the sender's whole live state
        for event in dep.metrics.events.of_kind("relocation"):
            assert len(event.details["partition_ids"]) >= 1
        check_exactly_once(dep)

    def test_operator_moves_ship_more_bytes_than_partition_moves(self):
        def moved_bytes(scope):
            dep = small_deployment(
                strategy=StrategyName.RELOCATION_ONLY,
                assignment={"m1": 0.8, "m2": 0.2},
                config_overrides=dict(relocation_scope=scope, tau_m=15.0),
                n_partitions=8, join_rate=3.0, tuple_range=240,
                interarrival=0.05,
            )
            dep.run(duration=45, sample_interval=10)
            return sum(
                e.details["bytes"]
                for e in dep.metrics.events.of_kind("relocation")
            ), dep.relocation_count

        op_bytes, op_count = moved_bytes(RelocationScope.OPERATOR)
        part_bytes, part_count = moved_bytes(RelocationScope.PARTITIONS)
        assert op_count > 0 and part_count > 0
        assert op_bytes > part_bytes


class TestRapidRelocations:
    def test_back_to_back_sessions_with_minimal_spacing(self):
        """τ_m = 1 s and a 2.5 s coordinator interval: sessions fire as fast
        as the protocol allows; each must fully complete before the next."""
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.9, "m2": 0.1},
            config_overrides=dict(tau_m=1.0, coordinator_interval=2.5,
                                  stats_interval=1.0, theta_r=0.95,
                                  min_relocation_bytes=256),
            **E2E,
        )
        dep.run(duration=45, sample_interval=10)
        assert dep.relocation_count >= 3
        events = dep.metrics.events.of_kind("relocation")
        times = [e.time for e in events]
        assert times == sorted(times)
        # sessions never overlap: GC enforces one at a time
        assert dep.coordinator.session is None or dep.coordinator.session.terminal
        check_exactly_once(dep)

    def test_relocated_partition_can_relocate_back(self):
        """Under alternating skew a partition may bounce m1->m2->m1; the
        routing tables and generations must stay coherent."""
        from repro.workloads.patterns import AlternatingPattern
        from repro.workloads.generator import WorkloadSpec

        # round-robin assignment puts even pids on m1, odd on m2 — the
        # boost groups must match for the load to actually alternate
        pattern = AlternatingPattern([{0, 2, 4, 6}, {1, 3, 5, 7}],
                                     period=12.0, factor=10.0)
        workload = WorkloadSpec.uniform(n_partitions=8, join_rate=3.0,
                                        tuple_range=240, interarrival=0.03,
                                        pattern=pattern)
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            workload=workload,
            config_overrides=dict(tau_m=5.0, coordinator_interval=2.5,
                                  stats_interval=1.0, theta_r=0.9,
                                  min_relocation_bytes=256),
            collect=True,
        )
        dep.run(duration=60, sample_interval=10)
        moved = [
            pid
            for e in dep.metrics.events.of_kind("relocation")
            for pid in e.details["partition_ids"]
        ]
        assert dep.relocation_count >= 2
        # at least one partition moved more than once (bounced)
        assert any(moved.count(pid) >= 2 for pid in set(moved)) or len(moved) > 8
        check_exactly_once(dep)
