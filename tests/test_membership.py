"""Elastic cluster membership: runtime scale-out/scale-in.

Covers the layers bottom-up:

* the simulator-kernel hardening that makes 100+-machine elastic runs
  viable — the ``run(until, max_events)`` final-clock-advance fix and the
  cancelled-event heap compaction (timer churn from hundreds of engines
  must not leak);
* the failure detector's incarnation discipline — a stale heartbeat from
  a dead machine's previous life must not resurrect it;
* coordinator membership: ``admit_worker`` / ``drain_worker`` validation,
  rebalance-on-join, the drain protocol (operator-scope cptv + owned-pid
  sweep + the standard 8-step relocation), and its decision-ledger trail;
* edge cases: join during an in-flight relocation, a drain racing a
  crash of the same machine, rejoin under a fresh incarnation;
* exactly-once oracle parity (plain and windowed joins) under
  join/drain/crash perturbation schedules;
* the acceptance scenario: a seeded rolling restart over every machine
  produces the identical result set as a static cluster, with invariant
  check 10 and offline ledger replay passing.
"""

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer, check_trace
from repro.cluster.faults import (
    FaultSchedule,
    MachineCrash,
    MachineDrain,
    MachineJoin,
    MachineRestart,
)
from repro.cluster.network import Network
from repro.cluster.simulation import Simulator, Timer
from repro.core.config import CostModel
from repro.core.coordinator import DRAIN_TIMEOUT
from repro.engine.reference import (
    reference_join,
    reference_join_count,
    result_idents,
)
from repro.obs.hub import ObsHub
from repro.obs.invariants import InvariantChecker
from repro.obs.ledger import DecisionLedger, verify_replay
from repro.obs.trace import PHASE_INSTANT, TraceEvent
from repro.recovery import CheckpointStore, RecoveryManager
from repro.workloads import (
    RollingRestart,
    WorkloadSpec,
    diurnal_pattern,
    membership_schedule,
    three_way_join,
)

from tests.helpers import (
    assert_no_violations,
    assert_rules_replay,
    small_deployment,
)
from tests.test_recovery import assert_exactly_once


# ----------------------------------------------------------------------
# Simulator kernel hardening
# ----------------------------------------------------------------------


class TestRunMaxEventsClock:
    def test_max_events_stop_still_advances_to_until(self, sim):
        """The original bug: stopping on ``max_events`` skipped the final
        clock advance, leaving ``now`` at the last event although nothing
        remained before ``until``."""
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=10.0, max_events=2)
        assert sim.now == 10.0

    def test_max_events_stop_never_advances_past_pending_work(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(5.0, fired.append, "c")
        sim.run(until=10.0, max_events=2)
        # an unprocessed event at t=5 forbids jumping to t=10: the clock
        # would travel backwards on the next step
        assert fired == ["a", "b"]
        assert sim.now == 2.0
        sim.run(until=10.0)
        assert fired == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_max_events_without_until_keeps_event_clock(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(4.0, lambda: None)
        sim.run(max_events=1)
        assert sim.now == 1.0


class TestCancelledEventCompaction:
    def test_pending_is_exact_under_cancellation(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(8)]
        for event in events[:5]:
            event.cancel()
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_mass_cancellation_compacts_the_heap(self, sim):
        fired = []
        events = [
            sim.schedule(float(i + 1), fired.append, i) for i in range(200)
        ]
        for event in events[:150]:
            event.cancel()
        assert sim.compactions >= 1
        assert len(sim._heap) < 150  # cancelled entries physically removed
        assert sum(event.cancelled for _, _, event in sim._heap) == (
            len(sim._heap) - 50)  # ... and the rest are the live ones
        assert sim.pending == 50
        sim.run()
        assert fired == list(range(150, 200))  # order preserved

    def test_timer_churn_does_not_leak_heap_entries(self, sim):
        """Hundreds of engines resetting stats/ss timers must not grow the
        calendar queue with dead events (the 100+-machine scale killer)."""
        timer = Timer(sim, 10.0, lambda: None)
        for _ in range(500):
            timer.reset()
        # pre-fix: 501 entries (500 cancelled); post-fix: bounded
        assert len(sim._heap) < 150
        assert sum(not event.cancelled for _, _, event in sim._heap) == 1
        assert sim.pending == 1
        assert sim.compactions >= 1
        timer.stop()
        assert sim.pending == 0

    def test_small_heaps_are_left_alone(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for event in events[:9]:
            event.cancel()
        assert sim.compactions == 0  # below the compaction floor
        assert sim.pending == 1

    def test_cancel_after_fire_is_a_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending == 0


# ----------------------------------------------------------------------
# Failure-detector incarnation discipline
# ----------------------------------------------------------------------


def make_recovery_manager(workers=("m1", "m2")):
    sim = Simulator()
    manager = RecoveryManager(
        sim,
        Network(sim),
        ObsHub(),
        CheckpointStore(),
        AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            checkpoint_enabled=True,
            stats_interval=2.0,
            failure_timeout=5.0,
        ),
        CostModel(),
        workers=list(workers),
        split_hosts=["source"],
    )
    return sim, manager


class TestDetectorIncarnations:
    def test_stale_heartbeat_does_not_resurrect_dead_machine(self):
        """The fixed bug: a pre-crash heartbeat delayed in the network
        still carries the old incarnation; treating it as a rejoin routed
        live traffic to a machine whose state was already re-homed."""
        sim, manager = make_recovery_manager()
        manager.dead.add("m2")
        manager._incarnations["m2"] = 1
        manager.note_report("m2", now=10.0, incarnation=1)
        assert "m2" in manager.dead
        assert manager.metrics.events.count("stale_heartbeat") == 1
        assert manager.metrics.events.count("rejoin") == 0

    def test_strictly_newer_incarnation_rejoins(self):
        sim, manager = make_recovery_manager()
        manager.dead.add("m2")
        manager._incarnations["m2"] = 1
        manager.note_report("m2", now=10.0, incarnation=2)
        assert "m2" not in manager.dead
        assert manager._incarnations["m2"] == 2
        assert manager.metrics.events.count("rejoin") == 1

    def test_add_worker_grants_heartbeat_grace_period(self):
        sim, manager = make_recovery_manager(workers=("m1",))
        manager.add_worker("m9", now=100.0)
        assert "m9" in manager.workers
        # seeded last_seen: a tick right after the join must not declare
        # the (not yet heartbeating) joiner lost
        manager.tick(101.0, {})
        assert "m9" not in manager.dead

    def test_retired_worker_silence_is_not_a_crash(self):
        sim, manager = make_recovery_manager()
        manager._last_seen["m2"] = 0.0
        manager.retire_worker("m2")
        manager._last_seen["m1"] = 100.0
        manager.tick(100.0, {})
        assert "m2" not in manager.dead
        assert manager.crashes_detected == 0

    def test_draining_machine_excluded_from_restore_targets(self):
        sim, manager = make_recovery_manager(workers=("m1", "m2", "m3"))
        manager.draining.add("m3")
        survivors = [
            w
            for w in manager.workers
            if w not in manager.dead and w not in manager.draining
        ]
        assert survivors == ["m1", "m2"]


# ----------------------------------------------------------------------
# Coordinator membership API
# ----------------------------------------------------------------------


def elastic_deployment(*, workers=3, checkpoint=False, seed=7, **kwargs):
    overrides = dict(kwargs.pop("config_overrides", {}))
    if checkpoint:
        overrides.setdefault("checkpoint_enabled", True)
        overrides.setdefault("checkpoint_interval", 6.0)
        overrides.setdefault("failure_timeout", 5.0)
    kwargs.setdefault("n_partitions", 12)
    kwargs.setdefault("join_rate", 3.0)
    kwargs.setdefault("tuple_range", 240)
    kwargs.setdefault("interarrival", 0.05)
    kwargs.setdefault("memory_threshold", 10**9)  # relocation-only runs
    return small_deployment(
        workers=workers,
        seed=seed,
        config_overrides=overrides,
        **kwargs,
    )


class TestCoordinatorMembership:
    def test_admit_existing_member_raises(self):
        dep = elastic_deployment()
        with pytest.raises(ValueError, match="already a member"):
            dep.coordinator.admit_worker("m1")

    def test_drain_unknown_worker_raises(self):
        dep = elastic_deployment()
        with pytest.raises(ValueError, match="unknown worker"):
            dep.coordinator.drain_worker("m9")

    def test_drain_while_draining_raises(self):
        dep = elastic_deployment()
        dep.launch(duration=30)
        dep.drain_machine("m2")
        with pytest.raises(ValueError, match="already draining"):
            dep.drain_machine("m2")

    def test_add_machine_live_member_raises(self):
        dep = elastic_deployment()
        with pytest.raises(ValueError, match="already a live member"):
            dep.add_machine("m1")

    def test_join_triggers_rebalance_onto_empty_machine(self):
        dep = elastic_deployment(workers=2)
        dep.launch(duration=60)
        dep.sim.run(until=20)
        dep.add_machine("m3")
        dep.sim.run(until=60)
        dep.stop_components()
        dep.sim.run()
        assert dep.coordinator.stats.joins == 1
        assert "m3" in dep.coordinator.workers
        # rebalance-on-join relocated state onto the joiner
        assert dep.instances["m3"].store.total_bytes > 0
        assert dep.metrics.events.count("join") == 1

    def test_join_without_rebalance_keeps_relocation_spacing(self):
        # rebalance_on_join only controls the tau_m spacing clock: with it
        # on, a join resets the clock so the very next evaluation may
        # relocate onto the empty joiner; with it off, the joiner waits
        # for organic imbalance under the normal spacing.
        dep = elastic_deployment(
            workers=2, config_overrides={"rebalance_on_join": False}
        )
        dep.launch(duration=40)
        dep.sim.run(until=15)
        before = dep.coordinator.last_relocation_time
        dep.add_machine("m3")
        assert dep.coordinator.last_relocation_time == before
        assert dep.coordinator.stats.joins == 1
        dep.stop_components()
        dep.sim.run()

    def test_join_with_rebalance_resets_relocation_spacing(self):
        dep = elastic_deployment(workers=2)
        dep.launch(duration=40)
        dep.sim.run(until=15)
        dep.add_machine("m3")
        assert dep.coordinator.last_relocation_time == -float("inf")
        dep.stop_components()
        dep.sim.run()

    def test_drain_relocates_all_state_and_retires(self):
        dep = elastic_deployment(workers=3)
        dep.launch(duration=60)
        dep.sim.run(until=20)
        held = dep.instances["m2"].store.total_bytes
        assert held > 0
        session = dep.drain_machine("m2")
        dep.sim.run(until=45)
        assert session.phase == "done"
        assert dep.instances["m2"].store.total_bytes == 0
        assert not dep.engines["m2"].alive
        assert "m2" not in dep.coordinator.workers
        assert "m2" in dep.coordinator.drained
        assert dep.coordinator.stats.drains_completed == 1
        assert dep.metrics.events.count("drain") == 1
        dep.stop_components()
        dep.sim.run()

    def test_drain_of_empty_machine_needs_no_relocation(self):
        ledger = DecisionLedger()
        dep = elastic_deployment(workers=2, ledger=ledger)
        dep.launch(duration=40)
        dep.sim.run(until=10)
        engine = dep.add_machine("m3")  # joins empty
        session = dep.coordinator.drain_worker("m3")
        # drain before any rebalance reaches it: nothing to move
        dep.sim.run(until=22)
        assert session.phase == "done"
        assert session.reloc is None
        assert not engine.alive
        entry = next(
            e for e in ledger.entries
            if e["kind"] == "membership" and e["action"] == "drain"
        )
        assert entry["realized"]["executed"] is False
        assert not verify_replay(ledger.entries)
        dep.stop_components()
        dep.sim.run()

    def test_membership_ledger_decisions_replay(self):
        ledger = DecisionLedger()
        dep = elastic_deployment(workers=3, ledger=ledger)
        dep.launch(duration=60)
        dep.sim.run(until=15)
        dep.add_machine("m4")
        dep.sim.run(until=30)
        dep.drain_machine("m2")
        dep.sim.run(until=60)
        dep.stop_components()
        dep.sim.run()
        kinds = {e["kind"] for e in ledger.entries}
        assert "membership" in kinds
        drain_entries = [
            e for e in ledger.entries
            if e["kind"] == "membership" and e["action"] == "drain"
        ]
        assert drain_entries and drain_entries[0]["inputs"]["chosen_receiver"]
        # rejected receiver candidates are ledgered alongside the choice
        assert any(
            alt.get("outcome") == "chosen"
            for alt in drain_entries[0]["alternatives"]
        )
        assert {"join", "drain", "relocate"} <= {
            e["action"] for e in ledger.entries
        }
        assert_rules_replay(ledger.entries)


# ----------------------------------------------------------------------
# Edge cases: races between membership, relocation and recovery
# ----------------------------------------------------------------------


class TestMembershipEdgeCases:
    def test_join_during_inflight_relocation(self):
        """Admitting a worker while the 8-step protocol is mid-session must
        neither disturb the session nor corrupt results."""
        dep = elastic_deployment(
            workers=2,
            assignment={"m1": 0.85, "m2": 0.15},
            collect=True,
        )
        joined = []

        def join_mid_session():
            session = dep.coordinator.session
            if session is not None and not session.terminal and not joined:
                dep.add_machine("m3")
                joined.append(dep.sim.now)
            elif not joined:
                dep.sim.schedule(0.5, join_mid_session)

        dep.launch(duration=80)
        dep.sim.schedule(1.0, join_mid_session)
        dep.sim.run(until=80)
        dep.stop_components()
        dep.sim.run()
        assert joined, "no relocation went in-flight; scenario did not fire"
        report = dep.cleanup(materialize=True)
        assert_exactly_once(dep, report)

    def test_drain_racing_crash_of_same_machine(self):
        """The machine crashes while its drain is still queued/collecting:
        the crash wins, the drain aborts, recovery re-homes the state, and
        no result is lost or duplicated."""
        dep = elastic_deployment(workers=3, checkpoint=True, collect=True)
        FaultSchedule(
            [MachineCrash(time=20.4, engine=dep.engines["m2"])]
        ).arm(dep.sim)
        dep.launch(duration=60)
        dep.sim.run(until=20.2)
        dep.drain_machine("m2")  # crash lands 0.2s later, mid-drain
        dep.sim.run(until=60)
        dep.stop_components()
        dep.sim.run()
        if dep.config.checkpoint_enabled:
            dep.flush_outputs()
            dep.sim.run()
        assert dep.coordinator.stats.drains_aborted == 1
        aborted = dep.coordinator.drain_history[0]
        assert aborted.phase == "aborted"
        assert dep.recovery.crashes_detected == 1
        report = dep.cleanup(materialize=True)
        assert_exactly_once(dep, report)

    def test_drains_without_a_receiver_time_out(self):
        """Draining both machines at once leaves each drain without a
        receiver (the other is leaving too): both stay queued, abort once
        the drain timeout passes, and no result is lost."""
        tracer, ledger = Tracer(), DecisionLedger()
        dep = Deployment(
            join=three_way_join(),
            workload=WorkloadSpec.uniform(
                8, join_rate=2, tuple_range=300, interarrival=0.05, seed=3,
            ),
            workers=2,
            config=AdaptationConfig(
                strategy=StrategyName.LAZY_DISK,
                memory_threshold=10**9,
                stats_interval=2.0,
                coordinator_interval=4.0,
            ),
            record_inputs=True,
            tracer=tracer,
            ledger=ledger,
        )
        membership_schedule(
            dep, drains=[(10.0, "m1"), (10.0, "m2")]
        ).arm(dep.sim)
        dep.run(duration=10.0 + DRAIN_TIMEOUT + 20.0)
        aborted = dep.metrics.events.of_kind("drain_aborted")
        assert sorted(e.machine for e in aborted) == ["m1", "m2"]
        for event in aborted:
            assert event.details == {"reason": "timeout",
                                     "phase_reached": "queued"}
            assert event.time > 10.0 + DRAIN_TIMEOUT
        assert dep.coordinator.stats.drains_aborted == 2
        assert any(
            e["inputs"].get("reason") == "drain_no_target"
            for e in ledger.entries
        )
        assert dep.total_outputs == reference_join_count(
            dep.source_host.inputs, dep.join.stream_names
        )
        assert check_trace(tracer.events, ledger_entries=ledger.entries) == []

    def test_rejoin_after_drain_has_fresh_incarnation(self):
        dep = elastic_deployment(workers=3, checkpoint=True, collect=True)
        dep.launch(duration=70)
        dep.sim.run(until=15)
        dep.drain_machine("m2")
        dep.sim.run(until=40)
        assert not dep.engines["m2"].alive
        engine = dep.add_machine("m2")
        assert engine is dep.engines["m2"]  # endpoint reused, not rebuilt
        assert engine.incarnation == 1
        dep.sim.run(until=70)
        dep.stop_components()
        dep.sim.run()
        if dep.config.checkpoint_enabled:
            dep.flush_outputs()
            dep.sim.run()
        # the drain-retire-rejoin cycle never looked like a failure
        assert dep.recovery.crashes_detected == 0
        assert "m2" in dep.coordinator.workers
        report = dep.cleanup(materialize=True)
        assert_exactly_once(dep, report)

    def test_exactly_once_under_join_drain_crash(self):
        """The full perturbation mix on the plain join: a runtime joiner,
        a graceful drain and a crash+restart in one checkpointed run."""
        dep = elastic_deployment(workers=3, checkpoint=True, collect=True)
        FaultSchedule(
            [
                MachineJoin(time=12.0, deployment=dep, name="m4"),
                MachineDrain(time=22.0, deployment=dep, name="m1"),
                MachineCrash(time=45.0, engine=dep.engines["m3"]),
                MachineRestart(time=52.0, engine=dep.engines["m3"]),
            ]
        ).arm(dep.sim)
        dep.run(duration=80, sample_interval=10)
        assert dep.coordinator.stats.joins == 1
        assert dep.engines["m3"].crashes == 1
        report = dep.cleanup(materialize=True)
        assert_exactly_once(dep, report)

    def test_windowed_exactly_once_under_join_and_drain(self):
        dep = Deployment(
            join=three_way_join(window=20.0),
            workload=WorkloadSpec.uniform(
                n_partitions=8, join_rate=3.0, tuple_range=240,
                interarrival=0.05, seed=7,
            ),
            workers=["m1", "m2", "m3"],
            config=AdaptationConfig(
                strategy=StrategyName.LAZY_DISK,
                memory_threshold=10**9,
                theta_r=0.9,
                tau_m=10.0,
                coordinator_interval=5.0,
                stats_interval=2.0,
                ss_interval=2.0,
                min_relocation_bytes=1024,
                checkpoint_enabled=True,
                checkpoint_interval=6.0,
                failure_timeout=5.0,
            ),
            collect_results=True,
            record_inputs=True,
        )
        membership_schedule(
            dep, joins=[(10.0, "m4")], drains=[(25.0, "m2")]
        ).arm(dep.sim)
        dep.run(duration=70, sample_interval=10)
        assert dep.coordinator.stats.joins == 1
        assert dep.coordinator.stats.drains_completed == 1
        report = dep.cleanup(materialize=True)
        runtime = result_idents(dep.collector.results)
        cleanup = result_idents(report.results)
        assert not (runtime & cleanup)
        reference = result_idents(
            reference_join(dep.source_host.inputs, dep.join.stream_names,
                           window=dep.join.window)
        )
        assert runtime | cleanup == reference


# ----------------------------------------------------------------------
# Invariant check 10 (synthetic traces: the checker catches breaches)
# ----------------------------------------------------------------------


def ev(seq, name, machine, span=None, **fields):
    return TraceEvent(seq=seq, ts=float(seq), phase=PHASE_INSTANT, name=name,
                      machine=machine, span=span, parent=None, fields=fields)


def feed(events):
    checker = InvariantChecker()
    checker.feed(events)
    return checker.finish()


class TestMembershipInvariant:
    def test_install_on_retired_machine_flagged(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "deploy.assignment", "m2", pids=(1,)),
            ev(3, "membership.retire", "gc", worker="m2"),
            ev(4, "relocation.install", "m2", span=7, pids=(0,)),
        ])
        assert any(
            v.check == "membership" and "retirement" in v.message
            for v in violations
        )

    def test_install_on_never_joined_machine_flagged(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "relocation.install", "m9", span=7, pids=(0,)),
        ])
        assert any(
            v.check == "membership" and "never joined" in v.message
            for v in violations
        )

    def test_join_readmits_for_ownership(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "membership.retire", "gc", worker="m1"),
            ev(3, "membership.join", "gc", worker="m1", incarnation=1),
            ev(4, "relocation.install", "m1", span=7, pids=(0,)),
        ])
        assert not [v for v in violations if v.check == "membership"]

    def test_drained_engine_activity_flagged(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "engine.drained", "m1"),
            ev(3, "relocation.pack", "m1", span=7, pids=(0,)),
        ])
        assert any(
            v.check == "membership" and "while drained" in v.message
            for v in violations
        )

    def test_revive_reopens_the_engine_epoch(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "engine.drained", "m1"),
            ev(3, "engine.revive", "m1"),
            ev(4, "relocation.install", "m1", span=7, pids=(0,)),
        ])
        assert not [v for v in violations if v.check == "membership"]

    def test_cleanup_on_retired_disk_allowed(self):
        violations = feed([
            ev(1, "deploy.assignment", "m1", pids=(0,)),
            ev(2, "engine.drained", "m1"),
            ev(3, "cleanup.merge", "m1", pid=0, stage=""),
        ])
        assert not [v for v in violations if v.check == "membership"]


# ----------------------------------------------------------------------
# Scenario families
# ----------------------------------------------------------------------


class TestScenarioFamilies:
    def test_diurnal_pattern_multiplier_is_phase_pure(self):
        pattern = diurnal_pattern(12, 3, period=120.0, factor=4.0, steps=24)
        step = 120.0 / 24
        for t in (0.0, 1.0, step - 1e-9):
            assert pattern.multiplier(0, t) == pattern.multiplier(0, 0.0)
            assert pattern.phase(t) == 0
        assert pattern.phase(step) == 1

    def test_diurnal_peaks_rotate_across_regions(self):
        pattern = diurnal_pattern(12, 3, period=120.0, factor=4.0)
        # group 0 peaks at t=0; group 1 (pids 4-7) peaks a third later
        assert pattern.multiplier(0, 0.0) == pytest.approx(4.0)
        assert pattern.multiplier(4, 40.0) == pytest.approx(4.0, rel=0.05)
        assert pattern.multiplier(0, 60.0) == pytest.approx(1.0, rel=0.05)
        assert 1.0 <= min(
            pattern.multiplier(pid, t)
            for pid in range(12)
            for t in range(0, 120, 5)
        )

    def test_diurnal_pattern_validation(self):
        with pytest.raises(ValueError):
            diurnal_pattern(2, 3, period=60.0)
        with pytest.raises(ValueError):
            diurnal_pattern(12, 0, period=60.0)

    def test_membership_schedule_builds_ordered_faults(self):
        dep = elastic_deployment(workers=2)
        schedule = membership_schedule(
            dep, joins=[(30.0, "m3")], drains=[(10.0, "m1")]
        )
        assert [f.time for f in schedule.faults] == [10.0, 30.0]
        assert "drain of 'm1'" in schedule.faults[0].describe()
        assert "join of 'm3'" in schedule.faults[1].describe()

    def test_diurnal_workload_run_with_elastic_capacity(self):
        """Diurnal load + timed scale-out/scale-in: the paradigmatic
        elasticity scenario runs clean end to end."""
        pattern = diurnal_pattern(12, 3, period=60.0, factor=6.0)
        tracer = Tracer()
        dep = elastic_deployment(
            workers=2,
            collect=True,
            workload=WorkloadSpec.uniform(
                n_partitions=12, join_rate=3.0, tuple_range=240,
                interarrival=0.05, seed=7, pattern=pattern,
            ),
            tracer=tracer,
        )
        membership_schedule(
            dep, joins=[(15.0, "m3")], drains=[(45.0, "m1")]
        ).arm(dep.sim)
        dep.run(duration=75, sample_interval=15)
        assert dep.coordinator.stats.joins == 1
        assert dep.coordinator.stats.drains_completed == 1
        assert_no_violations(tracer, "diurnal-elastic")
        report = dep.cleanup(materialize=True)
        assert_exactly_once(dep, report)


# ----------------------------------------------------------------------
# Acceptance: rolling restart ≡ static cluster
# ----------------------------------------------------------------------


def eight_machine_deployment(*, tracer=None, ledger=None):
    return small_deployment(
        workers=8,
        n_partitions=16,
        join_rate=3.0,
        tuple_range=200,
        interarrival=0.1,
        memory_threshold=10**9,
        collect=True,
        seed=13,
        tracer=tracer,
        ledger=ledger,
    )


class TestRollingRestartEquivalence:
    def test_rolling_restart_matches_static_cluster(self):
        """Drain → rest → rejoin every one of 8 machines in sequence; the
        produced result set is identical to the untouched cluster's, and
        the run passes check 10 plus offline ledger replay."""
        static = eight_machine_deployment()
        static.run(duration=170, sample_interval=30)
        static_results = result_idents(static.collector.results)

        tracer, ledger = Tracer(), DecisionLedger()
        elastic = eight_machine_deployment(tracer=tracer, ledger=ledger)
        restart = RollingRestart(
            elastic, start=10.0, rest=3.0, pause=3.0
        )
        elastic.launch(duration=170)
        restart.arm()
        elastic.sim.run(until=170)
        elastic.stop_components()
        elastic.sim.run()
        elastic.sample()

        assert restart.completed == [f"m{i}" for i in range(1, 9)]
        assert restart.aborted == []
        assert elastic.coordinator.stats.drains_completed == 8
        assert elastic.coordinator.stats.joins == 8
        for engine in elastic.engines.values():
            assert engine.alive
            assert engine.incarnation == 1  # one drain/revive cycle each

        elastic_results = result_idents(elastic.collector.results)
        assert elastic_results == static_results
        assert len(elastic.collector.results) == len(static.collector.results)

        violations = check_trace(tracer.events, ledger_entries=ledger.entries)
        assert violations == []
        # membership made it into the trace and the ledger
        names = [e.name for e in tracer.events]
        assert names.count("membership.join") == 8
        assert names.count("membership.retire") == 8
        assert any(e["kind"] == "membership" for e in ledger.entries)
