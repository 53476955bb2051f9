"""Tests for the crash-fault injection + checkpointed recovery subsystem.

Covers the layers bottom-up: machine-level crash mechanics, the state
store's crash reset, the checkpoint store/manager, fault-schedule
validation, and finally the full crash-under-load scenario — a machine
dies mid-run during a steady-state 3-way join with checkpointing on, and
the produced result set still matches the brute-force reference exactly
(no lost results, no duplicates).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StrategyName
from repro.cluster.faults import (
    CpuSlowdown,
    FaultSchedule,
    MachineCrash,
    MachineRestart,
    NetworkDegradation,
)
from repro.cluster.machine import Task
from repro.core.config import CheckpointMode, CheckpointTarget
from repro.engine.reference import reference_join, result_idents
from repro.recovery import CheckpointEntry, CheckpointStore, frozen_idents

from tests.conftest import make_tuple
from tests.helpers import small_deployment


def checkpointed_deployment(*, workers=3, crash=None, restart=None,
                            checkpoint_interval=6.0, failure_timeout=5.0,
                            config_overrides=None, **kwargs):
    """A small collecting deployment with checkpointing on, plus optional
    crash/restart faults ``{machine: time}``."""
    overrides = dict(
        checkpoint_enabled=True,
        checkpoint_interval=checkpoint_interval,
        failure_timeout=failure_timeout,
    )
    if config_overrides:
        overrides.update(config_overrides)
    kwargs.setdefault("n_partitions", 8)
    kwargs.setdefault("join_rate", 3.0)
    kwargs.setdefault("tuple_range", 240)
    kwargs.setdefault("interarrival", 0.05)
    kwargs.setdefault("collect", True)
    dep = small_deployment(
        strategy=StrategyName.LAZY_DISK,
        workers=workers,
        config_overrides=overrides,
        **kwargs,
    )
    faults = []
    for machine, time in (crash or {}).items():
        faults.append(MachineCrash(time=time, engine=dep.engines[machine]))
    for machine, time in (restart or {}).items():
        faults.append(MachineRestart(time=time, engine=dep.engines[machine]))
    if faults:
        FaultSchedule(faults).arm(dep.sim)
    return dep


def assert_exactly_once(dep, report):
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


# ----------------------------------------------------------------------
# Machine-level crash mechanics
# ----------------------------------------------------------------------


class TestMachineCrash:
    def test_crash_drops_queued_and_in_service_work(self, sim, machine):
        from repro.cluster.machine import DynamicTask

        finished = []
        machine.submit(DynamicTask(lambda: (2.0, lambda: finished.append("a"))))
        machine.submit(DynamicTask(lambda: (2.0, lambda: finished.append("b"))))
        sim.run(until=1.0)
        machine.crash()  # "a" is mid-service: its finish must never run
        sim.run()
        assert finished == []
        assert machine.tasks_lost == 2
        assert machine.crashes == 1

    def test_crash_zeroes_memory(self, sim, machine):
        machine.allocate(1000)
        machine.crash()
        assert machine.memory_used == 0

    def test_machine_usable_after_crash(self, sim, machine):
        machine.submit(Task(2.0, lambda: None))
        machine.crash()
        done = []
        machine.submit(Task(1.0, lambda: done.append(sim.now)))
        sim.run()
        assert done  # new epoch: post-crash work completes normally


class TestStateStoreCrashReset:
    def test_crash_reset_drops_groups_and_bumps_generation(self, sim, machine):
        from repro.engine.state_store import StateStore

        store = StateStore(machine, streams=("A", "B"))
        store.probe_insert(1, make_tuple(stream="A", key=1), now=0.0)
        before = store.total_bytes
        assert before > 0
        gen = next(iter(store.groups())).generation
        lost = store.crash_reset()
        assert lost == before
        assert store.total_bytes == 0
        assert store.partition_ids() == ()
        # a re-created group must not collide with pre-crash snapshots
        store.probe_insert(1, make_tuple(stream="A", key=1, seq=1), now=1.0)
        assert next(iter(store.groups())).generation > gen

    def test_mutation_counters_track_changes(self, sim, machine):
        from repro.engine.state_store import StateStore

        store = StateStore(machine, streams=("A", "B"))
        store.probe_insert(3, make_tuple(stream="A", key=3), now=0.0)
        store.probe_insert(3, make_tuple(stream="B", key=3, seq=1), now=0.0)
        assert store.mutations[3] == 2
        store.evict([3])
        assert 3 not in store.mutations


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------


def make_entry(pid, owner="m1", holder="m1", time=0.0, *, sim=None):
    from repro.cluster.machine import Machine
    from repro.cluster.simulation import Simulator
    from repro.engine.state_store import StateStore

    sim = sim or Simulator()
    machine = Machine(sim, owner)
    store = StateStore(machine, streams=("A", "B"))
    store.probe_insert(pid, make_tuple(stream="A", key=pid), now=0.0)
    frozen = store.state_of(pid)
    return CheckpointEntry(pid=pid, owner=owner, holder=holder, time=time,
                           frozen=frozen, size_bytes=frozen.size_bytes)


class TestCheckpointStore:
    def test_record_and_supersede(self):
        registry = CheckpointStore()
        first = make_entry(1, time=0.0)
        registry.record([first])
        later = make_entry(1, time=5.0)
        registry.record([later])
        assert registry.latest(1) is later
        assert registry.commits == 2
        assert registry.entries_written == 2

    def test_drop_removes_stale_entries(self):
        registry = CheckpointStore()
        registry.record([make_entry(1), make_entry(2)])
        registry.record([], drop=[1])
        assert registry.latest(1) is None
        assert registry.latest(2) is not None
        assert registry.partition_ids() == (2,)

    def test_frozen_idents_cover_all_streams(self, sim, machine):
        from repro.engine.state_store import StateStore

        store = StateStore(machine, streams=("A", "B"))
        store.probe_insert(1, make_tuple(stream="A", key=1, seq=0), now=0.0)
        store.probe_insert(1, make_tuple(stream="B", key=1, seq=7), now=0.0)
        idents = frozen_idents(store.state_of(1))
        assert idents == {("A", 0), ("B", 7)}


# ----------------------------------------------------------------------
# FaultSchedule validation ergonomics
# ----------------------------------------------------------------------


class TestFaultScheduleValidation:
    def test_non_numeric_time_rejected_at_construction(self, sim, machine):
        with pytest.raises(TypeError, match="non-numeric"):
            FaultSchedule([CpuSlowdown("soon", machine, 0.5)])

    def test_bool_time_rejected(self, sim, machine):
        with pytest.raises(TypeError, match="non-numeric"):
            FaultSchedule([CpuSlowdown(True, machine, 0.5)])

    def test_negative_and_nonfinite_times_rejected(self, sim, machine):
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultSchedule([CpuSlowdown(-1.0, machine, 0.5)])
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultSchedule([CpuSlowdown(float("nan"), machine, 0.5)])
        with pytest.raises(ValueError, match="finite and non-negative"):
            FaultSchedule([CpuSlowdown(float("inf"), machine, 0.5)])

    def test_arming_in_the_past_rejected_with_clear_error(self, sim, machine):
        schedule = FaultSchedule([CpuSlowdown(1.0, machine, 0.5)])
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="already at t=5"):
            schedule.arm(sim)

    def test_error_names_the_offending_fault(self, sim, machine):
        with pytest.raises(ValueError, match="cpu of 'm1'"):
            FaultSchedule([CpuSlowdown(-3.0, machine, 0.5)])


# ----------------------------------------------------------------------
# Engine crash/restart behaviour
# ----------------------------------------------------------------------


class TestEngineCrash:
    def test_crashed_engine_drops_messages_and_restart_rejoins(self):
        dep = checkpointed_deployment(crash={"m2": 10.0}, restart={"m2": 30.0})
        dep.run(duration=45, sample_interval=10)
        engine = dep.engines["m2"]
        assert engine.crashes == 1
        assert engine.incarnation == 1
        assert engine.messages_dropped > 0
        assert engine.alive
        assert dep.metrics.events.count("crash") == 1
        assert dep.metrics.events.count("restart") == 1
        assert dep.metrics.events.count("rejoin") == 1

    def test_crash_without_checkpointing_loses_results(self):
        dep = small_deployment(
            strategy=StrategyName.ALL_MEMORY,
            workers=2,
            n_partitions=8, join_rate=3.0, tuple_range=240,
            interarrival=0.05, collect=True,
        )
        FaultSchedule(
            [MachineCrash(time=20.0, engine=dep.engines["m2"])]
        ).arm(dep.sim)
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        produced = (result_idents(dep.collector.results)
                    | result_idents(report.results))
        reference = result_idents(
            reference_join(dep.source_host.inputs, dep.join.stream_names)
        )
        # sanity check that the fault genuinely destroys information when
        # the recovery subsystem is disabled
        assert produced < reference


# ----------------------------------------------------------------------
# The acceptance scenario: crash under load, exactly-once
# ----------------------------------------------------------------------


class TestCrashUnderLoad:
    def test_crash_during_steady_state_join_is_exactly_once(self):
        dep = checkpointed_deployment(
            assignment={"m1": 0.5, "m2": 0.3, "m3": 0.2},
            crash={"m2": 25.0},
        )
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert dep.metrics.events.count("machine_lost") == 1
        assert dep.recovery_count == 1
        assert dep.checkpoint_count > 0
        recovery = dep.metrics.events.of_kind("recovery")[0]
        assert recovery.details["partitions"] > 0
        assert_exactly_once(dep, report)

    def test_recovery_rebalances_onto_survivors(self):
        dep = checkpointed_deployment(crash={"m3": 20.0})
        dep.run(duration=45, sample_interval=10)
        recovery = dep.metrics.events.of_kind("recovery")[0]
        assert set(recovery.details["targets"]) <= {"m1", "m2"}
        # the survivors now own every partition at the splits
        for split in dep.splits.values():
            assert split.partition_map.partitions_of("m3") == ()
            assert not split.paused_partitions

    def test_full_mode_and_peer_target_also_recover(self):
        dep = checkpointed_deployment(
            crash={"m2": 22.0},
            config_overrides=dict(
                checkpoint_mode=CheckpointMode.FULL,
                checkpoint_target=CheckpointTarget.PEER,
            ),
        )
        dep.run(duration=45, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)

    def test_checkpointing_without_crash_changes_nothing(self):
        dep = checkpointed_deployment()
        dep.run(duration=40, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert dep.recovery_count == 0
        assert dep.checkpoint_count > 0
        assert_exactly_once(dep, report)

    def test_crash_with_spilled_state_on_survivor_disks(self):
        dep = checkpointed_deployment(
            memory_threshold=8_000,
            crash={"m2": 25.0},
        )
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert dep.spill_count > 0
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)


def _skewed_deployment(**kwargs):
    """Deployment whose skew triggers a relocation at t≈25.0 that moves
    partition state m2→m3 and completes in ~60 ms (deterministic under
    seed 3) — the anvil for the crash-during-relocation tests below."""
    return checkpointed_deployment(
        workers=3,
        assignment={"m1": 0.7, "m2": 0.15, "m3": 0.15},
        seed=3,
        checkpoint_interval=5.0,
        failure_timeout=4.0,
        config_overrides=dict(tau_m=5.0, theta_r=0.95),
        **kwargs,
    )


class TestCrashDuringRelocation:
    """Crashes of a relocation *participant* at pinned instants inside the
    t≈25.0 m2→m3 transfer window of the skewed deployment."""

    def test_receiver_crash_mid_transfer_is_adopted_by_recovery(self):
        # m3 (receiver) dies while the session sits in "transferring":
        # the abort folds the moving partitions into the recovery session,
        # which restores them from the sender's hand-off commit.
        dep = _skewed_deployment(crash={"m3": 25.03})
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        (abort,) = dep.metrics.events.of_kind("relocation_aborted")
        assert abort.details["phase_reached"] == "transferring"
        assert abort.details["adopted"] is True
        (ta,) = dep.metrics.events.of_kind("transfer_aborted")
        assert ta.details["cancelled"] is False  # state had already evicted
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)

    def test_sender_crash_between_evict_and_handoff_commit(self):
        # m2 (sender) dies after the pack evicted the moving groups but
        # before the hand-off commit lands.  The commit — and with it the
        # state transfer, which rides its tail — is suppressed by the
        # crash epoch, so the receiver never installs: recovery restores
        # everything from m2's periodic snapshots plus replay.  (This
        # timing once lost every buffered pre-eviction result, because the
        # transfer used to leave before the commit made them durable.)
        dep = _skewed_deployment(crash={"m2": 25.06})
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        (abort,) = dep.metrics.events.of_kind("relocation_aborted")
        assert abort.details["phase_reached"] == "transferring"
        assert abort.details["adopted"] is False  # sender died, not receiver
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)

    def test_sender_crash_right_after_relocation_completes(self):
        dep = _skewed_deployment(crash={"m2": 25.1})
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        assert dep.relocation_count >= 1
        assert not dep.metrics.events.of_kind("relocation_aborted")
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)

    def test_backlogged_sender_cancels_handoff_and_keeps_state_resident(self):
        # Slow m2 100x so the pack is still stuck behind queued batches
        # when m3's death is detected: the abort_transfer overtakes the
        # data queue, cancels the pack, and recovery routes the moving
        # partitions straight back to m2 — resident, no restore, no
        # replay (a replay would duplicate m2's unreleased results).
        dep = _skewed_deployment()
        FaultSchedule([
            CpuSlowdown(24.9, dep.machines["m2"], 0.01),
            MachineCrash(time=25.01, engine=dep.engines["m3"]),
            CpuSlowdown(31.0, dep.machines["m2"], 100.0),
        ]).arm(dep.sim)
        dep.run(duration=50, sample_interval=10)
        report = dep.cleanup(materialize=True)
        (abort,) = dep.metrics.events.of_kind("relocation_aborted")
        assert abort.details["phase_reached"] == "transferring"
        assert abort.details["adopted"] is True
        (ta,) = dep.metrics.events.of_kind("transfer_aborted")
        assert ta.details["cancelled"] is True
        (recovery,) = dep.metrics.events.of_kind("recovery")
        assert recovery.details["resident"] >= 1
        assert dep.recovery_count == 1
        assert_exactly_once(dep, report)


# ----------------------------------------------------------------------
# Property: exactly-once under combined perturbations + crash while a
# relocation is in flight (satellite 4)
# ----------------------------------------------------------------------


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 1_000),
    crash_time=st.sampled_from([16.0, 21.0, 27.0]),
)
def test_exactly_once_under_combined_faults_and_crash(seed, crash_time):
    """CPU slowdown + network degradation + a machine crash, against a
    skewed deployment whose relocation machinery is actively moving state:
    the result set still matches the reference exactly."""
    dep = checkpointed_deployment(
        workers=3,
        assignment={"m1": 0.7, "m2": 0.15, "m3": 0.15},
        seed=seed,
        checkpoint_interval=5.0,
        failure_timeout=4.0,
        config_overrides=dict(tau_m=5.0, theta_r=0.95),
    )
    FaultSchedule([
        CpuSlowdown(12.0, dep.machines["m1"], 0.5),
        NetworkDegradation(14.0, dep.network, bandwidth=2.5e6),
        MachineCrash(time=crash_time, engine=dep.engines["m3"]),
        CpuSlowdown(35.0, dep.machines["m1"], 2.0),
    ]).arm(dep.sim)
    dep.run(duration=50, sample_interval=10)
    report = dep.cleanup(materialize=True)
    assert dep.recovery_count == 1
    # the skew must have engaged the relocation machinery (completed or
    # aborted by the crash) so the crash raced real state movement
    moved = (dep.relocation_count
             + dep.metrics.events.count("relocation_aborted"))
    assert moved > 0
    assert_exactly_once(dep, report)
