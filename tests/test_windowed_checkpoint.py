"""Regression tests for the windowed-join checkpoint bugs.

Two historical bugs are pinned here, both of the same class — a mutation
path that bypassed the store's accounting funnel:

1. the windowed probe-insert updated store counters directly and never
   incremented ``store.mutations[pid]``, so incremental checkpoints
   considered windowed groups clean after their first snapshot and
   post-crash recovery replayed inputs against stale state, duplicating
   results that had already been released;
2. ``purge_window`` shrank group contents/sizes without bumping the
   counter (same staleness) and left ``output_count`` untouched, inflating
   the productivity of purged groups.

Each test fails against the pre-fix code paths (the
``TestBugReproduction`` cases re-introduce the old behaviour explicitly to
prove the scenario detects it) and passes with the shared ``_touch``
funnel in place.
"""

import pytest

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.engine.columns import ColumnBatch
from repro.engine.reference import reference_join, result_idents
from repro.workloads import WorkloadSpec, three_way_join

from tests.conftest import make_tuple


# ----------------------------------------------------------------------
# Bug 1: windowed probe-insert must go through mutation accounting
# ----------------------------------------------------------------------
class TestWindowedMutationAccounting:
    def test_windowed_probe_insert_bumps_mutations(self, machine):
        instance = three_way_join(window=10.0).make_instance(machine)
        window = instance.join.window
        instance.store.probe_insert(
            3, make_tuple(stream="A", seq=0, key=1, ts=0.0), window=window)
        assert instance.store.mutations.get(3) == 1
        instance.store.probe_insert(
            3, make_tuple(stream="B", seq=1, key=1, ts=1.0), window=window)
        assert instance.store.mutations.get(3) == 2

    def test_windowed_batch_bumps_mutations(self, machine):
        instance = three_way_join(window=10.0).make_instance(machine)
        batch = [
            (3, make_tuple(stream="A", seq=0, key=1, ts=0.0)),
            (3, make_tuple(stream="B", seq=1, key=1, ts=1.0)),
            (4, make_tuple(stream="C", seq=2, key=12, ts=1.5)),
        ]
        instance.process_columns(
            ColumnBatch.from_routed(batch, instance.join.stream_names))
        assert instance.store.mutations.get(3) == 2
        assert instance.store.mutations.get(4) == 1

    def test_windowed_and_unwindowed_accounting_agree(self, machine):
        """The windowed path shares the unwindowed path's funnel: same
        counters, same memory accounting, for the same inserts."""
        windowed = three_way_join(window=1e9).make_instance(machine)
        for seq, stream in enumerate(("A", "B", "C")):
            windowed.store.probe_insert(
                0, make_tuple(stream=stream, seq=seq, key=5, ts=float(seq)),
                window=windowed.join.window)
        plain = three_way_join().make_instance(machine)
        for seq, stream in enumerate(("A", "B", "C")):
            plain.store.probe_insert(
                0, make_tuple(stream=stream, seq=seq, key=5, ts=float(seq)),
                window=plain.join.window)
        assert windowed.store.mutations == plain.store.mutations
        assert windowed.store.total_bytes == plain.store.total_bytes
        assert windowed.store.outputs_total == plain.store.outputs_total


# ----------------------------------------------------------------------
# Bug 2: purge_window accounting + productivity normalisation
# ----------------------------------------------------------------------
class TestPurgeWindowAccounting:
    def build_instance(self, machine, *, window=10.0):
        instance = three_way_join(window=window).make_instance(machine)
        # one full join triple early, then a late lonely tuple per stream
        for seq, stream in enumerate(("A", "B", "C")):
            instance.store.probe_insert(
                0, make_tuple(stream=stream, seq=seq, key=1, ts=float(seq)),
                window=window)
        for seq, stream in enumerate(("A", "B", "C"), start=3):
            instance.store.probe_insert(
                0, make_tuple(stream=stream, seq=seq, key=2, ts=100.0 + seq),
                window=window)
        return instance

    def test_purge_bumps_mutations(self, machine):
        instance = self.build_instance(machine)
        before = instance.store.mutations[0]
        purged = instance.purge_window(watermark=60.0)
        assert purged == 3  # the early triple expired
        assert instance.store.mutations[0] == before + 1

    def test_purge_without_expired_tuples_stays_clean(self, machine):
        instance = self.build_instance(machine)
        before = instance.store.mutations[0]
        assert instance.purge_window(watermark=5.0) == 0
        assert instance.store.mutations[0] == before

    def test_purge_normalizes_productivity(self, machine):
        instance = self.build_instance(machine)
        group = instance.store.peek(0)
        productivity_before = group.productivity
        assert productivity_before > 0
        instance.purge_window(watermark=60.0)
        # outputs are scaled with the surviving payload, so the ratio is
        # preserved (up to integer flooring of the scaled counter) instead
        # of inflating as the denominator shrinks
        assert group.productivity == pytest.approx(productivity_before,
                                                   rel=0.05)
        assert group.output_count == 1  # half the payload gone: 2 outputs -> 1

    def test_purge_keeps_memory_accounting(self, machine):
        instance = self.build_instance(machine)
        instance.purge_window(watermark=60.0)
        assert instance.store.total_bytes == machine.memory_used
        expected = sum(g.size_bytes for g in instance.store.groups())
        assert instance.store.total_bytes == expected


# ----------------------------------------------------------------------
# End to end: windowed crash recovery is exactly-once
# ----------------------------------------------------------------------
def windowed_checkpointed_deployment(*, crash=None, restart=None, seed=7,
                                     **deployment_kwargs):
    dep = Deployment(
        join=three_way_join(window=20.0),
        workload=WorkloadSpec.uniform(n_partitions=8, join_rate=3.0,
                                      tuple_range=240, interarrival=0.05,
                                      seed=seed),
        workers=["m1", "m2", "m3"],
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=30_000,
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
        **deployment_kwargs,
    )
    faults = []
    for name, time in (crash or {}).items():
        faults.append(MachineCrash(time=time, engine=dep.engines[name]))
    for name, time in (restart or {}).items():
        faults.append(MachineRestart(time=time, engine=dep.engines[name]))
    if faults:
        FaultSchedule(faults).arm(dep.sim)
    return dep


def assert_windowed_exactly_once(dep, report):
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


class TestWindowedCrashRecovery:
    def test_windowed_crash_recovery_exactly_once(self):
        """The windowed crash scenario that exposed bug 1: incremental
        checkpoints must keep re-snapshotting windowed groups, or replay
        duplicates results released before the crash."""
        dep = windowed_checkpointed_deployment(crash={"m2": 25.0},
                                               restart={"m2": 32.0})
        dep.run(duration=60, sample_interval=10)
        assert dep.engines["m2"].crashes == 1
        assert dep.recovery_count >= 1
        report = dep.cleanup(materialize=True)
        assert_windowed_exactly_once(dep, report)


class TestBugReproduction:
    """Prove the scenarios above detect the original bugs: re-introduce
    each pre-fix behaviour and assert the assertion trips."""

    def test_crash_scenario_catches_missing_mutation_bump(self, monkeypatch):
        """Sever the windowed path from mutation accounting (the pre-fix
        behaviour) and the crash scenario must violate exactly-once."""
        from repro.engine.state_store import StateStore

        fixed = StateStore._probe_insert_rows

        def buggy(self, cb, now, materialize, window):
            if window is None:
                return fixed(self, cb, now, materialize, window)
            # pre-fix windowed side path: the same probes, inserts and
            # counter updates, but no _touch
            self._touch = lambda pid, count=1: None
            try:
                return fixed(self, cb, now, materialize, window)
            finally:
                del self._touch

        monkeypatch.setattr(StateStore, "_probe_insert_rows", buggy)
        # column delivery (the default): every windowed batch goes through
        # _probe_insert_rows
        dep = windowed_checkpointed_deployment(crash={"m2": 25.0},
                                               restart={"m2": 32.0})
        dep.run(duration=60, sample_interval=10)
        report = dep.cleanup(materialize=True)
        with pytest.raises(AssertionError):
            assert_windowed_exactly_once(dep, report)

    def test_purge_scenario_catches_unscaled_outputs(self, machine):
        """Without the proportional output scaling (pre-fix), the purge
        scenario's productivity check trips."""
        instance = TestPurgeWindowAccounting().build_instance(machine)
        group = instance.store.peek(0)
        productivity_before = group.productivity
        # pre-fix purge: shrink contents and sizes, leave output_count
        outputs = group.output_count
        assert instance.purge_window(watermark=60.0) == 3
        group.output_count = outputs
        assert group.productivity != pytest.approx(productivity_before,
                                                   rel=0.05)
