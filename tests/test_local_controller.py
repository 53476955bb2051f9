"""Tests for the local adaptation controller (the per-QE half)."""

from repro.cluster.disk import Disk
from repro.core.config import AdaptationConfig, CostModel, SpillPolicyName, StrategyName
from repro.core.local_controller import (
    LocalAdaptationController,
    select_relocation_parts,
)
from repro.core.productivity import CumulativeProductivity, WindowedProductivity
from repro.core.spill import SpillExecutor
from repro.engine.state_store import StateStore
from repro.engine.tuples import StreamTuple

STREAMS = ("A", "B")


def fill(store, pid, n, size=64, outputs=0):
    for seq in range(n):
        store.probe_insert(pid, StreamTuple(stream="A", seq=seq, key=pid,
                                            ts=0.0, size=size))
    if outputs:
        store.peek(pid).record_output(outputs)


def make_controller(machine, store, **config_overrides):
    settings = dict(strategy=StrategyName.LAZY_DISK, memory_threshold=1000)
    settings.update(config_overrides)
    config = AdaptationConfig(**settings)
    executor = SpillExecutor(machine, Disk(), store, CostModel())
    return LocalAdaptationController(store, executor, config)


class TestSelectRelocationParts:
    def test_picks_most_productive_first(self, machine):
        store = StateStore(machine, STREAMS)
        fill(store, 0, 2, outputs=1)
        fill(store, 1, 2, outputs=100)
        pids, total = select_relocation_parts(
            list(store.groups()), amount=1, estimator=CumulativeProductivity()
        )
        assert pids == (1,)
        assert total == store.peek(1).size_bytes

    def test_accumulates_to_amount(self, machine):
        store = StateStore(machine, STREAMS)
        for pid in range(4):
            fill(store, pid, 2, outputs=pid + 1)
        group_size = store.peek(0).size_bytes
        pids, total = select_relocation_parts(
            list(store.groups()), amount=group_size + 1,
            estimator=CumulativeProductivity(),
        )
        assert len(pids) == 2
        assert total >= group_size + 1

    def test_zero_amount_selects_nothing(self, machine):
        store = StateStore(machine, STREAMS)
        fill(store, 0, 2)
        assert select_relocation_parts(list(store.groups()), 0,
                                       CumulativeProductivity()) == ((), 0)

    def test_empty_groups_skipped(self, machine):
        store = StateStore(machine, STREAMS)
        store.group(0)
        pids, __ = select_relocation_parts(list(store.groups()), 100,
                                           CumulativeProductivity())
        assert pids == ()


class TestController:
    def test_run_spill_uses_policy_default_amount(self, sim, machine):
        store = StateStore(machine, STREAMS)
        controller = make_controller(machine, store, spill_fraction=0.5)
        for pid in range(4):
            fill(store, pid, 4, outputs=pid)
        before = store.total_bytes
        outcome = controller.run_spill(now=0.0)
        assert outcome is not None
        assert outcome.bytes_spilled >= int(before * 0.5)
        # least productive (pid 0) must be among victims
        assert 0 in outcome.partition_ids

    def test_spill_policy_from_config(self, machine):
        store = StateStore(machine, STREAMS)
        controller = make_controller(machine, store,
                                     spill_policy=SpillPolicyName.LARGEST)
        assert controller.spill_policy.name is SpillPolicyName.LARGEST

    def test_windowed_estimator_from_alpha(self, machine):
        store = StateStore(machine, STREAMS)
        controller = make_controller(machine, store, productivity_alpha=0.5)
        assert isinstance(controller.estimator, WindowedProductivity)
        controller.observe()  # must not raise on empty store

    def test_cumulative_estimator_by_default(self, machine):
        store = StateStore(machine, STREAMS)
        controller = make_controller(machine, store)
        assert isinstance(controller.estimator, CumulativeProductivity)
        controller.observe()  # no-op

    def test_compute_parts_to_move_prefers_productive(self, machine):
        store = StateStore(machine, STREAMS)
        fill(store, 0, 2, outputs=0)
        fill(store, 1, 2, outputs=50)
        pids, __ = controller_parts(make_controller(machine, store), 1)
        assert pids[0] == 1

    def test_spill_forgets_windowed_history(self, sim, machine):
        store = StateStore(machine, STREAMS)
        controller = make_controller(machine, store, productivity_alpha=1.0)
        fill(store, 0, 2, outputs=10)
        controller.observe()
        assert 0 in controller.estimator._ewma
        controller.run_spill(now=0.0, amount=10**6)
        assert 0 not in controller.estimator._ewma


def controller_parts(controller, amount):
    return controller.compute_parts_to_move(amount)


class TestRelocationScope:
    def test_operator_scope_moves_everything(self, machine):
        from repro.core.config import RelocationScope

        store = StateStore(machine, STREAMS)
        controller = make_controller(
            machine, store, relocation_scope=RelocationScope.OPERATOR
        )
        for pid in range(4):
            fill(store, pid, 2, outputs=pid)
        pids, total = controller.compute_parts_to_move(1)  # amount ignored
        assert set(pids) == {0, 1, 2, 3}
        assert total == store.total_bytes

    def test_partition_scope_respects_amount(self, machine):
        from repro.core.config import RelocationScope

        store = StateStore(machine, STREAMS)
        controller = make_controller(
            machine, store, relocation_scope=RelocationScope.PARTITIONS
        )
        for pid in range(4):
            fill(store, pid, 2, outputs=pid)
        pids, __ = controller.compute_parts_to_move(1)
        assert len(pids) == 1

    def test_operator_scope_skips_empty_groups(self, machine):
        from repro.core.config import RelocationScope

        store = StateStore(machine, STREAMS)
        controller = make_controller(
            machine, store, relocation_scope=RelocationScope.OPERATOR
        )
        store.group(7)  # empty
        fill(store, 1, 2)
        pids, __ = controller.compute_parts_to_move(10)
        assert pids == (1,)
