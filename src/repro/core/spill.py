"""State-spill adaptation: victim selection policies and the spill executor.

State spill (paper §3) pushes in-memory partition groups to the local disk
when a machine's memory exceeds its threshold.  The policy question is
*which* groups to push; the paper's throughput-oriented answer is: the
least productive ones, so the state left in memory keeps producing results.
Four policies are provided (see
:class:`~repro.core.config.SpillPolicyName`); all return victims whose
total size reaches the requested spill amount.

The executor performs the mechanics shared by every policy and by the
coordinator-forced spills of the active-disk strategy: evict the chosen
groups from the state store (releasing their memory), freeze them into
:class:`~repro.cluster.disk.SpillSegment` records parked on the machine's
disk, and occupy the machine's CPU for the serialisation + write time.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.disk import Disk, SpillSegment
from repro.cluster.machine import PRIORITY_CONTROL, DynamicTask, Machine
from repro.core.config import CostModel, SpillPolicyName
from repro.core.productivity import CumulativeProductivity, ProductivityEstimator
from repro.engine.columns import ColumnarPartitionGroup
from repro.engine.state_store import (
    ORDER_PRODUCTIVITY_ASC,
    ORDER_PRODUCTIVITY_DESC,
    ORDER_SIZE_DESC,
    StateStore,
)
from repro.obs.trace import NULL_TRACER


class SpillPolicy(ABC):
    """Chooses spill victims totalling (about) a requested byte amount."""

    name: SpillPolicyName

    @abstractmethod
    def order(
        self, groups: Sequence[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        """All candidate groups in victim order (first = spill first)."""

    def select(
        self, groups: Sequence[ColumnarPartitionGroup], amount: int
    ) -> list[int]:
        """Victim partition IDs whose sizes accumulate to ``amount`` bytes.

        The group that crosses the boundary is included, so at least one
        group is chosen whenever state exists and ``amount > 0`` — matching
        the paper's ``computeSpillAmount``/``computePartsToMove`` behaviour
        of always making progress.
        """
        if amount <= 0:
            return []
        victims: list[int] = []
        accumulated = 0
        for group in self.order(groups):
            if group.is_empty:
                continue
            victims.append(group.pid)
            accumulated += group.size_bytes
            if accumulated >= amount:
                break
        return victims

    def select_victims(self, store: StateStore, amount: int) -> list[int]:
        """Victim IDs straight from a state store.

        The base implementation materialises and sorts every live group
        through :meth:`select`; policies backed by the store's lazy victim
        index override this to pick victims in O(k log n) without the full
        re-sort, returning exactly the same IDs in the same order.
        """
        return self.select(list(store.groups()), amount)


class RandomSpillPolicy(SpillPolicy):
    """Uniformly random victims — the paper's Figure 5/6 sensitivity runs,
    which deliberately neutralise the choice dimension."""

    name = SpillPolicyName.RANDOM

    def __init__(self, seed: int = 11) -> None:
        self._rng = random.Random(seed)

    def order(
        self, groups: Sequence[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        shuffled = list(groups)
        self._rng.shuffle(shuffled)
        return shuffled


class LargestFirstSpillPolicy(SpillPolicy):
    """Largest group first — XJoin's flush policy [25], kept as a baseline."""

    name = SpillPolicyName.LARGEST

    def order(
        self, groups: Sequence[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        return sorted(groups, key=lambda g: (-g.size_bytes, g.pid))

    def select_victims(self, store: StateStore, amount: int) -> list[int]:
        return store.pick_victims(ORDER_SIZE_DESC, amount)


class LessProductiveSpillPolicy(SpillPolicy):
    """Ascending productivity — the paper's throughput-oriented policy."""

    name = SpillPolicyName.LESS_PRODUCTIVE

    def __init__(self, estimator: ProductivityEstimator | None = None) -> None:
        self.estimator = estimator or CumulativeProductivity()

    def order(
        self, groups: Sequence[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        return self.estimator.rank_ascending(groups)

    def select_victims(self, store: StateStore, amount: int) -> list[int]:
        # the store's index orders by the cumulative metric; any other
        # estimator (e.g. the EWMA variant) needs the generic ranked path
        if type(self.estimator) is CumulativeProductivity:
            return store.pick_victims(ORDER_PRODUCTIVITY_ASC, amount)
        return super().select_victims(store, amount)


class MoreProductiveSpillPolicy(SpillPolicy):
    """Descending productivity — Figure 7's adversarial baseline."""

    name = SpillPolicyName.MORE_PRODUCTIVE

    def __init__(self, estimator: ProductivityEstimator | None = None) -> None:
        self.estimator = estimator or CumulativeProductivity()

    def order(
        self, groups: Sequence[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        return self.estimator.rank_descending(groups)

    def select_victims(self, store: StateStore, amount: int) -> list[int]:
        if type(self.estimator) is CumulativeProductivity:
            return store.pick_victims(ORDER_PRODUCTIVITY_DESC, amount)
        return super().select_victims(store, amount)


def make_spill_policy(
    name: SpillPolicyName | str,
    *,
    estimator: ProductivityEstimator | None = None,
    seed: int = 11,
) -> SpillPolicy:
    """Factory from a :class:`~repro.core.config.SpillPolicyName`."""
    name = SpillPolicyName(name)
    if name is SpillPolicyName.RANDOM:
        return RandomSpillPolicy(seed=seed)
    if name is SpillPolicyName.LARGEST:
        return LargestFirstSpillPolicy()
    if name is SpillPolicyName.LESS_PRODUCTIVE:
        return LessProductiveSpillPolicy(estimator=estimator)
    return MoreProductiveSpillPolicy(estimator=estimator)


@dataclass(frozen=True)
class SpillOutcome:
    """Result of one executed spill: what went to disk and what it cost."""

    partition_ids: tuple[int, ...]
    bytes_spilled: int
    duration: float
    forced: bool


class SpillExecutor:
    """Performs a spill on one machine: evict -> freeze -> park on disk.

    The evicted state leaves the memory account immediately (the "zag" in
    the paper's Figure 6 memory curves), while the CPU stays busy for the
    serialisation and disk-write time — delaying queued tuple processing,
    which is the throughput cost visible in Figure 5.

    When a decision ledger is attached (``ledger_entry`` threaded from the
    overflow check or the GC's forced-spill order), the executor links the
    entry to its spill trace span, annotates the chosen victims with their
    productivity scores at selection time, and records the realized cost.
    """

    def __init__(self, machine: Machine, disk: Disk, store: StateStore,
                 cost: CostModel, *, tracer=None, ledger=None) -> None:
        from repro.obs.ledger import NULL_LEDGER

        self.machine = machine
        self.disk = disk
        self.store = store
        self.cost = cost
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        self.total_spilled_bytes = 0
        self.spill_count = 0

    def compute_amount(self, fraction: float) -> int:
        """``computeSpillAmount()``: the configured fraction of resident state."""
        return int(self.store.total_bytes * fraction)

    def execute(
        self,
        policy: SpillPolicy,
        amount: int,
        *,
        now: float,
        forced: bool = False,
        on_done=None,
        ledger_entry: int = 0,
    ) -> SpillOutcome | None:
        """Run one spill of about ``amount`` bytes.

        Returns the outcome, or ``None`` when there was nothing to spill.
        The machine is occupied (at control priority) for the serialisation
        + write duration; ``on_done(outcome)`` fires when the disk write
        completes.
        """
        victims = policy.select_victims(self.store, amount)
        if not victims:
            return None
        victim_detail = None
        if self.ledger.enabled and ledger_entry:
            # score the victims *before* eviction mutates the store — these
            # are the productivity values the policy actually ranked on
            estimator = getattr(policy, "estimator", None)
            victim_detail = []
            for pid in victims:
                group = self.store.peek(pid)
                victim_detail.append({
                    "pid": pid,
                    "bytes": group.size_bytes,
                    "score": (
                        estimator.score(group)
                        if estimator is not None
                        else group.productivity
                    ),
                })
        frozen = self.store.evict(victims)
        bytes_spilled = sum(f.size_bytes for f in frozen)
        for snapshot in frozen:
            self.disk.store_segment(
                SpillSegment(
                    partition_id=snapshot.pid,
                    generation=snapshot.generation,
                    frozen=snapshot,
                    size_bytes=snapshot.size_bytes,
                    spilled_at=now,
                    machine_name=self.machine.name,
                )
            )
        duration = (
            bytes_spilled * self.cost.serialize_cost_per_byte
            + self.disk.write_duration(bytes_spilled)
        )
        outcome = SpillOutcome(
            partition_ids=tuple(f.pid for f in frozen),
            bytes_spilled=bytes_spilled,
            duration=duration,
            forced=forced,
        )
        self.total_spilled_bytes += bytes_spilled
        self.spill_count += 1
        span = 0
        if self.tracer.enabled:
            span = self.tracer.begin_span(
                "spill",
                machine=self.machine.name,
                pids=outcome.partition_ids,
                bytes=bytes_spilled,
                forced=forced,
                policy=str(policy.name.value),
            )
        if self.ledger.enabled and ledger_entry:
            # link the decision to its span and record the realized cost;
            # the spilled bytes are cleanup debt until a cleanup merges or
            # skips the on-disk parts
            self.ledger.annotate(
                ledger_entry, trace_span=span, victims=victim_detail
            )
            self.ledger.realize(
                ledger_entry,
                executed=True,
                bytes_spilled=bytes_spilled,
                duration=duration,
                cleanup_debt_delta=bytes_spilled,
            )

        def _begin():
            def _finish():
                if span:
                    self.tracer.end_span(span, duration=duration)
                if on_done is not None:
                    on_done(outcome)

            return duration, _finish

        self.machine.submit(DynamicTask(_begin, priority=PRIORITY_CONTROL,
                                        label="spill"))
        return outcome
