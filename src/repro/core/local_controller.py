"""Local adaptation controller: the per-engine half of the tiered design.

The paper splits adaptation decisions in two (§2, Figure 4): the global
coordinator makes *coarse-grained* choices — when to adapt, how many bytes,
between which machines — while each query engine's **local adaptation
controller** picks the *concrete partition groups*, because only the local
engine holds per-group statistics.  This module is that local half:

* ``computeSpillAmount`` / spill victim choice (least productive first);
* ``computePartsToMove`` for relocation (most productive first — keep the
  productive state in memory, hand it to a machine that has room);
* the ``ss_timer`` memory check of Algorithms 1-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.config import AdaptationConfig
from repro.core.productivity import (
    CumulativeProductivity,
    ProductivityEstimator,
    WindowedProductivity,
)
from repro.core.spill import SpillExecutor, SpillOutcome, SpillPolicy, make_spill_policy
from repro.engine.columns import ColumnarPartitionGroup
from repro.engine.state_store import StateStore


def select_relocation_parts(
    groups: Sequence[ColumnarPartitionGroup],
    amount: int,
    estimator: ProductivityEstimator,
) -> tuple[tuple[int, ...], int]:
    """``computePartsToMove``: most-productive groups totalling ~``amount``.

    Mirrors the spill selection's always-make-progress rule: the group that
    crosses the byte boundary is included.  Returns ``(pids, total_bytes)``.
    """
    if amount <= 0:
        return (), 0
    chosen: list[int] = []
    total = 0
    for group in estimator.rank_descending(groups):
        if group.is_empty:
            continue
        chosen.append(group.pid)
        total += group.size_bytes
        if total >= amount:
            break
    return tuple(chosen), total


@dataclass
class ControllerDecision:
    """What the ``ss_timer`` check decided (for logging/testing)."""

    spilled: bool
    outcome: SpillOutcome | None = None
    reason: str = ""


class LocalAdaptationController:
    """Per-engine adaptation logic over one join instance's state store.

    Parameters
    ----------
    store:
        The join instance's state store.
    executor:
        The machine's spill executor.
    config:
        Adaptation tunables.
    """

    def __init__(
        self,
        store: StateStore,
        executor: SpillExecutor,
        config: AdaptationConfig,
        *,
        seed: int = 11,
    ) -> None:
        self.store = store
        self.executor = executor
        self.config = config
        if config.productivity_alpha is None:
            self.estimator: ProductivityEstimator = CumulativeProductivity()
        else:
            self.estimator = WindowedProductivity(alpha=config.productivity_alpha)
        self.spill_policy: SpillPolicy = make_spill_policy(
            config.spill_policy, estimator=self.estimator, seed=seed
        )

    # ------------------------------------------------------------------
    # Statistics upkeep
    # ------------------------------------------------------------------
    def observe(self) -> None:
        """Feed the windowed estimator (no-op for the cumulative metric)."""
        if isinstance(self.estimator, WindowedProductivity):
            self.estimator.observe(self.store.groups())

    # ------------------------------------------------------------------
    # State spill (ss_timer path, Algorithms 1-2)
    # ------------------------------------------------------------------
    def run_spill(self, *, now: float, amount: int | None = None,
                  forced: bool = False, on_done=None,
                  ledger_entry: int = 0) -> SpillOutcome | None:
        """Execute one spill of ``amount`` bytes (default: the configured
        fraction of resident state — ``computeSpillAmount``)."""
        if amount is None:
            amount = self.executor.compute_amount(self.config.spill_fraction)
        outcome = self.executor.execute(
            self.spill_policy, amount, now=now, forced=forced, on_done=on_done,
            ledger_entry=ledger_entry,
        )
        if outcome is not None and isinstance(self.estimator, WindowedProductivity):
            for pid in outcome.partition_ids:
                self.estimator.forget(pid)
        return outcome

    # ------------------------------------------------------------------
    # State relocation (cptv path)
    # ------------------------------------------------------------------
    def compute_parts_to_move(
        self, amount: int, scope: str | None = None
    ) -> tuple[tuple[int, ...], int]:
        """Pick the partitions one relocation should carry.

        Partition scope (the paper): the most productive groups totalling
        ~``amount`` bytes.  Operator scope (the §6 Borealis baseline, and
        every graceful drain): everything this instance holds, regardless
        of ``amount``.  ``scope`` overrides the configured default.
        """
        from repro.core.config import RelocationScope

        if scope is None:
            scope = self.config.relocation_scope.value
        if scope == RelocationScope.OPERATOR.value:
            pids = tuple(
                g.pid for g in self.store.groups() if not g.is_empty
            )
            total = sum(self.store.peek(p).size_bytes for p in pids)
            return pids, total
        if type(self.estimator) is CumulativeProductivity:
            # served from the store's lazy victim index: same parts, same
            # order as the ranked path, without re-sorting every group
            from repro.engine.state_store import ORDER_PRODUCTIVITY_DESC

            pids = tuple(self.store.pick_victims(ORDER_PRODUCTIVITY_DESC, amount))
            total = sum(self.store.peek(p).size_bytes for p in pids)
            return pids, total
        return select_relocation_parts(list(self.store.groups()), amount, self.estimator)
