"""Partition-group productivity estimation (paper §2).

The paper's metric is the cumulative ratio ``P_output / P_size`` per
partition group; both adaptation policies rank groups by it (spill the
least productive, relocate the most productive).  The paper notes that
"alternate ways of computing the productivity value exist", e.g. weighting
recent behaviour more heavily — :class:`WindowedProductivity` implements
that amortised-weight variant, and the estimator protocol keeps the two
interchangeable ("alternative cost models could be easily plugged into our
system").

The rankings below re-sort all groups on every call — the correct general
path for stateful estimators like :class:`WindowedProductivity`, whose
scores change on `observe` ticks without the groups themselves mutating.
For the stateless :class:`CumulativeProductivity` (scores are a pure
function of current group state), the spill policies and the local
controller instead read the store's incrementally maintained victim index
(`StateStore.pick_victims`, DESIGN.md §9), which yields the same order —
including the pid tie-breaks — without the full sort.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable

from repro.engine.columns import ColumnarPartitionGroup


class ProductivityEstimator(ABC):
    """Ranks partition groups by estimated productivity."""

    @abstractmethod
    def score(self, group: ColumnarPartitionGroup) -> float:
        """Estimated productivity of one group (higher = more productive)."""

    def rank_ascending(
        self, groups: Iterable[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        """Groups ordered least-productive first (spill-victim order).

        Ties break on partition ID for determinism.
        """
        return sorted(groups, key=lambda g: (self.score(g), g.pid))

    def rank_descending(
        self, groups: Iterable[ColumnarPartitionGroup]
    ) -> list[ColumnarPartitionGroup]:
        """Groups ordered most-productive first (relocation-pick order)."""
        return sorted(groups, key=lambda g: (-self.score(g), g.pid))


class CumulativeProductivity(ProductivityEstimator):
    """The paper's §2 metric: lifetime ``P_output / P_size``."""

    def score(self, group: ColumnarPartitionGroup) -> float:
        return group.productivity


class WindowedProductivity(ProductivityEstimator):
    """Amortised-weight productivity: EWMA over observation deltas.

    On each :meth:`observe` pass the estimator computes every group's
    productivity over the interval since the previous pass
    (``Δoutput / Δsize``, falling back to the cumulative value when the
    group did not grow) and folds it into an exponentially weighted moving
    average with smoothing factor ``alpha``.  ``alpha = 1`` reacts
    instantly; small ``alpha`` approximates the cumulative metric.
    """

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ewma: dict[int, float] = {}
        self._last_output: dict[int, int] = {}
        self._last_size: dict[int, int] = {}

    def observe(self, groups: Iterable[ColumnarPartitionGroup]) -> None:
        """Record one statistics pass (call on each stats-timer tick)."""
        for group in groups:
            d_out = group.output_count - self._last_output.get(group.pid, 0)
            d_size = group.size_bytes - self._last_size.get(group.pid, 0)
            if d_size > 0:
                instant = d_out / d_size
            elif math.isfinite(group.productivity):
                instant = group.productivity
            else:
                instant = 0.0
            prev = self._ewma.get(group.pid)
            self._ewma[group.pid] = (
                instant if prev is None else self.alpha * instant + (1 - self.alpha) * prev
            )
            self._last_output[group.pid] = group.output_count
            self._last_size[group.pid] = group.size_bytes

    def forget(self, pid: int) -> None:
        """Drop history for a group that left this machine (spill/relocate)."""
        self._ewma.pop(pid, None)
        self._last_output.pop(pid, None)
        self._last_size.pop(pid, None)

    def score(self, group: ColumnarPartitionGroup) -> float:
        value = self._ewma.get(group.pid)
        if value is None:
            return group.productivity
        return value


def machine_productivity_rate(outputs_delta: int, group_count: int) -> float:
    """The active-disk strategy's machine-level *average productivity rate*
    ``R``: tuples generated during the sampling period divided by the number
    of partition groups on the machine (paper §5.3)."""
    if group_count <= 0:
        return 0.0
    return outputs_delta / group_count
