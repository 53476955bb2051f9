"""Incremental grouped aggregation (non-blocking GROUP BY).

Implements the terminal ``GROUP BY brokerName, min(price)`` of the paper's
motivating Query 1: a non-blocking aggregate that consumes the join's output
stream and emits an :class:`AggregateUpdate` whenever a group's aggregate
value *changes*, so downstream decision-support consumers always hold the
current answer.

Supported aggregate functions: ``min``, ``max``, ``sum``, ``count``,
``avg``.  State per group is O(1), so — as the paper notes for stateless
operators — this operator is never an adaptation target; it exists to run
complete, realistic pipelines in the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.engine.operators.base import Operator

_SUPPORTED = ("min", "max", "sum", "count", "avg")


@dataclass(frozen=True)
class AggregateUpdate:
    """One change notification: ``group`` now aggregates to ``value``."""

    group: Any
    value: float
    ts: float


class GroupByAggregate(Operator):
    """Streaming grouped aggregate.

    Parameters
    ----------
    name:
        Operator name.
    key_fn:
        Extracts the grouping key from an input item (e.g. the broker name
        out of a :class:`~repro.engine.tuples.JoinResult`).
    value_fn:
        Extracts the numeric value to aggregate.
    fn:
        One of ``min`` / ``max`` / ``sum`` / ``count`` / ``avg``.

    Emitted updates carry the input item's ``ts`` attribute (``0.0`` when
    it has none) as their event timestamp.
    """

    def __init__(
        self,
        name: str,
        key_fn: Callable[[Any], Any],
        value_fn: Callable[[Any], float],
        fn: str = "min",
    ) -> None:
        super().__init__(name)
        if fn not in _SUPPORTED:
            raise ValueError(f"unsupported aggregate {fn!r}; pick one of {_SUPPORTED}")
        self.key_fn = key_fn
        self.value_fn = value_fn
        self.fn = fn
        # per-group accumulators: (current_answer, sum, count)
        self._state: dict[Any, tuple[float, float, int]] = {}

    def process(self, item: Any) -> Iterable[AggregateUpdate]:
        self.inputs_seen += 1
        group = self.key_fn(item)
        value = float(self.value_fn(item))
        ts = getattr(item, "ts", 0.0)
        prev = self._state.get(group)
        if prev is None:
            total, count = value, 1
            answer = self._answer(value, value, total, count)
            changed = True
        else:
            prev_answer, prev_total, prev_count = prev
            total = prev_total + value
            count = prev_count + 1
            answer = self._answer(prev_answer, value, total, count)
            changed = answer != prev_answer
        self._state[group] = (answer, total, count)
        if changed:
            self.outputs_emitted += 1
            yield AggregateUpdate(group=group, value=answer, ts=ts)

    def _answer(self, current: float, new: float, total: float, count: int) -> float:
        if self.fn == "min":
            return min(current, new)
        if self.fn == "max":
            return max(current, new)
        if self.fn == "sum":
            return total
        if self.fn == "count":
            return float(count)
        return total / count  # avg

    def current(self, group: Any) -> float | None:
        """The present aggregate value of ``group`` (``None`` if unseen)."""
        state = self._state.get(group)
        return None if state is None else state[0]

    def groups(self) -> dict[Any, float]:
        """Snapshot of all groups' current values."""
        return {g: s[0] for g, s in self._state.items()}

    @property
    def state_bytes(self) -> int:
        """O(1)-per-group accumulator footprint (3 floats + key ref)."""
        return 48 * len(self._state)
