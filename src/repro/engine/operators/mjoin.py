"""Symmetric multi-way hash join — the paper's representative
state-intensive operator.

The logical operator (:class:`MJoin`) describes the join: the ordered input
streams, the shared join domain (all join predicates on one column set, the
paper's footnote-2 assumption) and an optional sliding time window.  Each
machine hosts one :class:`MJoinInstance` processing a disjoint subset of
partition groups, backed by a :class:`~repro.engine.state_store.StateStore`
charged against that machine's memory.

Semantics
---------
For each arriving tuple *t* of input *i* within partition group *p*:

1. probe the states of every *other* input of *p* for tuples matching
   ``t.key`` (and, if windowed, within ``window`` seconds of ``t.ts``);
2. emit the cross product of the match lists (counted always; materialised
   when the run collects results for correctness checking);
3. insert *t* into input *i*'s state of *p*.

Because probe precedes insert and all inputs of a partition group live on
one machine, every result combination of co-resident tuples is produced
exactly once at run time — the property the spill-cleanup merge relies on.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.machine import Machine
from repro.engine.operators.base import Operator
from repro.engine.state_store import StateStore
from repro.engine.tuples import JoinResult, Schema, StreamTuple


class MJoin(Operator):
    """Logical description of a symmetric m-way equi-join.

    Parameters
    ----------
    name:
        Operator name.
    schemas:
        One :class:`~repro.engine.tuples.Schema` per input, in join order.
    window:
        Optional sliding-window width in seconds: tuples join only when all
        pairwise timestamp distances are at most ``window``.  ``None`` (the
        paper's long-running finite query setting) joins across all history.
    """

    def __init__(self, name: str, schemas: tuple[Schema, ...], *,
                 window: float | None = None) -> None:
        super().__init__(name)
        if len(schemas) < 2:
            raise ValueError("an m-way join needs at least two inputs")
        names = [s.name for s in schemas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate input streams {names!r}")
        if window is not None and window <= 0:
            raise ValueError("window must be positive (or None)")
        self.schemas = schemas
        self.window = window

    @property
    def stream_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.schemas)

    @property
    def arity(self) -> int:
        return len(self.schemas)

    def process(self, item: StreamTuple) -> Iterable[JoinResult]:  # pragma: no cover
        raise NotImplementedError(
            "MJoin is a logical descriptor; processing happens in the "
            "partitioned MJoinInstance objects created by deployment"
        )

    def make_instance(self, machine: Machine) -> "MJoinInstance":
        """Create the physical instance hosted on ``machine``."""
        return MJoinInstance(self, machine)


class MJoinInstance:
    """One machine's physical instance of a partitioned :class:`MJoin`.

    Owns the :class:`~repro.engine.state_store.StateStore` for the partition
    groups currently mapped to its machine.  All adaptation entry points
    (evict for spill/relocation, install for relocation) operate on this
    store.
    """

    def __init__(self, join: MJoin, machine: Machine) -> None:
        self.join = join
        self.machine = machine
        self.store = StateStore(machine, join.stream_names)
        self.results_count = 0
        self.tuples_in = 0

    def process(
        self, pid: int, tup: StreamTuple, *, now: float = 0.0, materialize: bool = False
    ) -> tuple[int, list[JoinResult]]:
        """Probe-then-insert one routed tuple (see module docstring).

        Windowed and unwindowed joins share
        :meth:`~repro.engine.state_store.StateStore.probe_insert`, so both
        go through the same accounting funnel — in particular the per-pid
        mutation counter incremental checkpoints depend on (a windowed
        side-path that skipped it once caused stale snapshots and silent
        state loss after crashes).
        """
        self.tuples_in += 1
        count, results = self.store.probe_insert(
            pid, tup, now=now, materialize=materialize, window=self.join.window
        )
        self.results_count += count
        return count, results

    def process_batch(
        self,
        batch: list[tuple[int, StreamTuple]],
        *,
        now: float = 0.0,
        materialize: bool = False,
    ) -> tuple[int, list[JoinResult]]:
        """Probe-then-insert a whole delivered batch (micro-batched path).

        Produces exactly the results and statistics of calling
        :meth:`process` per tuple in batch order, with the cross-tuple
        bookkeeping amortised (see
        :meth:`~repro.engine.state_store.StateStore.probe_insert_batch`).
        """
        self.tuples_in += len(batch)
        total, results = self.store.probe_insert_batch(
            batch, now=now, materialize=materialize, window=self.join.window
        )
        self.results_count += total
        return total, results

    def process_columns(
        self,
        cb,
        *,
        now: float = 0.0,
        materialize: bool = False,
    ) -> tuple[int, list[JoinResult]]:
        """Probe-then-insert a routed :class:`~repro.engine.columns.ColumnBatch`
        (column delivery).

        Produces exactly the results and statistics of calling
        :meth:`process` per row in batch order, operating on flat columns
        throughout; materialised results come back as a lazy
        :class:`~repro.engine.columns.ResultBatch` (see
        :meth:`~repro.engine.state_store.StateStore.probe_insert_columns`).
        """
        self.tuples_in += len(cb)
        total, results = self.store.probe_insert_columns(
            cb, now=now, materialize=materialize, window=self.join.window
        )
        self.results_count += total
        return total, results

    def purge_window(self, watermark: float) -> int:
        """Drop tuples older than ``watermark - window`` from every group.

        Only meaningful for windowed joins: expired tuples can never join
        again, so their memory is reclaimed.  Returns the number of tuples
        purged.  This is the state-purging alternative the paper contrasts
        with (its own setting has no window, hence the monotonic growth that
        motivates spill/relocation).  Purged groups are marked mutated so
        incremental checkpoints re-snapshot them, and their recorded
        outputs are scaled to the surviving payload so productivity is not
        inflated (see
        :meth:`~repro.engine.state_store.StateStore.purge_window`).
        """
        window = self.join.window
        if window is None:
            raise ValueError("purge_window requires a windowed join")
        return self.store.purge_window(watermark - window)

    @property
    def memory_bytes(self) -> int:
        return self.store.total_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MJoinInstance({self.join.name!r} @ {self.machine.name!r}, "
            f"groups={len(self.store)}, out={self.results_count})"
        )
