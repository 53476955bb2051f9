"""Partition groups: the paper's unit of state adaptation.

Section 2 of the paper argues that for a *multi-input* operator the right
adaptation granularity is the **partition group** — all partitions sharing
one partition ID across *all* input streams (Figure 3(b)).  Keeping the
group together (a) keeps every probe local to one machine after relocation
and (b) makes spill cleanup timestamp-free, because a tuple only ever joins
against co-resident tuples of its own group instance.

The live representation inside a join instance's
:class:`~repro.engine.state_store.StateStore` is
:class:`~repro.engine.columns.ColumnarPartitionGroup`.  This module holds
its row-format counterparts: :class:`PartitionGroup`, the reference twin
the tests compare the live class against (nothing under ``repro``
instantiates it, as :func:`~repro.engine.reference.reference_join` is the
oracle for whole runs), and :class:`FrozenPartitionGroup`, the row-format
snapshot :func:`split_frozen` / :func:`merge_frozen` /
:func:`rebucket_frozen` emit and the live class thaws — the cold
interchange of repartitioning and cleanup.

The module also provides the small amount of join arithmetic shared by the
run-time probe and the cleanup merge: per-key match counting and (optional)
result materialisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping

from repro.engine.tuples import JoinResult, StreamTuple

#: Accounted per-group bookkeeping overhead in bytes (hash-table headers,
#: statistics counters).  Charged once per live group so that even an empty
#: group has a non-zero footprint.
GROUP_OVERHEAD_BYTES = 128


class PartitionGroup:
    """Row-format state of one partition ID across all join inputs: one
    ``{key: [tuple, ...]}`` table per input.  The reference twin of
    :class:`~repro.engine.columns.ColumnarPartitionGroup` — same interface,
    same observable behaviour, the obvious implementation.

    Parameters
    ----------
    pid:
        Partition ID (``0 .. n_partitions-1``).
    streams:
        Ordered input-stream names of the owning join.
    generation:
        Spill generation: 0 for the first in-memory instance of this ID on
        this machine, incremented each time the previous instance was
        spilled and a fresh one started (paper §3: "new tuples with the same
        partition ID may continue to accumulate to form a new partition
        group").
    created_at:
        Simulation time the instance came into existence.
    """

    __slots__ = (
        "pid",
        "streams",
        "generation",
        "created_at",
        "size_bytes",
        "tuple_count",
        "output_count",
        "_data",
    )

    def __init__(
        self,
        pid: int,
        streams: tuple[str, ...],
        *,
        generation: int = 0,
        created_at: float = 0.0,
    ) -> None:
        if len(streams) < 2:
            raise ValueError("a partition group needs at least two input streams")
        if len(set(streams)) != len(streams):
            raise ValueError(f"duplicate stream names in {streams!r}")
        self.pid = pid
        self.streams = streams
        self.generation = generation
        self.created_at = created_at
        self.size_bytes = GROUP_OVERHEAD_BYTES
        self.tuple_count = 0
        self.output_count = 0
        self._data: dict[str, dict[int, list[StreamTuple]]] = {s: {} for s in streams}

    # ------------------------------------------------------------------
    # State mutation
    # ------------------------------------------------------------------
    def insert(self, tup: StreamTuple) -> None:
        """Add a tuple to its input's hash table within this group."""
        try:
            table = self._data[tup.stream]
        except KeyError:
            raise KeyError(
                f"partition group {self.pid}: unknown stream {tup.stream!r} "
                f"(expected one of {self.streams!r})"
            ) from None
        table.setdefault(tup.key, []).append(tup)
        self.tuple_count += 1
        self.size_bytes += tup.size

    def probe(self, tup: StreamTuple, *, materialize: bool = False
              ) -> tuple[int, list[JoinResult]]:
        """Count (and optionally materialise) the matches a new tuple of
        stream ``tup.stream`` produces against the *other* inputs' states.

        This is the symmetric m-way hash-join step: the result count is the
        product of per-input match-list lengths.  The caller inserts the
        tuple separately (probe-then-insert), so a tuple never joins with
        itself.
        """
        match_lists: list[list[StreamTuple]] = []
        count = 1
        for stream in self.streams:
            if stream == tup.stream:
                continue
            matches = self._data[stream].get(tup.key)
            if not matches:
                return 0, []
            count *= len(matches)
            match_lists.append(matches)
        results: list[JoinResult] = []
        if materialize:
            own_index = self.streams.index(tup.stream)
            for combo in product(*match_lists):
                parts = list(combo)
                parts.insert(own_index, tup)
                results.append(JoinResult(key=tup.key, parts=tuple(parts), ts=tup.ts))
        return count, results

    def probe_windowed(
        self, tup: StreamTuple, window: float, *, materialize: bool = False
    ) -> tuple[int, list[JoinResult]]:
        """Window-filtered variant of :meth:`probe`.

        Match lists are filtered to tuples within ``window`` seconds of the
        probing tuple before counting/materialising.  The window is
        pairwise: every pair of joined tuples must be within ``window``
        seconds, i.e. ``max(ts) - min(ts) <= window``.  Filtering against
        the probe alone is insufficient for m >= 3 (two matches can
        straddle the probe), so combinations are enumerated — the result
        count is data-dependent in a way the plain count-product shortcut
        cannot express.
        """
        match_lists: list[list[StreamTuple]] = []
        for stream in self.streams:
            if stream == tup.stream:
                continue
            bucket = self._data[stream].get(tup.key)
            if not bucket:
                return 0, []
            candidates = [m for m in bucket if abs(m.ts - tup.ts) <= window]
            if not candidates:
                return 0, []
            match_lists.append(candidates)
        count = 0
        results: list[JoinResult] = []
        own_index = self.streams.index(tup.stream)
        for combo in product(*match_lists):
            ts_values = [t.ts for t in combo]
            ts_values.append(tup.ts)
            if max(ts_values) - min(ts_values) > window:
                continue
            count += 1
            if materialize:
                parts = list(combo)
                parts.insert(own_index, tup)
                results.append(JoinResult(key=tup.key, parts=tuple(parts), ts=tup.ts))
        return count, results

    def record_output(self, count: int) -> None:
        """Credit ``count`` produced results to this group's statistics."""
        if count < 0:
            raise ValueError(f"negative output count {count!r}")
        self.output_count += count

    def purge_older_than(self, horizon: float) -> tuple[int, int]:
        """Drop every tuple with ``ts < horizon``; returns
        ``(tuples_dropped, bytes_freed)``.

        Purging removes payload while ``output_count`` records lifetime
        results, which left alone would inflate ``P_output / P_size`` of
        purged groups and bias victim selection toward keeping them.  To
        keep the productivity estimate meaningful, the recorded outputs
        are attributed uniformly across the resident payload and scaled
        down by the surviving fraction (integer floor keeps the counter
        exact and deterministic), so the ratio is preserved across a purge.
        """
        dropped = 0
        freed = 0
        for stream in self.streams:
            table = self._data[stream]
            for key in list(table):
                bucket = table[key]
                keep = [t for t in bucket if t.ts >= horizon]
                if len(keep) != len(bucket):
                    dropped += len(bucket) - len(keep)
                    freed += sum(t.size for t in bucket if t.ts < horizon)
                    if keep:
                        table[key] = keep
                    else:
                        del table[key]
        if dropped:
            payload_before = self.size_bytes - GROUP_OVERHEAD_BYTES
            self.tuple_count -= dropped
            self.size_bytes -= freed
            payload_after = self.size_bytes - GROUP_OVERHEAD_BYTES
            if payload_before > 0:
                self.output_count = (
                    self.output_count * max(payload_after, 0) // payload_before
                )
        return dropped, freed

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def productivity(self) -> float:
        """The paper's partition-group productivity ``P_output / P_size``.

        An empty group reports ``+inf`` so it is never chosen as a spill
        victim (there is nothing to gain from pushing it).
        """
        payload = self.size_bytes - GROUP_OVERHEAD_BYTES
        if payload <= 0:
            return math.inf
        return self.output_count / payload

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        """Iterate this group's tuples of one input stream."""
        for bucket in self._data[stream].values():
            yield from bucket

    def keys_of(self, stream: str) -> tuple[int, ...]:
        return tuple(self._data[stream].keys())

    @property
    def is_empty(self) -> bool:
        return self.tuple_count == 0

    # ------------------------------------------------------------------
    # Snapshotting (spill / relocation payloads)
    # ------------------------------------------------------------------
    def freeze(self) -> "FrozenPartitionGroup":
        """Produce an immutable snapshot of the current contents."""
        data = {
            stream: {key: tuple(bucket) for key, bucket in table.items()}
            for stream, table in self._data.items()
        }
        return FrozenPartitionGroup(
            pid=self.pid,
            streams=self.streams,
            generation=self.generation,
            data=data,
            size_bytes=self.size_bytes,
            tuple_count=self.tuple_count,
            output_count=self.output_count,
        )

    @classmethod
    def thaw(cls, frozen: "FrozenPartitionGroup", *, created_at: float = 0.0
             ) -> "PartitionGroup":
        """Rebuild a group from a snapshot."""
        group = cls(frozen.pid, frozen.streams, generation=frozen.generation,
                    created_at=created_at)
        for stream, table in frozen.data.items():
            for key, bucket in table.items():
                group._data[stream][key] = list(bucket)
        group.tuple_count = frozen.tuple_count
        group.size_bytes = frozen.size_bytes
        group.output_count = frozen.output_count
        return group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionGroup(pid={self.pid}, gen={self.generation}, "
            f"tuples={self.tuple_count}, out={self.output_count}, "
            f"{self.size_bytes}B)"
        )


@dataclass(frozen=True)
class FrozenPartitionGroup:
    """Immutable row-format snapshot of a partition group.

    What :func:`split_frozen`, :func:`merge_frozen` and
    :func:`rebucket_frozen` build (and :meth:`PartitionGroup.freeze`
    returns); a store installs one by thawing it into columns.  Spill
    segments, relocation transfers and checkpoints of live groups carry
    :class:`~repro.engine.columns.FrozenColumnGroup` instead, which
    exposes the same reading interface.
    """

    pid: int
    streams: tuple[str, ...]
    generation: int
    data: Mapping[str, Mapping[int, tuple[StreamTuple, ...]]]
    size_bytes: int
    tuple_count: int
    output_count: int

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        for bucket in self.data[stream].values():
            yield from bucket

    def idents(self) -> frozenset[tuple[str, int]]:
        """Global ``(stream, seq)`` identities of every snapshotted tuple."""
        return frozenset(
            tup.ident for table in self.data.values()
            for bucket in table.values() for tup in bucket
        )

    def key_counts(self, stream: str) -> dict[int, int]:
        """``{key: tuple count}`` histogram for one input stream."""
        return {key: len(bucket) for key, bucket in self.data[stream].items()}

    def keys(self) -> set[int]:
        """All join-key values present in any input of this snapshot."""
        keys: set[int] = set()
        for table in self.data.values():
            keys.update(table)
        return keys


def _build_frozen(pid: int, streams: tuple[str, ...], generation: int,
                  data: dict[str, dict[int, tuple[StreamTuple, ...]]],
                  output_count: int) -> FrozenPartitionGroup:
    tuple_count = sum(len(b) for t in data.values() for b in t.values())
    payload = sum(tup.size for t in data.values() for b in t.values()
                  for tup in b)
    return FrozenPartitionGroup(
        pid=pid,
        streams=streams,
        generation=generation,
        data=data,
        size_bytes=GROUP_OVERHEAD_BYTES + payload,
        tuple_count=tuple_count,
        output_count=output_count,
    )


def split_frozen(frozen, children: tuple[int, int], chooser
                 ) -> tuple[FrozenPartitionGroup, FrozenPartitionGroup]:
    """Partition a frozen group's key range into two child snapshots.

    ``chooser(key)`` returns the child index (0 or 1) — the refinement bit
    the routing trie will consult for this node.  Works on any snapshot
    exposing the ``data`` mapping interface (row-format or columnar).

    Accounting follows the windowed-purge pattern: the parent's lifetime
    ``output_count`` is attributed uniformly across its payload bytes and
    apportioned by each child's surviving payload share — child 0 gets the
    integer floor, child 1 the remainder, so the sum is conserved exactly
    and productivity ratios survive the split.
    """
    streams = tuple(frozen.streams)
    datas: tuple[dict, dict] = ({s: {} for s in streams}, {s: {} for s in streams})
    for stream in streams:
        for key, bucket in frozen.data[stream].items():
            datas[chooser(key)][stream][key] = tuple(bucket)
    payloads = [
        sum(tup.size for t in d.values() for b in t.values() for tup in b)
        for d in datas
    ]
    parent_payload = payloads[0] + payloads[1]
    if parent_payload > 0:
        out0 = frozen.output_count * payloads[0] // parent_payload
    else:
        out0 = 0
    out1 = frozen.output_count - out0
    return (
        _build_frozen(children[0], streams, frozen.generation, datas[0], out0),
        _build_frozen(children[1], streams, frozen.generation, datas[1], out1),
    )


def merge_frozen(parent: int, parts) -> FrozenPartitionGroup:
    """Fold sibling child snapshots back into one parent snapshot.

    ``output_count`` is the plain sum (the outputs really were produced by
    this state); the generation is the max so a later spill of the merged
    group orders after every prior child segment.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_frozen needs at least one part")
    streams = tuple(parts[0].streams)
    data: dict[str, dict[int, tuple[StreamTuple, ...]]] = {s: {} for s in streams}
    for part in parts:
        if tuple(part.streams) != streams:
            raise ValueError("cannot merge snapshots of different joins")
        for stream in streams:
            table = data[stream]
            for key, bucket in part.data[stream].items():
                if key in table:
                    merged = sorted(
                        list(table[key]) + list(bucket),
                        key=lambda t: (t.ts, t.stream, t.seq),
                    )
                    table[key] = tuple(merged)
                else:
                    table[key] = tuple(bucket)
    return _build_frozen(
        parent, streams, max(p.generation for p in parts), data,
        sum(p.output_count for p in parts),
    )


def rebucket_frozen(frozen, route) -> dict[int, FrozenPartitionGroup]:
    """Re-key a snapshot by the *final* routing function.

    A disk segment spilled before a split was frozen under the parent pid
    and holds both children's keys; cleanup must merge each key's parts
    under the pid it routes to *now*, or cross-segment results would pair
    tuples of distinct final groups (never joinable) and miss pairs within
    one.  Returns ``{final_pid: snapshot}``; the common case — every key
    still routes to the snapshot's own pid — returns the input unchanged.

    ``output_count`` is apportioned by payload share exactly like
    :func:`split_frozen` (largest-share bucket absorbs the rounding
    remainder via the deterministic sorted-pid walk).
    """
    pids = {route(key) for key in frozen.keys()}
    if not pids or pids == {frozen.pid}:
        return {frozen.pid: frozen}
    streams = tuple(frozen.streams)
    datas: dict[int, dict[str, dict[int, tuple[StreamTuple, ...]]]] = {
        pid: {s: {} for s in streams} for pid in sorted(pids)
    }
    for stream in streams:
        for key, bucket in frozen.data[stream].items():
            datas[route(key)][stream][key] = tuple(bucket)
    payloads = {
        pid: sum(tup.size for t in d.values() for b in t.values() for tup in b)
        for pid, d in datas.items()
    }
    total_payload = sum(payloads.values())
    out: dict[int, FrozenPartitionGroup] = {}
    remaining = frozen.output_count
    ordered = sorted(datas)
    for i, pid in enumerate(ordered):
        if i == len(ordered) - 1:
            share = remaining
        elif total_payload > 0:
            share = frozen.output_count * payloads[pid] // total_payload
        else:
            share = 0
        remaining -= share
        out[pid] = _build_frozen(
            pid, streams, frozen.generation, datas[pid], share
        )
    return out


def full_join_count(parts_by_stream: Mapping[str, Mapping[int, int]]) -> int:
    """Number of m-way join results over per-stream ``key -> tuple count``
    histograms: ``sum over keys of the product of per-stream counts``.

    Shared by the workload analyser and the cleanup-phase estimators.
    """
    if not parts_by_stream:
        return 0
    streams = list(parts_by_stream)
    common: set[int] | None = None
    for stream in streams:
        keys = set(parts_by_stream[stream])
        common = keys if common is None else (common & keys)
    total = 0
    for key in common or ():
        n = 1
        for stream in streams:
            n *= parts_by_stream[stream][key]
        total += n
    return total
