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
its row-format snapshot, :class:`FrozenPartitionGroup`, which
:func:`split_frozen` / :func:`merge_frozen` / :func:`rebucket_frozen` emit
and the live class thaws — the cold interchange of repartitioning and
cleanup — and :data:`GROUP_OVERHEAD_BYTES`, the per-group footprint every
representation charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.engine.tuples import StreamTuple

#: Accounted per-group bookkeeping overhead in bytes (hash-table headers,
#: statistics counters).  Charged once per live group so that even an empty
#: group has a non-zero footprint.
GROUP_OVERHEAD_BYTES = 128


@dataclass(frozen=True)
class FrozenPartitionGroup:
    """Immutable row-format snapshot of a partition group.

    What :func:`split_frozen`, :func:`merge_frozen` and
    :func:`rebucket_frozen` build; a store installs one by thawing it into
    columns.  Spill
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
