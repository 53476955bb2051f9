"""Cleanup phase: duplicate-free merging of spilled state (paper §3).

State spill parks partition groups on disk *inactive*: tuples arriving
after the spill join only against the fresh in-memory instance, so results
combining tuples across instances are missed at run time.  The cleanup
phase produces exactly those missing results:

1. organise the disk-resident segments by partition ID (across all
   machines — a partition that relocated after spilling leaves segments on
   its former host);
2. per partition ID, order its *parts* (disk segments oldest-first, then
   the final memory-resident group) and merge them pairwise-incrementally:
   for each new part ``P`` against the cumulative state ``U``, emit every
   result that mixes at least one tuple from ``P`` with at least one from
   ``U`` — the incremental view-maintenance delta the paper cites [13];
3. results entirely within one part were already produced at run time (the
   probe-then-insert join emits all co-resident combinations), so the mixed
   delta is exactly the missing set, each member produced exactly once.

Because the adaptation unit is the partition *group* (all inputs together),
no timestamps or push-time bookkeeping are needed — the simplification the
paper's §2 argues for against XJoin-style per-input spilling.

The module offers both a **counting** merge (per-key histogram arithmetic,
used by the large benchmark runs) and a **materialising** merge (actual
:class:`~repro.engine.tuples.JoinResult` objects, used by the correctness
tests to compare against a reference join).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from repro.cluster.disk import Disk, SpillSegment
from repro.core.config import CostModel
from repro.engine.columns import FrozenColumnGroup
from repro.engine.tuples import JoinResult, StreamTuple
from repro.obs.trace import NULL_TRACER


def _cross_count(count_maps: Sequence[Mapping[int, int]]) -> int:
    """Join cardinality over per-stream key->count histograms."""
    if not count_maps:
        return 0
    smallest = min(count_maps, key=len)
    total = 0
    for key, base in smallest.items():
        n = base
        for other in count_maps:
            if other is smallest:
                continue
            c = other.get(key)
            if not c:
                n = 0
                break
            n *= c
        total += n
    return total


def merge_missing_count(
    parts: Sequence[FrozenColumnGroup], streams: Sequence[str]
) -> int:
    """Number of missing results across the parts of one partition ID.

    Incremental delta per part: ``total(U ∪ P) − total(U) − total(P)``
    counts exactly the results mixing U and P tuples.
    """
    if len(parts) < 2:
        return 0
    cumulative: dict[str, dict[int, int]] = {s: {} for s in streams}
    missing = 0
    for i, part in enumerate(parts):
        # every stream's histogram in one pass over the part's rows — no
        # tuple materialisation for the counting merge
        counts = part.key_counts()
        if i > 0:
            merged = {
                s: _merged_counts(cumulative[s], counts.get(s, {})) for s in streams
            }
            total_merged = _cross_count([merged[s] for s in streams])
            total_u = _cross_count([cumulative[s] for s in streams])
            total_p = _cross_count([counts.get(s, {}) for s in streams])
            missing += total_merged - total_u - total_p
        for s in streams:
            dst = cumulative[s]
            for key, c in counts.get(s, {}).items():
                dst[key] = dst.get(key, 0) + c
    return missing


def _merged_counts(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    merged = dict(a)
    for key, c in b.items():
        merged[key] = merged.get(key, 0) + c
    return merged


def merge_missing_results(
    parts: Sequence[FrozenColumnGroup], streams: Sequence[str],
    *, window: float | None = None,
) -> list[JoinResult]:
    """Materialise the missing results across the parts of one partition ID.

    For each new part ``P`` the mixed delta is enumerated explicitly: every
    per-stream choice of source in ``{U, P}`` except all-U (emitted by an
    earlier delta or at run time) and all-P (emitted at run time within the
    part's live instance).  ``2^m − 2`` combinations for an m-way join.

    For a *windowed* join pass ``window``: combinations whose tuples span
    more than ``window`` seconds are filtered out, matching the run-time
    probe semantics.
    """
    if len(parts) < 2:
        return []
    cumulative: dict[str, dict[int, list[StreamTuple]]] = {s: {} for s in streams}
    results: list[JoinResult] = []
    m = len(streams)
    for i, part in enumerate(parts):
        part_lists: dict[str, Mapping[int, tuple[StreamTuple, ...]]] = {
            s: part.data.get(s, {}) for s in streams
        }
        if i > 0:
            for mask in range(1, (1 << m) - 1):
                # bit j set -> stream j drawn from the new part P
                sources = [
                    part_lists[s] if (mask >> j) & 1 else cumulative[s]
                    for j, s in enumerate(streams)
                ]
                keys = set(sources[0])
                for src in sources[1:]:
                    keys &= set(src)
                for key in keys:
                    lists = [src[key] for src in sources]
                    for combo in product(*lists):
                        if window is not None:
                            ts_values = [t.ts for t in combo]
                            if max(ts_values) - min(ts_values) > window:
                                continue
                        results.append(
                            JoinResult(key=key, parts=tuple(combo), ts=combo[0].ts)
                        )
        for j, s in enumerate(streams):
            dst = cumulative[s]
            for key, bucket in part_lists[s].items():
                dst.setdefault(key, []).extend(bucket)
    return results


@dataclass
class MachineCleanup:
    """Per-machine cleanup accounting."""

    machine: str
    bytes_read: int = 0
    read_duration: float = 0.0
    merge_duration: float = 0.0
    results: int = 0

    @property
    def duration(self) -> float:
        return self.read_duration + self.merge_duration


@dataclass
class CleanupReport:
    """Outcome of one cleanup phase.

    ``wall_duration`` assumes machines clean their shares in parallel (the
    paper's §5.2 point: lazy-disk finishes cleanup ~4x faster because the
    disk-resident work is spread across machines instead of piled on one).
    """

    per_machine: dict[str, MachineCleanup] = field(default_factory=dict)
    missing_results: int = 0
    partitions_merged: int = 0
    segments_merged: int = 0
    results: list[JoinResult] = field(default_factory=list)

    @property
    def wall_duration(self) -> float:
        if not self.per_machine:
            return 0.0
        return max(mc.duration for mc in self.per_machine.values())

    @property
    def total_duration(self) -> float:
        return sum(mc.duration for mc in self.per_machine.values())

    def machine_stats(self, name: str) -> MachineCleanup:
        return self.per_machine.setdefault(name, MachineCleanup(machine=name))


class CleanupExecutor:
    """Runs the post-run-time cleanup over a deployment's disks and stores.

    Parameters
    ----------
    streams:
        The join's ordered input-stream names.
    cost:
        Cost model used to account read/merge durations.
    """

    def __init__(self, streams: Sequence[str], cost: CostModel,
                 *, window: float | None = None, tracer=None,
                 stage: str = "") -> None:
        self.streams = tuple(streams)
        self.cost = cost
        #: window of the owning join; a windowed cleanup must filter
        #: combinations by timestamp distance, so counting falls back to
        #: materialisation internally
        self.window = window
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: label carried in trace events: the owning deployment's
        #: namespace without its colon ("" standalone)
        self.stage = stage

    def run(
        self,
        disks: Mapping[str, Disk],
        memory_parts: Mapping[int, tuple[str, FrozenColumnGroup]],
        *,
        materialize: bool = False,
        route=None,
        late: Mapping[int, FrozenColumnGroup] | None = None,
    ) -> CleanupReport:
        """Merge all spilled segments with their final memory parts.

        Parameters
        ----------
        disks:
            Machine name -> disk holding that machine's spill segments.
        memory_parts:
            Partition ID -> (owning machine, snapshot of the final
            memory-resident group), for partitions still live at end of run.
        materialize:
            Produce actual :class:`JoinResult` objects (correctness mode).
        route:
            Final routing function ``key -> pid`` (the splits' end-of-run
            table).  Required once the run repartitioned: a segment spilled
            before a split was frozen under the retired parent pid and
            holds both children's keys, so its parts are re-bucketed by the
            final routing before the per-pid merge.  ``None`` (no
            repartitioning) keeps the segment's own pid.
        late:
            Partition ID -> part of input tuples that arrived after the run
            (a pipeline stage's share of its predecessor's cleanup
            results), merged after the disk and memory parts.  A pid with
            no disk part merges where its memory part lives.
        """
        late = late or {}
        report = CleanupReport()
        tracer = self.tracer
        span = 0
        if tracer.enabled:
            span = tracer.begin_span("cleanup", stage=self.stage)
        # 1. organise segment parts by *final* partition ID across all
        # machines; without a route every segment contributes one part
        # under its own pid
        by_pid: dict[int, list[tuple[SpillSegment, FrozenColumnGroup]]] = {}
        for disk in disks.values():
            for segment in disk.segments:
                if route is None:
                    buckets = {segment.partition_id: segment.frozen}
                else:
                    buckets = segment.frozen.rebucket(route)
                for pid, part in sorted(buckets.items()):
                    by_pid.setdefault(pid, []).append((segment, part))
        charged: set[int] = set()
        for pid in sorted(by_pid.keys() | late.keys()):
            entries = by_pid.get(pid, [])
            # child parts inherit their segment's spill order
            entries.sort(key=lambda e: (e[0].spilled_at, e[0].generation))
            parts: list[FrozenColumnGroup] = [part for __, part in entries]
            # reading each segment is charged once, to the disk holding it
            for segment, __ in entries:
                if id(segment) in charged:
                    continue
                charged.add(id(segment))
                stats = report.machine_stats(segment.machine_name)
                stats.bytes_read += segment.size_bytes
                disk = disks[segment.machine_name]
                stats.read_duration += disk.read_duration(segment.size_bytes)
                disk.account_read(segment.size_bytes)
            # the merge runs where most of this partition's disk bytes sit
            # (ship the smaller parts to the bigger ones) — this is what
            # makes lazy-disk's cleanup parallel: its spilled state is
            # spread across machines (paper §5.2)
            bytes_per_machine: dict[str, int] = {}
            for segment, part in entries:
                size = segment.size_bytes if route is None else part.size_bytes
                bytes_per_machine[segment.machine_name] = (
                    bytes_per_machine.get(segment.machine_name, 0) + size
                )
            mem = memory_parts.get(pid)
            if mem is not None:
                __, mem_part = mem
                if mem_part.tuple_count > 0:
                    parts.append(mem_part)
            if pid in late:
                parts.append(late[pid])
            if len(parts) < 2:
                if span:
                    tracer.event(
                        "cleanup.skip", span=span, pid=pid,
                        stage=self.stage, segments=len(entries),
                    )
                continue
            owner = (max(sorted(bytes_per_machine), key=bytes_per_machine.get)
                     if bytes_per_machine else mem[0])
            # 2-3. incremental merge producing the missing results
            if materialize:
                missing = merge_missing_results(parts, self.streams,
                                                window=self.window)
                count = len(missing)
                report.results.extend(missing)
            elif self.window is not None:
                # window filtering is per-combination; the histogram
                # shortcut cannot express it
                count = len(merge_missing_results(parts, self.streams,
                                                  window=self.window))
            else:
                count = merge_missing_count(parts, self.streams)
            merge_tuples = sum(p.tuple_count for p in parts[1:])
            stats = report.machine_stats(owner)
            stats.merge_duration += (
                self.cost.probe_cost * merge_tuples + self.cost.result_cost * count
            )
            stats.results += count
            report.missing_results += count
            report.partitions_merged += 1
            report.segments_merged += len(entries)
            if span:
                tracer.event(
                    "cleanup.merge", machine=owner, span=span, pid=pid,
                    stage=self.stage, segments=len(entries),
                    parts=len(parts), results=count,
                )
        if span:
            tracer.end_span(
                span,
                partitions=report.partitions_merged,
                results=report.missing_results,
            )
        return report
