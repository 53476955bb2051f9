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

One merge, :func:`merge_missing`, reads the snapshots' columns and
computes the delta per key of each new part: an unwindowed count is
per-key count arithmetic (the large benchmark runs), a windowed count
enumerates combinations over timestamp buckets without boxing a row, and
a **materialising** merge boxes rows into actual
:class:`~repro.engine.tuples.JoinResult` objects (the correctness tests
compare them against a reference join).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from repro.cluster.disk import Disk, SpillSegment
from repro.core.config import CostModel
from repro.engine.columns import FrozenColumnGroup, _count_table
from repro.engine.tuples import JoinResult
from repro.obs.trace import NULL_TRACER


def merge_missing(
    parts: Sequence[FrozenColumnGroup], streams: Sequence[str],
    *, window: float | None = None, materialize: bool = False,
) -> tuple[int, list[JoinResult]]:
    """The missing results across the parts of one partition ID:
    ``(count, results)``, ``results`` empty unless ``materialize``.

    For each new part ``P`` against the cumulative state ``U`` of the
    parts before it, the delta is computed per key of ``P`` — a key
    without rows in ``P`` mixes nothing new.  Only the columns are read,
    each part below its ``nrows`` bound.

    * Unwindowed counting: per key, ``Π(u+p) − Πu − Πp`` over the
      per-stream counts — every combination minus the all-U ones (emitted
      by an earlier delta or at run time) and the all-P ones (emitted at
      run time within the part's live instance).
    * Windowed or materialising: the ``2^m − 2`` per-stream choices of
      source in ``{U, P}`` other than all-U and all-P are enumerated over
      per-``(stream, key)`` buckets; a combination whose timestamps span
      more than ``window`` seconds is dropped, as the run-time probe drops
      it.  A count's buckets hold timestamps, so it boxes nothing; a
      materialising merge boxes each row once, when its part is read, so
      a row in several results is one object.  Results come mask by
      mask, keys in the order of the intersected per-stream key sets,
      combinations in product order.
    """
    if len(parts) < 2:
        return 0, []
    m = len(streams)
    if window is None and not materialize:
        return _count_delta(parts, m), []
    cumulative: list[dict[int, list]] = [{} for __ in range(m)]
    results: list[JoinResult] = []
    count = 0
    for i, part in enumerate(parts):
        n = part.nrows
        member = part.tuple_at if materialize else part.row_ts.__getitem__
        # per stream {key: [member, ...]} in row order, keys in first-row
        # order — a dict like the cumulative one, so the key sets below
        # intersect in the same order
        buckets: list[dict[int, list]] = [{} for __ in range(m)]
        for row, (sid, key) in enumerate(zip(part.row_sid[:n],
                                             part.row_key[:n])):
            bucket = buckets[sid].get(key)
            if bucket is None:
                buckets[sid][key] = [member(row)]
            else:
                bucket.append(member(row))
        if i > 0:
            for mask in range(1, (1 << m) - 1):
                # bit j set -> stream j drawn from the new part P
                sources = [buckets[j] if (mask >> j) & 1 else cumulative[j]
                           for j in range(m)]
                keys = set(sources[0])
                for src in sources[1:]:
                    keys &= set(src)
                for key in keys:
                    for combo in product(*[src[key] for src in sources]):
                        if window is not None:
                            ts = [t.ts for t in combo] if materialize else combo
                            if max(ts) - min(ts) > window:
                                continue
                        if materialize:
                            results.append(JoinResult(key=key, parts=combo,
                                                      ts=combo[0].ts))
                        else:
                            count += 1
        for j, table in enumerate(buckets):
            dst = cumulative[j]
            for key, bucket in table.items():
                dst.setdefault(key, []).extend(bucket)
    return (len(results) if materialize else count), results


def _count_delta(parts: Sequence[FrozenColumnGroup], m: int) -> int:
    """Unwindowed count of :func:`merge_missing` from per-key counts."""
    cumulative: dict[int, list[int]] = {}
    missing = 0
    for part in parts:
        n = part.nrows
        for key, p in _count_table(part.row_sid[:n], part.row_key[:n],
                                   m).items():
            u = cumulative.get(key)
            if u is None:
                # no U rows of this key: every combination is all-P
                cumulative[key] = p
                continue
            both = only_u = only_p = 1
            for uj, pj in zip(u, p):
                both *= uj + pj
                only_u *= uj
                only_p *= pj
            missing += both - only_u - only_p
            for j, pj in enumerate(p):
                u[j] += pj
    return missing


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
        #: window of the owning join; a windowed cleanup drops the
        #: combinations whose timestamps span more than it
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
            count, missing = merge_missing(parts, self.streams,
                                           window=self.window,
                                           materialize=materialize)
            report.results.extend(missing)
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
