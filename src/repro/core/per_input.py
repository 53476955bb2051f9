"""Per-input partition spilling — the XJoin-style baseline of §2, Fig 3(a).

The paper's §2 argues *against* adapting partitions of individual inputs
independently (as XJoin [25] and Hash-Merge Join [17] do) and *for* the
partition-group granularity, on two grounds:

1. per-input spilling "increases the complexity in the cleanup process":
   one must track the timestamp of every push and of every tuple, because
   a spilled part of input A joined only the B/C tuples present *before*
   the push — the cleanup must synchronise on those timestamps to avoid
   duplicates and losses;
2. per-input *relocation* would force cross-machine joins.

This module implements drawback (1) faithfully so the claim can be tested
and measured rather than asserted: :class:`PerInputJoinState` is a
single-machine symmetric m-way join whose spill unit is *one input's*
partition, with exactly the timestamp bookkeeping the paper describes, and
a provably exactly-once cleanup.

Semantics
---------
Every tuple records its arrival; every spill of input *s* at time *t*
freezes the in-memory tuples of *s* into a segment stamped ``t``.  A
result combination is produced at run time iff, at the arrival of its
latest tuple ``m``, every other member tuple was still memory-resident
(arrived, and not yet swept by a spill of its input after its arrival).
The cleanup enumerates the full join and emits exactly the combinations
failing that predicate — by construction duplicate-free, and requiring a
full re-scan plus per-tuple timestamp logic, which is the §2 complexity
cost.  The benchmark ``bench_ablation_per_input.py`` measures that cost
against the partition-group design's delta merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

from repro.engine.tuples import JoinResult, StreamTuple


@dataclass(frozen=True)
class PerInputSegment:
    """One spilled slice of one input's partition state."""

    stream: str
    spilled_at: float
    tuples: tuple[StreamTuple, ...]

    @property
    def size_bytes(self) -> int:
        return sum(t.size for t in self.tuples)


@dataclass
class PerInputCleanupStats:
    """Bookkeeping cost counters for the per-input cleanup (§2's point)."""

    combinations_examined: int = 0
    timestamp_checks: int = 0
    missing_results: int = 0


class PerInputJoinState:
    """Single-machine m-way join whose spill unit is one input's state.

    Parameters
    ----------
    streams:
        Ordered input-stream names.
    """

    def __init__(self, streams: Sequence[str]) -> None:
        if len(streams) < 2:
            raise ValueError("need at least two inputs")
        self.streams = tuple(streams)
        self._memory: dict[str, dict[int, list[StreamTuple]]] = {
            s: {} for s in self.streams
        }
        self._segments: list[PerInputSegment] = []
        #: arrival time per tuple identity (the paper's per-tuple timestamp
        #: bookkeeping; arrival == tuple.ts here, kept explicit to mirror
        #: the required metadata)
        self._arrival: dict[tuple[str, int], float] = {}
        #: instant each tuple left memory (was captured by a spill of its
        #: input) — the per-push timestamp of the paper's ``A_1^1`` parts
        self._swept: dict[tuple[str, int], float] = {}
        self.memory_bytes = 0
        self.outputs = 0

    # ------------------------------------------------------------------
    # Run-time path
    # ------------------------------------------------------------------
    def process(self, tup: StreamTuple, *, materialize: bool = False
                ) -> tuple[int, list[JoinResult]]:
        """Probe-then-insert against the *memory-resident* other inputs."""
        self._arrival[tup.ident] = tup.ts
        match_lists = []
        count = 1
        for stream in self.streams:
            if stream == tup.stream:
                continue
            bucket = self._memory[stream].get(tup.key)
            if not bucket:
                count = 0
                match_lists = []
                break
            count *= len(bucket)
            match_lists.append(bucket)
        results: list[JoinResult] = []
        if count and materialize:
            own = self.streams.index(tup.stream)
            for combo in product(*match_lists):
                parts = list(combo)
                parts.insert(own, tup)
                results.append(JoinResult(key=tup.key, parts=tuple(parts),
                                          ts=tup.ts))
        self._memory[tup.stream].setdefault(tup.key, []).append(tup)
        self.memory_bytes += tup.size
        self.outputs += count
        return count, results

    # ------------------------------------------------------------------
    # Per-input spill
    # ------------------------------------------------------------------
    def spill_input(self, stream: str, now: float) -> PerInputSegment:
        """Push input ``stream``'s memory-resident partition to disk.

        Returns the stamped segment (the paper's ``A_1^1`` etc.).  New
        tuples of the stream accumulate into fresh memory afterwards.
        """
        if stream not in self._memory:
            raise KeyError(f"unknown stream {stream!r}")
        tuples = tuple(
            t for bucket in self._memory[stream].values() for t in bucket
        )
        segment = PerInputSegment(stream=stream, spilled_at=now, tuples=tuples)
        self._segments.append(segment)
        for tup in tuples:
            self._swept[tup.ident] = now
        self._memory[stream] = {}
        self.memory_bytes -= segment.size_bytes
        return segment

    @property
    def segments(self) -> tuple[PerInputSegment, ...]:
        return tuple(self._segments)

    def spilled_bytes(self) -> int:
        return sum(s.size_bytes for s in self._segments)

    # ------------------------------------------------------------------
    # Timestamp-synchronised cleanup
    # ------------------------------------------------------------------
    def produced_at_runtime(self, combo: Sequence[StreamTuple],
                            stats: PerInputCleanupStats | None = None) -> bool:
        """The §2 synchronisation predicate: was this combination emitted
        during the run-time phase?

        True iff, when the latest member arrived, every other member was
        still memory-resident — i.e. no spill of its input had swept it.
        """
        latest = max(combo, key=lambda t: self._arrival[t.ident])
        latest_arrival = self._arrival[latest.ident]
        for member in combo:
            if member is latest:
                continue
            if stats is not None:
                stats.timestamp_checks += 1
            swept_at = self._swept.get(member.ident, math.inf)
            if swept_at <= latest_arrival:
                return False
        return True

    def all_tuples(self) -> dict[str, dict[int, list[StreamTuple]]]:
        """Complete per-stream state: memory plus every spilled segment."""
        tables: dict[str, dict[int, list[StreamTuple]]] = {
            s: {k: list(b) for k, b in table.items()}
            for s, table in self._memory.items()
        }
        for segment in self._segments:
            table = tables[segment.stream]
            for tup in segment.tuples:
                table.setdefault(tup.key, []).append(tup)
        return tables

    def cleanup(self, *, materialize: bool = False
                ) -> tuple[PerInputCleanupStats, list[JoinResult]]:
        """Produce the results missed at run time, exactly once.

        The full join is enumerated and filtered by the runtime predicate.
        The returned stats expose the §2 complexity cost: the number of
        combinations examined equals the *complete* result cardinality, not
        just the missing part — per-input spilling cannot localise the
        merge the way partition groups can.
        """
        stats = PerInputCleanupStats()
        results: list[JoinResult] = []
        tables = self.all_tuples()
        first = self.streams[0]
        for key in tables[first]:
            buckets = [tables[s].get(key, []) for s in self.streams]
            if any(not b for b in buckets):
                continue
            for combo in product(*buckets):
                stats.combinations_examined += 1
                if self.produced_at_runtime(combo, stats):
                    continue
                stats.missing_results += 1
                if materialize:
                    results.append(
                        JoinResult(key=key, parts=tuple(combo),
                                   ts=max(t.ts for t in combo))
                    )
        return stats, results
