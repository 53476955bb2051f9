"""Result-count oracle for the benchmark's workloads.

Unwindowed joins use :func:`repro.engine.reference.reference_join_count`
directly.  With a window that function materialises every combination
(148 s for ``windowed_recovery``'s full size), so this module counts
windowed results independently: per key, sort each stream's timestamps
and, taking every tuple in turn as a combination's *earliest* member,
multiply how many tuples of each other stream fall inside its window.

A combination is one tuple per stream (ordered by stream), and it is a
result when ``max(ts) - min(ts) <= window`` — the engine's and the
reference's rule, evaluated with the same floating-point subtraction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

from repro.engine.reference import reference_join_count


def expected_results(tuples: Iterable, streams: Sequence[str],
                     window: float | None) -> int:
    """How many results the join over ``tuples`` must deliver in total."""
    if window is None:
        return reference_join_count(tuples, streams)
    return windowed_join_count(tuples, streams, window)


def _window_end(ts_sorted: list[float], start: float, window: float) -> int:
    """Index past the last timestamp ``t`` with ``t - start <= window``."""
    hi = bisect_right(ts_sorted, start + window)
    # ``start + window`` and ``t - start`` round differently at the edge
    while hi > 0 and ts_sorted[hi - 1] - start > window:
        hi -= 1
    while hi < len(ts_sorted) and ts_sorted[hi] - start <= window:
        hi += 1
    return hi


def windowed_join_count(tuples: Iterable, streams: Sequence[str],
                        window: float) -> int:
    index = {name: i for i, name in enumerate(streams)}
    by_key: dict[int, list[list[float]]] = {}
    for tup in tuples:
        per_stream = by_key.get(tup.key)
        if per_stream is None:
            per_stream = by_key[tup.key] = [[] for _ in streams]
        per_stream[index[tup.stream]].append(tup.ts)
    total = 0
    for per_stream in by_key.values():
        if not all(per_stream):
            continue
        for ts_list in per_stream:
            ts_list.sort()
        for sid, ts_list in enumerate(per_stream):
            for ts in ts_list:
                # this tuple is the earliest member; equal timestamps are
                # ordered by stream so exactly one member is the earliest
                combos = 1
                for other, other_ts in enumerate(per_stream):
                    if other == sid:
                        continue
                    if other < sid:
                        lo = bisect_right(other_ts, ts)
                    else:
                        lo = bisect_left(other_ts, ts)
                    combos *= _window_end(other_ts, ts, window) - lo
                    if not combos:
                        break
                total += combos
    return total
