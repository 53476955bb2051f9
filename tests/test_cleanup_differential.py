"""The column cleanup merge against its row-format reference.

:func:`~repro.core.cleanup.merge_missing` reads snapshot columns; the
reference :func:`tests.row_group.merge_missing_results` enumerates the
same delta over the row-format bucket view.  For generated parts — 2 to
4 inputs, 1 to 4 parts, uniform or explicit sizes, payloads, a part whose
buffers a live group keeps appending to, a re-bucketed segment child, a
late part — the count, the count-only merge and the materialised list
agree with the reference, list for list.  Hypothesis runs derandomized,
so the examples are the same on every run.
"""

import gc
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cleanup import merge_missing
from repro.engine.columns import ColumnarPartitionGroup, FrozenColumnGroup
from repro.engine.tuples import StreamTuple

from tests.helpers import small_deployment
from tests.row_group import merge_missing_results

STREAMS = ("A", "B", "C", "D")
SHAPES = ("uniform", "sizes", "payloads")
#: join keys whose hash-table slots are not in value order, so the set
#: iteration order the merge must reproduce is neither sorted order nor
#: first-row order
KEYS = (5, 8, 17, 1 << 40)


@st.composite
def merges(draw):
    """``(parts, streams, window)`` for one partition ID's merge."""
    m = draw(st.integers(2, 4))
    streams = STREAMS[:m]
    shape = draw(st.sampled_from(SHAPES))
    window = draw(st.sampled_from([None, 2.0]))
    seq = 0

    def rows(max_size=10):
        nonlocal seq
        out = []
        for sid, key, ts in draw(st.lists(
                st.tuples(st.integers(0, m - 1), st.sampled_from(KEYS),
                          st.integers(0, 6)), max_size=max_size)):
            out.append(StreamTuple(
                stream=streams[sid], seq=seq, key=key, ts=float(ts),
                size=64 if shape == "uniform" else 40 + seq % 5,
                payload=(seq,) if shape == "payloads" and seq % 2 else ()))
            seq += 1
        return out

    def frozen(tuples, generation):
        group = ColumnarPartitionGroup(0, streams, generation=generation)
        for tup in tuples:
            group.insert(tup)
        snapshot = group.freeze()
        if draw(st.booleans()):
            # the live group keeps appending onto the shared buffers;
            # the snapshot must read below its row bound only
            for tup in rows(max_size=4):
                group.insert(tup)
        return snapshot

    parts = []
    for generation in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["part", "rebucket-child"]))
        if kind == "part":
            parts.append(frozen(rows(), generation))
        else:
            # a segment frozen under a retired parent pid: its keys now
            # route to two pids, and this pid's merge takes one child
            children = frozen(rows(), generation).rebucket(
                lambda key: key % 2)
            if 0 in children:
                parts.append(children[0])
    if draw(st.booleans()):
        # a pipeline stage's late inputs, merged after every other part
        parts.append(frozen(rows(), len(parts)))
    return parts, streams, window


@settings(max_examples=300, deadline=None, derandomize=True)
@given(merges())
def test_merge_matches_row_reference(case):
    parts, streams, window = case
    want = merge_missing_results(parts, streams, window=window)
    count, results = merge_missing(parts, streams, window=window,
                                   materialize=True)
    assert count == len(results) == len(want)
    assert results == want
    assert merge_missing(parts, streams, window=window) == (len(want), [])
    # a row that appears in several results is one object
    objects: dict[tuple[str, int], set[int]] = {}
    for result in results:
        for tup in result.parts:
            objects.setdefault(tup.ident, set()).add(id(tup))
    assert all(len(ids) == 1 for ids in objects.values())


def boxed_rows_reachable(roots):
    """``StreamTuple`` objects reachable from ``roots`` through data
    (classes, modules and functions are not followed)."""
    seen: set[int] = set()
    stack = list(roots)
    found = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StreamTuple):
            found += 1
        elif not isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            stack.extend(gc.get_referents(obj))
    return found


def test_materialising_cleanup_leaves_no_boxed_row_on_disk():
    """Once a materialising cleanup's report is dropped, the spilled
    snapshots hold their columns and nothing boxed: a boxed row view
    cached on a segment would live as long as the disk does."""
    dep = small_deployment(memory_threshold=20_000)
    dep.run(40)
    report = dep.cleanup(materialize=True)
    assert report.missing_results > 0
    del report
    segments = [seg.frozen for disk in dep.disks.values()
                for seg in disk.segments]
    assert segments and all(type(f) is FrozenColumnGroup for f in segments)
    assert boxed_rows_reachable(segments) == 0
