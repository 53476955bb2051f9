"""Equivalence of the columnar (structure-of-arrays) data path.

Live state is columnar under every data path; the columnar path also
rebuilds the delivery pipeline — ``ColumnBatch`` at the source, a
vectorized probe/insert entry point in the store — and every bit of it is
only legal if it is *unobservable*: same results in the same order, same
counters and victim orderings, same snapshots, and — end to end —
byte-identical outputs and adaptation traces for the same seeds, under
spills, relocations, purges and crashes.  These tests assert exactly
that: the store's three entry points against each other, the live group
against its row-format twin, and column delivery against row delivery
over full deployments — down to the stored columns.
"""

import gc
import math
import random
import sys
from array import array
from collections import defaultdict, deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.cluster.machine import Machine, Task
from repro.cluster.network import Message
from repro.cluster.simulation import Simulator
from repro.engine import columns
from repro.engine.columns import ColumnBatch, ColumnarPartitionGroup, ResultBatch
from repro.engine.operators.select import Select
from repro.engine.operators.split import PartitionMap, Split
from repro.engine.partitions import PartitionGroup
from repro.engine.state_store import StateStore
from repro.engine.tuples import ArrivalBatch, StreamTuple
from repro.obs.trace import Tracer
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import canonical_frozen, small_deployment

STREAMS = ("A", "B", "C")


def synth_batches(n, *, batch_size=50, n_partitions=6, key_range=12, seed=3,
                  ts_step=0.5, nonuniform=False, payloads=False):
    rng = random.Random(seed)
    batches, current = [], []
    for seq in range(n):
        key = rng.randrange(key_range)
        size = 64 + (rng.randrange(4) * 16 if nonuniform else 0)
        payload = (("v", seq),) if payloads and rng.random() < 0.25 else ()
        tup = StreamTuple(stream=STREAMS[seq % 3], seq=seq, key=key,
                          ts=seq * ts_step, size=size, payload=payload)
        current.append((key % n_partitions, tup))
        if len(current) == batch_size:
            batches.append(current)
            current = []
    if current:
        batches.append(current)
    return batches


def cut_by_stream(rows, chunk_size=30):
    """``rows`` in chunks, each cut into one-stream batches — except every
    fifth, which keeps its A and B rows together, as a pause flush can."""
    batches = []
    for n, start in enumerate(range(0, len(rows), chunk_size)):
        chunk = rows[start:start + chunk_size]
        if n % 5 == 2:
            batches.append([p for p in chunk if p[1].stream != "C"])
            batches.append([p for p in chunk if p[1].stream == "C"])
        else:
            batches += [[p for p in chunk if p[1].stream == s]
                        for s in STREAMS]
    return batches


def fresh_store():
    return StateStore(Machine(Simulator(), "m"), STREAMS)


def store_fingerprint(store):
    """Everything observable about a store, representation-independent."""
    return (
        store.total_bytes,
        store.outputs_total,
        store.tuples_processed,
        dict(store.mutations),
        store.machine.memory_used,
        store.machine.memory_high_water,
        store.productivity_snapshot(),
        tuple(sorted(
            canonical_frozen(store.state_of(pid))
            for pid in store.partition_ids()
        )),
    )


def _per_tuple(store, batch, **kwargs):
    total, results = 0, []
    for pid, tup in batch:
        count, rs = store.probe_insert(pid, tup, **kwargs)
        total += count
        results.extend(rs)
    return total, results


#: The store's three entry points, each as ``(store, routed rows) ->
#: (count, results)``.
ENTRY_POINTS = {
    "tuple": _per_tuple,
    "batch": lambda store, batch, **kwargs: store.probe_insert_batch(
        batch, **kwargs),
    "columns": lambda store, batch, **kwargs: store.probe_insert_columns(
        ColumnBatch.from_routed(batch, STREAMS), **kwargs),
}


def run_entry(entry, store, batches, **kwargs):
    total, results = 0, []
    for batch in batches:
        count, rs = ENTRY_POINTS[entry](store, batch, **kwargs)
        total += count
        results.extend(rs)
    return total, results


class TestColumnBatch:
    def test_round_trips_in_arrival_order(self):
        batch = synth_batches(120, batch_size=120, nonuniform=True,
                              payloads=True)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        assert list(cb.iter_routed()) == batch
        assert [cb.tuple_at(i) for i in range(len(cb))] == [t for _, t in batch]

    def test_segments_group_by_pid_in_first_occurrence_order(self):
        batch = synth_batches(90, batch_size=90)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        assert type(cb.segments) is tuple
        seen = []
        stored = 0
        for pid, start, end in cb.segments:
            assert pid not in seen and start == stored < end
            seen.append(pid)
            stored = end
        assert stored == len(cb)
        first_occurrence = list(dict.fromkeys(pid for pid, _ in batch))
        assert seen == first_occurrence
        # the segments are the only record of a row's pid
        assert [pid for pid, __ in cb.iter_routed()] == [pid for pid, _ in batch]
        assert not hasattr(cb, "pids")

    def test_uniform_collapse(self):
        batch = synth_batches(60, batch_size=60)[0]
        cb = ColumnBatch.from_routed(batch, STREAMS)
        assert cb.sizes is None and cb.usize == 64 and cb.payloads is None
        mixed = ColumnBatch.from_routed(
            synth_batches(60, batch_size=60, nonuniform=True,
                          payloads=True)[0], STREAMS)
        assert mixed.sizes is not None and mixed.payloads is not None

    def test_one_stream_collapses_the_stream_index(self):
        batch = synth_batches(60, batch_size=60)[0]
        mixed = ColumnBatch.from_routed(batch, STREAMS)
        assert mixed.sids is not None and mixed.usid == -1
        one = [(pid, tup) for pid, tup in batch if tup.stream == "B"]
        cb = ColumnBatch.from_routed(one, STREAMS)
        assert cb.sids is None and cb.usid == 1
        assert list(cb.iter_routed()) == one
        empty = ColumnBatch.from_routed([], STREAMS)
        assert empty.sids == [] and empty.usid == -1


def refined_paused_split():
    """6 hash partitions over 3 machines, pid 2 refined into (6, 7), and
    one plain plus one refined partition mid-relocation."""
    split = Split("split_B", 6, PartitionMap.round_robin(6, ["m1", "m2", "m3"]))
    split.apply_split(2, (6, 7), "m2")
    split.pause({1, 7})
    return split


def random_arrivals(rng, *, payloads):
    n = rng.randrange(1, 40)
    seq0 = rng.randrange(1000)
    return ArrivalBatch(
        "B", seq0,
        keys=[rng.randrange(60) for _ in range(n)],
        ts=[0.01 * (seq0 + i + 1) for i in range(n)],
        size=64,
        payloads=([(("v", i),) if rng.random() < 0.3 else () for i in range(n)]
                  if payloads else None),
    )


class TestColumnSourceUnits:
    """One-pass routing and direct segment build against the row code."""

    @pytest.mark.parametrize("payloads", [False, True])
    def test_route_and_build_match_the_row_path(self, payloads):
        rng = random.Random(17)
        col_split, row_split = refined_paused_split(), refined_paused_split()
        for _ in range(60):
            batch = random_arrivals(rng, payloads=payloads)
            # row path: Split.process per tuple, regroup, from_routed
            by_owner_rows = {}
            for tup in batch:
                for pid, owner, t in row_split.process(tup):
                    by_owner_rows.setdefault(owner, []).append((pid, t))
            # column path
            by_owner_cols = {}
            for pid, owner, rows in col_split.process_columns(batch):
                by_owner_cols.setdefault(owner, []).append((pid, rows))
            assert list(by_owner_cols) == list(by_owner_rows)
            for owner, owned in by_owner_cols.items():
                got = ColumnBatch.from_arrivals(batch, owned, 1, STREAMS)
                want = ColumnBatch.from_routed(by_owner_rows[owner], STREAMS)
                # slot for slot — ``usid`` included: one arrival batch is
                # one stream, and both builders collapse the stream index
                assert got.sids is None and got.usid == 1
                for slot in ColumnBatch.__slots__:
                    assert getattr(got, slot) == getattr(want, slot), slot
        for counter in ("inputs_seen", "outputs_emitted", "buffered_total"):
            assert getattr(col_split, counter) == getattr(row_split, counter)
        assert col_split.buffered_total > 0
        assert col_split._buffers == row_split._buffers
        assert list(col_split._buffers) == list(row_split._buffers)

    def test_all_payloads_empty_collapses_like_from_routed(self):
        batch = ArrivalBatch("A", 0, keys=[0, 6, 1], ts=[0.1, 0.2, 0.3],
                             size=64, payloads=[(), (), ()])
        cb = ColumnBatch.from_arrivals(batch, [(0, [0, 1]), (1, [2])], 0,
                                       STREAMS)
        assert cb.payloads is None and cb.perm is None
        assert list(cb.iter_routed()) == [
            (0, batch.row(0)), (0, batch.row(1)), (1, batch.row(2))]


class TestStoreColumnarEquivalence:
    """The three entry points — one row, a row batch, a column batch —
    fill the one kind of store identically."""

    @pytest.mark.parametrize("window", [None, 5.0])
    @pytest.mark.parametrize("materialize", [False, True])
    @pytest.mark.parametrize("nonuniform", [False, True])
    def test_columnar_matches_per_tuple(self, nonuniform, materialize, window):
        batches = synth_batches(600, nonuniform=nonuniform,
                                payloads=nonuniform)
        # the first half in mixed-stream batches, the second cut as an
        # arrival batch is (one stream: ``sids`` collapses to ``usid``)
        # with a two-stream pause flush now and then (a ``sids`` list)
        batches = batches[:6] + cut_by_stream(
            [pair for b in batches[6:] for pair in b])
        one_stream = [ColumnBatch.from_routed(b, STREAMS).sids is None
                      for b in batches]
        assert one_stream.count(True) > one_stream.count(False) > 6
        per_tuple = fresh_store()
        total_a, results_a = run_entry(
            "tuple", per_tuple, batches, materialize=materialize, window=window)
        for entry in ("batch", "columns"):
            store = fresh_store()
            total_b, results_b = run_entry(
                entry, store, batches, materialize=materialize, window=window)
            assert total_b == total_a
            assert results_b == results_a  # same results, same order
            assert store_fingerprint(store) == store_fingerprint(per_tuple)

    def test_empty_batch_is_a_no_op(self):
        store = fresh_store()
        cb = ColumnBatch.from_routed([], STREAMS)
        assert store.probe_insert_columns(cb) == (0, [])
        assert store.total_bytes == 0
        assert store.mutations == {}

    def test_batch_split_points_do_not_matter(self):
        rows = [pair for b in synth_batches(240) for pair in b]
        whole = fresh_store()
        whole.probe_insert_columns(ColumnBatch.from_routed(rows, STREAMS))
        pieces = fresh_store()
        for start in range(0, len(rows), 17):
            pieces.probe_insert_columns(
                ColumnBatch.from_routed(rows[start:start + 17], STREAMS))
        assert store_fingerprint(pieces) == store_fingerprint(whole)

    def test_churn_equivalence(self):
        """Purge + evict/install mid-stream stay byte-identical, and the
        entry points can take turns on one store."""
        batches = synth_batches(900)

        def run(pick):
            store = fresh_store()
            for i, batch in enumerate(batches):
                ENTRY_POINTS[pick(i)](store, batch)
                if i == 7:
                    store.purge_window(60.0)
                if i == 12:
                    for frozen in store.evict(list(store.partition_ids())[:3]):
                        store.install(frozen)
            return store_fingerprint(store)

        want = run(lambda i: "tuple")
        assert run(lambda i: "batch") == want
        assert run(lambda i: "columns") == want
        assert run(lambda i: list(ENTRY_POINTS)[i % 3]) == want


def test_count_only_delivery_keeps_nothing_of_the_batch():
    """The hot path copies rows; it does not park references.  After a
    delivery nothing in the store points at the batch's columns, and what
    the collector tracks grows with groups and distinct keys, never with
    the number of batches delivered."""
    n_batches, n_partitions, key_range = 3000, 4, 8
    store = fresh_store()
    rng = random.Random(5)
    gc.collect()
    tracked = len(gc.get_objects())
    for seq in range(n_batches):
        keys = [rng.randrange(key_range) for _ in range(2)]
        cb = ColumnBatch.from_routed(
            [(key % n_partitions, StreamTuple(STREAMS[seq % 3], 2 * seq + i,
                                              key, float(seq)))
             for i, key in enumerate(keys)], STREAMS)
        # a collapsed column is ``None``, whose refcount says nothing
        cols = [col for col in (cb.sids, cb.seqs, cb.keys, cb.ts)
                if col is not None]
        held = [sys.getrefcount(col) for col in cols]
        store.probe_insert_columns(cb)
        assert held == [sys.getrefcount(col) for col in cols]
        del cols
    del cb
    gc.collect()
    assert store.tuples_processed == 2 * n_batches
    assert sum(len(g.row_sid) for g in store.groups()) == 2 * n_batches
    # per group: the group, its buffers, tables and hot-loop context; per
    # (group, key): one count row — two orders of magnitude under one
    # object per batch
    assert len(gc.get_objects()) - tracked <= 16 * n_partitions + 2 * key_range


def test_a_waiting_column_batch_is_its_task_and_three_columns():
    """A data message waiting behind a busy engine holds the task, the
    batch and its seq/key/ts lists: no closure over the payload, no pid
    column, no stream-index column.  What the collector tracks grows by
    at most six containers per waiting message, and running the queue
    gives every one of them back."""
    n_messages = 400
    dep = small_deployment()
    engine = dep.engines["m1"]
    streams = dep.instances["m1"].store.streams

    def deliver_all():
        for i in range(n_messages):
            batch = ArrivalBatch("B", 2 * i, keys=[i % 8, (i + 3) % 8],
                                 ts=[0.0, 0.0], size=64)
            cb = ColumnBatch.from_arrivals(batch, [(i % 4, [0, 1])], 1, streams)
            engine.deliver(Message("src", "m1", "column_batch", cb,
                                   cb.total_size, dep.sim.now))

    # first pass: every group and count row the batches touch exists, so
    # the measured pass creates no state container of its own
    deliver_all()
    dep.sim.run()
    engine.machine.submit(Task(1.0, label="busy"))
    gc.collect()
    baseline = len(gc.get_objects())
    deliver_all()
    assert engine.machine.queue_depth == n_messages
    gc.collect()
    assert len(gc.get_objects()) - baseline <= 6 * n_messages
    dep.sim.run()
    assert engine.machine.queue_depth == 0
    assert dep.instances["m1"].store.tuples_processed == 4 * n_messages
    gc.collect()
    assert len(gc.get_objects()) <= baseline


class TestZeroCopySnapshots:
    def test_snapshot_is_immune_to_later_appends_and_purges(self):
        batches = synth_batches(600)
        store = fresh_store()
        snaps = {}
        for i, batch in enumerate(batches):
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
            if i == 4:  # mid-stream: snapshots share live, growing buffers
                snaps = {pid: (store.state_of(pid),
                               canonical_frozen(store.state_of(pid)))
                         for pid in store.partition_ids()}
            if i == 8:
                store.purge_window(100.0)  # swaps in rebuilt column buffers
        assert snaps
        for frozen, before in snaps.values():
            assert canonical_frozen(frozen) == before

    def test_thaw_is_bounded_by_the_snapshot(self):
        batches = synth_batches(300)
        store = fresh_store()
        store.probe_insert_columns(ColumnBatch.from_routed(batches[0], STREAMS))
        pid = store.partition_ids()[0]
        frozen = store.state_of(pid)
        before = canonical_frozen(frozen)
        for batch in batches[1:]:  # keep appending into the shared buffers
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
        thawed = ColumnarPartitionGroup.thaw(frozen)
        assert thawed.tuple_count == frozen.tuple_count
        assert len(thawed.row_sid) == frozen.nrows
        assert canonical_frozen(thawed.freeze()) == before

    def test_cross_representation_install(self):
        """A row-format snapshot — what split/merge emit — installs into
        the store as columns."""
        batches = synth_batches(300)
        twins = {}
        for batch in batches:
            for pid, tup in batch:
                twin = twins.setdefault(pid, PartitionGroup(pid, STREAMS))
                twin.record_output(twin.probe(tup)[0])
                twin.insert(tup)
        installed = fresh_store()
        for twin in twins.values():
            installed.install(twin.freeze())
        fresh = fresh_store()
        run_entry("tuple", fresh, batches)
        assert (tuple(sorted(canonical_frozen(installed.state_of(p))
                             for p in installed.partition_ids()))
                == tuple(sorted(canonical_frozen(fresh.state_of(p))
                                for p in fresh.partition_ids())))
        assert installed.total_bytes == installed.machine.memory_used


# ----------------------------------------------------------------------
# Stored rows are unboxed: the row buffers are typed arrays by every route
# ----------------------------------------------------------------------
ROW_BUFFERS = (("row_sid", "b"), ("row_seq", "q"), ("row_key", "q"),
               ("row_ts", "d"))


def assert_typed_buffers(group):
    for name, typecode in ROW_BUFFERS:
        buf = getattr(group, name)
        assert type(buf) is array and buf.typecode == typecode, name
        assert len(buf) == group.tuple_count, name
    if group.row_size is not None:
        assert type(group.row_size) is array
        assert group.row_size.typecode == "q"
        assert len(group.row_size) == group.tuple_count
    if group.row_payload is not None:
        assert len(group.row_payload) == group.tuple_count


def row_buffer_bytes(group):
    """Host bytes allocated (not merely used) for the four row buffers."""
    return sum(buf.buffer_info()[1] * buf.itemsize
               for buf in (getattr(group, name) for name, __ in ROW_BUFFERS))


def one_group_store(entry="columns", n=10_000, **kwargs):
    """A store whose single group holds ``n`` rows delivered by ``entry``."""
    store = fresh_store()
    run_entry(entry, store, synth_batches(n, n_partitions=1, key_range=2500),
              **kwargs)
    return store


def split_children():
    store = one_group_store()
    store.split_group(0, (8, 9), lambda key: key % 2)
    return store


def merged_parent():
    store = split_children()
    store.merge_groups((8, 9), 0)
    return store


def thawed_from_columns():
    store = one_group_store()
    for frozen in store.evict([0]):
        store.install(frozen)
    return store


def purged():
    store = one_group_store(n=20_000)
    assert store.purge_window(5_000.0) == 10_000
    return store


def promoted_by_call():
    store = one_group_store()
    store.peek(0).promote_sizes()
    return store


def promoted_by_a_second_size():
    store = one_group_store(n=9_999)
    store.probe_insert(0, StreamTuple("A", 9_999, 1, 5_000.0, size=80))
    return store


TYPED_ROUTES = {
    "count-only column delivery": one_group_store,
    "row insert": lambda: one_group_store("tuple"),
    "windowed _probe_insert_rows": lambda: one_group_store(window=2.0),
    "materialising _probe_insert_rows": lambda: one_group_store(
        materialize=True),
    "thaw of a FrozenColumnGroup": thawed_from_columns,
    "split children (row-format thaw)": split_children,
    "merge parent (row-format thaw)": merged_parent,
    "purge_older_than": purged,
    "promote_sizes": promoted_by_call,
    "second size through insert_cols": promoted_by_a_second_size,
}


class TestTypedBuffers:
    @pytest.mark.parametrize("route", TYPED_ROUTES)
    def test_row_buffers_are_typed_arrays_by_every_route(self, route):
        store = TYPED_ROUTES[route]()
        groups = list(store.groups())
        assert sum(group.tuple_count for group in groups) == 10_000
        for group in groups:
            assert_typed_buffers(group)
            # and snapshots share them
            assert store.state_of(group.pid).row_seq is group.row_seq
        # 25 bytes of values a row, plus the arrays' over-allocation
        assert sum(map(row_buffer_bytes, groups)) <= 32 * 10_000
        if route.startswith(("promote", "second size")):
            assert groups[0].row_size is not None

    def test_snapshot_and_unread_batch_survive_reallocation_and_purge(self):
        """A checkpoint-style snapshot and a materialising batch nobody
        has read alias the live arrays by object and read them by index,
        so the buffers moving in memory (appends) or being superseded
        (purge) changes nothing they see."""
        batches = synth_batches(6_000, n_partitions=1, key_range=40)
        store = fresh_store()
        twin = PartitionGroup(0, STREAMS)
        for batch in batches[:4]:
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
            for __, tup in batch:
                twin.insert(tup)
        want_rows = []
        for __, tup in batches[4]:
            want_rows.extend(twin.probe(tup, materialize=True)[1])
            twin.insert(tup)
        count, lazy = store.probe_insert_columns(
            ColumnBatch.from_routed(batches[4], STREAMS), materialize=True)
        assert count == len(want_rows) > 0 and type(lazy) is ResultBatch
        frozen = store.state_of(0)
        group = store.peek(0)
        assert frozen.row_seq is group.row_seq
        want_idents = frozenset(
            (t.stream, t.seq) for s in STREAMS for t in twin.tuples_of(s))
        want_tuples = {s: sorted(twin.tuples_of(s), key=lambda t: t.seq)
                       for s in STREAMS}
        assert len(want_idents) == frozen.nrows == 250

        shared = group.row_seq
        reallocations, allocated = 0, sys.getsizeof(shared)
        for batch in batches[5:]:
            store.probe_insert_columns(ColumnBatch.from_routed(batch, STREAMS))
            if sys.getsizeof(shared) != allocated:
                reallocations, allocated = (reallocations + 1,
                                            sys.getsizeof(shared))
        assert reallocations >= 5 and len(shared) == 6_000
        assert store.purge_window(50.0) == 100  # drops rows the aliases hold
        assert store.peek(0).row_seq is not shared

        assert frozen.idents() == want_idents
        assert {s: list(frozen.tuples_of(s)) for s in STREAMS} == want_tuples
        assert list(lazy) == want_rows
        assert [r.ident for r in lazy] == [r.ident for r in want_rows]

    @pytest.mark.parametrize("explicit", [False, True],
                             ids=["scalar-size", "explicit-columns"])
    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["no-index", "live-index"])
    @pytest.mark.parametrize("bad", ["key", "seq"])
    @pytest.mark.parametrize("route", ["insert_cols", "segment", "rows"])
    def test_out_of_domain_value_leaves_everything_as_it_was(
            self, route, bad, indexed, explicit):
        """A key or seq beyond signed 64 bits is refused by its column
        after earlier columns took the row: the group is cut back to where
        it was — no ragged columns — and nothing else has moved."""
        batches = synth_batches(400, n_partitions=1)
        store, reference = fresh_store(), fresh_store()
        for target in (store, reference):
            run_entry("columns", target, batches[:4])
            group = target.peek(0)
            if explicit:
                group.promote_sizes()
                group.promote_payloads()
            if indexed:
                group._ensure_index()
        group = store.peek(0)

        def observed():
            return (
                group.tuple_count, group.size_bytes, group.output_count,
                [len(getattr(group, name)) for name, __ in ROW_BUFFERS],
                group.row_size and len(group.row_size),
                group.row_payload and len(group.row_payload),
                {key: c[:] for key, c in group._counts.items()},
                # (a windowed probe may build the lazy index on its own)
                indexed and [{key: rows[:] for key, rows in table.items()}
                             for table in group._index],
                store.total_bytes, dict(store.mutations),
                store.tuples_processed, store.outputs_total,
                store.machine.memory_used,
            )

        before = observed()
        good = StreamTuple("B", 1_000, 3, 200.0)
        rogue = StreamTuple("A", 2**63 if bad == "seq" else 1_001,
                            2**63 if bad == "key" else 3, 200.0)
        with pytest.raises(OverflowError):
            if route == "insert_cols":
                group.insert_cols(0, rogue.seq, rogue.key, rogue.ts,
                                  rogue.size, rogue.payload)
            elif route == "segment":  # the valid row ahead of it goes too
                store.probe_insert_columns(ColumnBatch.from_routed(
                    [(0, good), (0, rogue)], STREAMS))
            else:
                store.probe_insert_columns(ColumnBatch.from_routed(
                    [(0, rogue)], STREAMS), window=50.0)
        assert observed() == before
        assert_typed_buffers(group)
        # ... and the group works: the rest of the stream lands and probes
        # as in a store that never saw the rogue row
        for target in (store, reference):
            run_entry("columns", target, batches[4:6])
            run_entry("columns", target, batches[6:], window=50.0)
        assert store_fingerprint(store) == store_fingerprint(reference)

    def test_more_than_127_inputs_are_refused(self):
        streams = tuple(f"S{i}" for i in range(128))
        with pytest.raises(ValueError, match="127"):
            ColumnarPartitionGroup(0, streams)
        group = ColumnarPartitionGroup(0, streams[:127])
        group.insert(StreamTuple("S126", 0, 1, 0.0))
        assert group.row_sid[0] == 126


# ----------------------------------------------------------------------
# Windowed probe: bisected bounds + closed-form count ≡ the row-format scan
# ----------------------------------------------------------------------
STREAMS4 = ("A", "B", "C", "D")

#: Event times on a coarse grid — duplicates, rows exactly ``window`` apart
#: — including the triples where ``ts -/+ window`` and the filter
#: ``abs(row - ts) <= window`` disagree in the last place.  Below the
#: probe: ts 0.8 / row 0.3 / window 0.5 (bisect says out, the filter in)
#: and ts 0.9 / row 0.7 / window 0.2 (the reverse); above it: ts 0.2 /
#: row 0.9 / window 0.7 and ts 0.6 / row 0.8 / window 0.2.
GRID_TS = st.sampled_from(
    [0.2, 0.3, 0.6, 0.7, 0.8, 0.9, 1.0, 1.3, 1.5, 2.0, 2.5, 3.0])
WINDOW_OPS = st.lists(
    st.one_of(
        # probe (count, record, boxed rows) then insert; the timestamp is
        # the clock after a step (in order) or a grid point (any order)
        st.tuples(st.just("row"), st.integers(0, 3), st.integers(0, 1),
                  st.one_of(st.sampled_from([0.0, 0.1, 0.2, 0.5, 1.0]),
                            st.tuples(GRID_TS))),
        # unwindowed count-only batch: the hot path copies its rows onto the
        # buffers, under a live index if an earlier probe built one
        st.tuples(st.just("batch"), st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1),
                      st.one_of(st.sampled_from([0.0, 0.1, 0.5]),
                                st.tuples(GRID_TS))),
            min_size=1, max_size=5)),
        st.tuples(st.just("purge"), st.sampled_from([0.5, 1.0, 2.0])),
        st.tuples(st.just("thaw")),
        st.tuples(st.just("promote"), st.sampled_from(["sizes", "payloads"])),
    ),
    min_size=1, max_size=40,
)


def windowed_probe_twins(m, window, ops):
    """Drive a columnar group (inside a one-partition store) and a
    row-format twin through ``ops``; every probe must agree."""
    streams = STREAMS4[:m]
    store = StateStore(Machine(Simulator(), "m"), streams)
    twin = PartitionGroup(0, streams)
    seq = dict.fromkeys(streams, 0)
    clock = 0.0
    flag_values = set()

    def make(sid, key, when):
        nonlocal clock
        if isinstance(when, tuple):
            ts = when[0]
        else:
            clock += when
            ts = clock
        stream = streams[sid % m]
        seq[stream] += 1
        return StreamTuple(stream, seq[stream], key, ts)

    for op in ops:
        group = store.peek(0)
        if op[0] == "row":
            tup = make(*op[1:])
            want_count, want_rows = twin.probe_windowed(
                tup, window, materialize=True)
            if group is not None:
                sid = streams.index(tup.stream)
                assert group.probe_windowed_count(
                    sid, tup.key, tup.ts, window) == want_count
                record = group.probe_record(sid, tup.seq, tup.key, tup.ts,
                                            tup.size, tup.payload, window)
                assert (record.count if record else 0) == want_count
                got = list(ResultBatch([record] if record else []))
                assert got == want_rows  # identity *and* order
                assert [r.ident for r in got] == [r.ident for r in want_rows]
                if record is not None:  # the candidate sets, bit for bit
                    others = [s for s in streams if s != tup.stream]
                    for other, rows in zip(others, record.matches[::2]):
                        assert [record.row_seq[r] for r in rows] == [
                            t.seq for t in twin.tuples_of(other)
                            if t.key == tup.key
                            and abs(t.ts - tup.ts) <= window]
                flag_values.add(group._ordered)
            else:
                assert want_count == 0
            store.probe_insert_columns(
                ColumnBatch.from_routed([(0, tup)], streams), window=window)
            twin.insert(tup)
        elif op[0] == "batch":
            rows = [make(*draw) for draw in op[1]]
            store.probe_insert_columns(
                ColumnBatch.from_routed([(0, t) for t in rows], streams))
            for tup in rows:
                twin.insert(tup)
        elif op[0] == "purge":
            store.purge_window(clock - op[1])
            twin.purge_older_than(clock - op[1])
        elif op[0] == "thaw":
            for frozen in store.evict([0]):  # freeze(share=True) → thaw
                store.install(frozen)
        elif op[0] == "promote" and group is not None:
            getattr(group, f"promote_{op[1]}")()
        group = store.peek(0)
        if group is not None:  # typed, and one entry per row in every column
            assert_typed_buffers(group)
    return flag_values


class TestWindowProbe:
    @pytest.mark.parametrize("m", [3, 4])
    @settings(max_examples=150, deadline=None)
    @given(window=st.sampled_from([0.2, 0.5, 0.7, 1.0]), ops=WINDOW_OPS)
    # the four disagreement triples: probe newer than the stored rows ...
    @example(window=0.5, ops=[("row", 1, 0, (0.3,)), ("row", 2, 0, (0.3,)),
                              ("row", 0, 0, (0.8,)), ("row", 1, 0, (0.8,)),
                              ("row", 2, 0, (0.3,))])
    @example(window=0.2, ops=[("row", 1, 0, (0.7,)), ("row", 2, 0, (0.7,)),
                              ("row", 0, 0, (0.9,)), ("row", 1, 0, (0.9,)),
                              ("row", 2, 0, (0.7,))])
    # ... and older (buckets still ordered: the probing stream is new)
    @example(window=0.7, ops=[("row", 1, 0, (0.9,)), ("row", 2, 0, (0.9,)),
                              ("row", 1, 0, (3.0,)), ("row", 0, 0, (0.2,))])
    @example(window=0.2, ops=[("row", 1, 0, (0.6,)), ("row", 2, 0, (0.6,)),
                              ("row", 1, 0, (0.8,)), ("row", 2, 0, (0.8,)),
                              ("row", 0, 0, (0.6,))])
    def test_every_probe_equals_the_row_format_twin(self, m, window, ops):
        windowed_probe_twins(m, window, ops)

    def test_order_flag_drops_and_comes_back(self):
        """In-order appends keep the flag; one indexed append that goes
        backwards clears it (the scan takes over, same answers); a purge
        that removes the offender rebuilds the index and restores it."""
        in_order = [("row", sid, 0, 0.5) for sid in (0, 1, 2, 0, 1, 2)]
        assert windowed_probe_twins(3, 1.0, in_order) == {True}
        late = in_order + [("row", 1, 0, (0.3,)), ("row", 2, 0, 0.1),
                           ("row", 0, 0, 0.1)]
        assert windowed_probe_twins(3, 1.0, late) == {True, False}
        # a count-only batch appended under a live index observes it too
        batched = in_order + [("batch", [(1, 0, 0.1)]), ("row", 0, 0, 0.0)]
        assert windowed_probe_twins(3, 1.0, batched) == {True}
        batched += [("batch", [(1, 0, (0.3,))]), ("row", 0, 0, 0.1)]
        assert windowed_probe_twins(3, 1.0, batched) == {True, False}
        group = ColumnarPartitionGroup(0, STREAMS)
        for seq, ts in enumerate([1.0, 2.0, 0.2, 3.0]):
            group.insert(StreamTuple("B", seq, 5, ts))
            group.insert(StreamTuple("C", seq, 5, 3.0))
        assert group.probe_windowed_count(0, 5, 3.0, 1.0) == 8  # builds the index
        assert not group._ordered
        group.purge_older_than(0.5)
        assert group.probe_windowed_count(0, 5, 3.0, 1.0) == 8
        assert group._ordered

    @pytest.mark.parametrize("column", ["sizes", "payloads"])
    def test_count_only_batch_lands_on_a_promoted_column(self, column):
        """A count-only segment appended to a group whose sizes / payloads
        are explicit columns extends that column too, index live or not:
        the windowed materialising probes that read the rows afterwards
        (before and after a freeze → thaw) agree with the twin, sizes and
        payloads included."""
        rows = [("row", sid, 0, 0.5) for sid in (0, 1, 2)]
        for before in ([("batch", [(0, 0, 0.0)])], rows):  # no index / live
            ops = (before
                   + [("promote", column), ("batch", [(1, 0, 0.1), (2, 0, 0.0)])]
                   + rows + [("thaw",), ("batch", [(0, 0, 0.0)])] + rows)
            windowed_probe_twins(3, 1.0, ops)

    def test_ordered_probe_touches_a_logarithm_of_the_bucket(self, monkeypatch):
        """10 000 rows under one key per input, a window that holds three
        of them: the probe bisects instead of scanning, and counts in
        closed form instead of walking combinations."""

        class CountingArray(array):
            reads = 0

            def __getitem__(self, index):
                CountingArray.reads += 1
                return array.__getitem__(self, index)

        n = 10_000
        group = ColumnarPartitionGroup(0, STREAMS)
        for row in range(n):
            for stream in ("B", "C"):
                group.insert(StreamTuple(stream, row, 7, float(row)))
        ts, window = float(n - 1), 2.0
        assert group.probe_windowed_count(0, 7, ts, window) == 9  # index built
        assert group._ordered
        group.row_ts = CountingArray("d", group.row_ts)
        monkeypatch.setattr(
            columns, "_window_count",
            lambda *args: pytest.fail("combinations walked"))
        assert group.probe_windowed_count(0, 7, ts, window) == 9
        per_bucket = CountingArray.reads / 2
        assert per_bucket <= 2 * math.log2(n)  # a scan would read 10 000
        record = group.probe_record(0, 0, 7, ts, 64, (), window)
        assert record.count == 9
        assert [len(rows) for rows in record.matches[::2]] == [3, 3]
        twin = PartitionGroup(0, STREAMS)
        for row in range(n - 5, n):
            for stream in ("B", "C"):
                twin.insert(StreamTuple(stream, row, 7, float(row)))
        assert list(ResultBatch([record])) == twin.probe_windowed(
            StreamTuple("A", 0, 7, ts), window, materialize=True)[1]


def run_deployment(data_path, **kwargs):
    tracer = Tracer()
    dep = small_deployment(collect=True, data_path=data_path,
                           tracer=tracer, **kwargs)
    dep.run(duration=40.0, sample_interval=5.0)
    report = dep.cleanup(materialize=True)
    return dep, report, tracer


class TestDeploymentEquivalence:
    def test_byte_identical_outputs_and_traces(self):
        dep_a, report_a, tracer_a = run_deployment("batched")
        dep_b, report_b, tracer_b = run_deployment("columnar")
        assert dep_a.spill_count > 0  # the run actually adapted
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert report_a.missing_results == report_b.missing_results
        assert ({r.ident for r in report_a.results}
                == {r.ident for r in report_b.results})
        # byte-identical adaptation traces: every spill, relocation and
        # protocol step happened at the same simulated instant either way
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()

    def test_windowed_deployment_equivalence(self):
        def run(data_path):
            tracer = Tracer()
            dep = Deployment(
                join=three_way_join(window=20.0),
                workload=WorkloadSpec.uniform(
                    n_partitions=8, join_rate=3.0, tuple_range=240,
                    interarrival=0.05, seed=7,
                ),
                workers=["m1"],
                config=AdaptationConfig(
                    strategy=StrategyName.NO_RELOCATION,
                    memory_threshold=6_000,
                    ss_interval=2.0,
                ),
                collect_results=True,
                record_inputs=True,
                data_path=data_path,
                tracer=tracer,
            )
            dep.run(duration=50, sample_interval=10)
            return dep, tracer

        dep_a, tracer_a = run("batched")
        dep_b, tracer_b = run("columnar")
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()


def run_crash_deployment(data_path, **kwargs):
    """Checkpointed three-worker run with a crash and restart of m2."""
    tracer = Tracer()
    dep = small_deployment(
        strategy=StrategyName.LAZY_DISK,
        workers=3,
        n_partitions=8,
        join_rate=3.0,
        tuple_range=240,
        interarrival=0.05,
        collect=True,
        data_path=data_path,
        tracer=tracer,
        config_overrides=dict(
            checkpoint_enabled=True,
            checkpoint_interval=6.0,
            failure_timeout=5.0,
        ),
        **kwargs,
    )
    FaultSchedule([
        MachineCrash(time=15.0, engine=dep.engines["m2"]),
        MachineRestart(time=25.0, engine=dep.engines["m2"]),
    ]).arm(dep.sim)
    dep.run(duration=45.0, sample_interval=5.0)
    return dep, tracer


class TestCrashEquivalence:
    def test_checkpointed_crash_run_is_identical(self):
        """Crash + recovery from checkpoints: same outputs, same traces,
        same canonical checkpoint registry either way."""

        def run(data_path):
            dep, tracer = run_crash_deployment(data_path)
            registry = tuple(
                (e.pid, e.owner, e.holder, e.time, e.live,
                 canonical_frozen(e.frozen))
                for e in dep.registry.entries()
            )
            return dep, tracer, registry

        dep_a, tracer_a, registry_a = run("batched")
        dep_b, tracer_b, registry_b = run("columnar")
        assert dep_a.checkpoint_count > 0
        assert dep_a.total_outputs == dep_b.total_outputs
        assert ([r.ident for r in dep_a.collector.results]
                == [r.ident for r in dep_b.collector.results])
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()
        assert registry_a == registry_b

    def test_results_first_read_after_cleanup(self):
        """Spill + relocation + crash/recovery, latency on, and nobody
        looks at ``.results`` until the run *and* the cleanup are over:
        the lazy batches the collector kept — commit-interval
        concatenations whose groups have since been spilled, shipped,
        lost in the crash, restored and merged from disk — still read
        back as exactly the rows the batched path boxed on the spot."""

        def run(data_path):
            dep, tracer = run_crash_deployment(
                data_path, latency=True, memory_threshold=9_000,
                assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
            )
            report = dep.cleanup(materialize=True)
            return dep, tracer, report

        dep_a, tracer_a, report_a = run("batched")
        dep_b, tracer_b, report_b = run("columnar")
        assert dep_b.spill_count > 0 and dep_b.relocation_count > 0
        assert dep_b.recovery_count > 0 and dep_b.checkpoint_count > 0
        assert tracer_a.to_jsonl() == tracer_b.to_jsonl()
        results_a, results_b = dep_a.collector.results, dep_b.collector.results
        assert len(results_b) == dep_b.total_outputs > 0
        assert results_b == results_a  # idents, order, sizes, timestamps
        assert ([r.ident for r in report_a.results]
                == [r.ident for r in report_b.results])
        hub_a, hub_b = dep_a.metrics.latency, dep_b.metrics.latency
        for machine, tracker in hub_a.trackers.items():
            for cause, sketch in tracker.sketches.items():
                assert (hub_b.trackers[machine].sketches[cause].to_bytes()
                        == sketch.to_bytes()), (machine, cause)


def source_fingerprint(dep, tracer, report):
    """Everything the source side and its consumers can observe."""
    host = dep.source_host
    return dict(
        trace=tracer.to_jsonl(),
        outputs=dep.total_outputs,
        results=[r.ident for r in dep.collector.results],
        missing=report.missing_results,
        cleanup={r.ident for r in report.results},
        generated=[s.generator.tuples_generated for s in dep.sources],
        sent=[s.tuples_sent for s in dep.sources],
        routed=host.tuples_routed,
        dropped=host.tuples_dropped,
        replayed=host.replayed_total,
        trimmed=host.trimmed_total,
        inputs=host.inputs,
        replay_log=host._replay_log.items(),
        splits=[
            (name, split.inputs_seen, split.outputs_emitted,
             split.buffered_total, list(split._buffers.items()),
             split.refinement, split.partition_map.as_dict())
            for name, split in dep.splits.items()
        ],
        registry=dep.registry and (
            dep.registry.routing_version,
            tuple(sorted(dep.registry.refinements.items())),
            tuple(sorted(
                (e.pid, e.owner, e.holder, e.time, e.live,
                 canonical_frozen(e.frozen))
                for e in dep.registry.entries()
            )),
        ),
    )


def assert_same_source_behaviour(run):
    """``run(data_path)`` -> (dep, tracer, report); the column source must
    be indistinguishable from the batched row path."""
    fingerprints = {}
    for data_path in ("batched", "columnar"):
        dep, tracer, report = run(data_path)
        fingerprints[data_path] = source_fingerprint(dep, tracer, report)
    for field, want in fingerprints["batched"].items():
        assert fingerprints["columnar"][field] == want, field
    return dep


def split_merge_crash_deployment(window, **deployment_kwargs):
    """Split and merge sessions with a crash + restart of the owner in
    between (not yet run)."""
    from tests.test_repartition_differential import build, skewed_workload

    plain = dict(
        workload=skewed_workload(alternating=False, weight=6.0),
        config_overrides=dict(memory_threshold=40_000),
    )
    dep = build(
        join=three_way_join(window=window), checkpoint=True,
        **deployment_kwargs, **({} if window else plain),
    )
    FaultSchedule([
        MachineCrash(time=25.03, engine=dep.engines["m1"]),
        MachineRestart(time=33.03, engine=dep.engines["m1"]),
    ]).arm(dep.sim)
    return dep


class TestColumnSourceDifferential:
    """Whole runs, column source vs ``data_path="batched"``: byte-identical
    trace, outputs, counters, buffers, replay log and checkpoint registry
    on every cold path the columns have to hand rows to."""

    def test_spill_and_relocation_pause_mid_batch(self):
        def run(data_path):
            tracer = Tracer()
            dep = small_deployment(
                workers=3, assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
                n_partitions=12, interarrival=0.005, batch_size=50,
                data_path=data_path, tracer=tracer,
            )
            dep.run(duration=60.0, sample_interval=5.0)
            return dep, tracer, dep.cleanup()

        dep = assert_same_source_behaviour(run)
        assert dep.spill_count > 0 and dep.relocation_count > 0
        # pauses cut through batches: some rows buffered, the rest routed
        assert 0 < sum(s.buffered_total for s in dep.splits.values())

    @pytest.mark.parametrize("window", [None, 10.0])
    def test_split_merge_crash_and_replay(self, window):
        def run(data_path):
            tracer = Tracer()
            dep = split_merge_crash_deployment(window, data_path=data_path,
                                               tracer=tracer)
            dep.run(duration=90, sample_interval=10)
            return dep, tracer, dep.cleanup(materialize=True)

        dep = assert_same_source_behaviour(run)
        assert dep.coordinator.repartition.splits_completed > 0
        assert dep.recovery_count > 0 and dep.source_host.replayed_total > 0
        assert dep.source_host.trimmed_total > 0

    def test_48_workers_one_or_two_rows_per_owner(self):
        def run(data_path):
            tracer = Tracer()
            dep = small_deployment(
                workers=48, n_partitions=128, join_rate=2.0, tuple_range=200,
                memory_threshold=10**7, batch_size=50, data_path=data_path,
                tracer=tracer,
            )
            dep.run(duration=20.0, sample_interval=5.0)
            return dep, tracer, dep.cleanup()

        dep = assert_same_source_behaviour(run)
        stats = dep.network.stats
        batches = stats.messages - stats.control_messages
        assert 1.0 <= dep.source_host.tuples_routed / batches < 2.0

    def test_input_transforms_take_the_row_path(self):
        def run(data_path):
            tracer = Tracer()
            dep = small_deployment(
                strategy=StrategyName.NO_RELOCATION, memory_threshold=8_000,
                n_partitions=8, join_rate=3.0, tuple_range=240,
                interarrival=0.05, collect=True, data_path=data_path,
                tracer=tracer,
                input_transforms={
                    "A": [Select("even_A", lambda t: t.key % 2 == 0)],
                },
            )
            dep.run(duration=40.0, sample_interval=10.0)
            return dep, tracer, dep.cleanup(materialize=True)

        dep = assert_same_source_behaviour(run)
        assert dep.source_host.tuples_dropped > 0
        assert dep.spill_count > 0


# ----------------------------------------------------------------------
# One state class under every data path: the stored columns themselves agree
# ----------------------------------------------------------------------
def frozen_columns(frozen):
    """A columnar snapshot column for column (buffers read up to their
    bound; they may be shared with a group that kept appending)."""
    n = frozen.nrows
    return (
        frozen.pid, frozen.generation, frozen.tuple_count, frozen.size_bytes,
        frozen.output_count, n, frozen.row_sid[:n], frozen.row_seq[:n],
        frozen.row_key[:n], frozen.row_ts[:n], frozen.counts, frozen.usize,
        frozen.row_size and frozen.row_size[:n],
        frozen.row_payload and frozen.row_payload[:n],
    )


def stored_state(dep):
    """Every live group of every engine and every segment of every disk."""
    live = {name: [frozen_columns(group.freeze())
                   for group in instance.store.groups()]
            for name, instance in dep.instances.items()}
    disk = {name: [(segment.partition_id, segment.generation,
                    segment.spilled_at, frozen_columns(segment.frozen))
                   for segment in disk.segments]
            for name, disk in dep.disks.items()}
    return live, disk


class TestStateForState:
    """Row delivery and column delivery fill the same state class, so the
    differential goes below outputs and traces: at end of run the rows are
    filed in the same order in the same columns, in memory and on disk.
    That holds on the cold paths too.  A group thawed from the row-format
    snapshot of a split or merge is re-filed stream by stream rather than
    in arrival order — by every store alike, so even there the columns are
    compared as they are and not through ``canonical_frozen``."""

    def scenarios(self):
        from tests.test_windowed_checkpoint import windowed_checkpointed_deployment

        def spill_relocation_crash(data_path):
            dep, __ = run_crash_deployment(
                data_path, memory_threshold=9_000,
                assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2})
            assert dep.spill_count > 0 and dep.relocation_count > 0
            return dep

        def windowed(data_path):
            dep = windowed_checkpointed_deployment(
                crash={"m2": 25.0}, restart={"m2": 32.0}, data_path=data_path)
            dep.run(duration=60, sample_interval=10)
            return dep

        def split_merge_crash(data_path):
            dep = split_merge_crash_deployment(None, data_path=data_path)
            dep.run(duration=90, sample_interval=10)
            children = {c for pair in dep.splits["A"].refinement.values()
                        for c in pair}
            assert children & {pid for instance in dep.instances.values()
                               for pid in instance.store.partition_ids()}
            return dep

        return spill_relocation_crash, windowed, split_merge_crash

    def test_live_groups_and_segments_equal_column_for_column(self):
        for scenario in self.scenarios():
            dep = scenario("batched")
            assert dep.recovery_count > 0
            live, disk = want = stored_state(dep)
            assert sum(map(len, live.values())) > 0
            assert sum(map(len, disk.values())) > 0
            for data_path in ("tuple", "columnar"):
                assert stored_state(scenario(data_path)) == want, (
                    scenario.__name__, data_path)


# ----------------------------------------------------------------------
# Trims carry only what is new: same log as trimming by full sets
# ----------------------------------------------------------------------
class ShadowLog:
    """A flat twin of the source's replay log, trimmed the way every commit
    used to trim it: by the *full* identity set of every snapshot, hand-off
    and disk segment of the committing machine.  After every ``trim``
    delivery the real log — fed incremental sets, each segment once — must
    hold exactly the same rows."""

    def __init__(self, dep):
        self.idents = set()
        self.deliveries = 0
        self._full = defaultdict(deque)  # machine -> full sets in flight
        host = self.host = dep.source_host
        forward_columns, forward = host._forward_columns, host._forward
        on_trim = host._on_trim

        def shadow_forward_columns(batch, groups):
            self.add((batch.stream, batch.seq0 + r)
                     for __, __, rows in groups for r in rows)
            forward_columns(batch, groups)

        def shadow_forward(routed, *, record=True):
            if record:
                self.add(tup.ident for __, __, tup in routed)
            forward(routed, record=record)

        def shadow_on_trim(message):
            on_trim(message)
            self.idents -= self._full[message.payload.machine].popleft()
            self.deliveries += 1
            assert self.logged() == sorted(self.idents)

        host._forward_columns = shadow_forward_columns
        host._forward = shadow_forward
        host._on_trim = shadow_on_trim
        for engine in dep.engines.values():
            self.shadow_manager(engine.checkpointer)

    def add(self, idents):
        for ident in idents:
            assert ident not in self.idents, f"{ident} forwarded twice"
            self.idents.add(ident)

    def logged(self):
        return sorted(tup.ident for __, rows in self.host._replay_log.items()
                      for tup in rows)

    def shadow_manager(self, manager):
        from repro.recovery import frozen_idents

        send_trim = manager._send_trim

        def shadow_send_trim(snapshots, handoff):
            durable = [*snapshots, *handoff,
                       *(s.frozen for s in manager.disk.segments)]
            if durable:  # a trim message is on its way
                self._full[manager.machine.name].append(
                    frozenset().union(*map(frozen_idents, durable)))
            send_trim(snapshots, handoff)

        manager._send_trim = shadow_send_trim


def purging_windowed_deployment(**deployment_kwargs):
    """Windowed crash + restart with the expired state purged every 4 s
    (each purge swaps in new column buffers)."""
    from repro.cluster.simulation import Timer
    from tests.test_windowed_checkpoint import windowed_checkpointed_deployment

    dep = windowed_checkpointed_deployment(
        crash={"m2": 25.0}, restart={"m2": 32.0}, **deployment_kwargs)

    def purge():
        for instance in dep.instances.values():
            instance.purge_window(dep.sim.now)

    timer = Timer(dep.sim, 4.0, purge)
    dep.sim.schedule_at(60.0, timer.stop)
    return dep


def trim_scenarios():
    from tests.test_recovery import _skewed_deployment, checkpointed_deployment
    from tests.test_windowed_checkpoint import windowed_checkpointed_deployment
    from tests.test_windowed_differential import build

    def spill_relocation_crash(**kwargs):
        dep = build(
            three_way_join(window=20.0), workers=3,
            assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
            config_overrides=dict(
                memory_threshold=30_000, checkpoint_enabled=True,
                checkpoint_interval=6.0, failure_timeout=5.0,
            ),
            **kwargs,
        )
        FaultSchedule([
            MachineCrash(time=25.0, engine=dep.engines["m1"]),
            MachineRestart(time=32.0, engine=dep.engines["m1"]),
        ]).arm(dep.sim)
        return dep

    return {
        "crash": (50, lambda **kw: checkpointed_deployment(
            assignment={"m1": 0.5, "m2": 0.3, "m3": 0.2},
            crash={"m2": 25.0}, **kw)),
        "windowed crash + restart": (60, lambda **kw:
            windowed_checkpointed_deployment(
                crash={"m2": 25.0}, restart={"m2": 32.0}, **kw)),
        "spilled state + crash": (50, lambda **kw: checkpointed_deployment(
            memory_threshold=8_000, crash={"m2": 25.0}, **kw)),
        "hand-off, receiver dies": (50, lambda **kw: _skewed_deployment(
            crash={"m3": 25.03}, **kw)),
        "hand-off, sender dies after": (50, lambda **kw: _skewed_deployment(
            crash={"m2": 25.1}, **kw)),
        "windowed spill + relocation + crash": (60, spill_relocation_crash),
        "split + merge + crash": (90, lambda **kw:
            split_merge_crash_deployment(None, **kw)),
        "windowed split + merge + crash": (90, lambda **kw:
            split_merge_crash_deployment(10.0, **kw)),
        "purge + crash + restart": (60, purging_windowed_deployment),
    }


class TestIncrementalTrim:
    @pytest.mark.parametrize("scenario", list(trim_scenarios()))
    def test_log_equals_full_trim_after_every_delivery(self, scenario):
        duration, build = trim_scenarios()[scenario]
        seen = {}
        for data_path in ("batched", "columnar"):
            tracer = Tracer()
            dep = build(data_path=data_path, tracer=tracer)
            shadow = ShadowLog(dep)
            dep.run(duration=duration, sample_interval=10)
            host = dep.source_host
            assert shadow.deliveries > 5 and host.trimmed_total > 0
            assert dep.recovery_count > 0
            seen[data_path] = dict(
                trimmed=host.trimmed_total,
                replayed=host.replayed_total,
                replays=[e.fields["detail"] for e in tracer.events
                         if e.name == "recovery.replay"],
                log=host._replay_log.items(),
                deliveries=shadow.deliveries,
            )
            assert seen[data_path]["replays"]
        assert seen["columnar"] == seen["batched"]

    def test_trim_volume_is_proportional_to_new_rows(self):
        """50 commits over state that is never purged: every identity is
        shipped about once, not once per commit it has lived through."""
        dep = small_deployment(
            workers=2, n_partitions=8, join_rate=3.0, tuple_range=240,
            interarrival=0.05, memory_threshold=10**7, data_path="columnar",
            config_overrides=dict(
                checkpoint_enabled=True, checkpoint_interval=2.0,
                failure_timeout=5.0,
            ),
        )
        dep.run(duration=51.0, sample_interval=10.0)
        managers = [engine.checkpointer for engine in dep.engines.values()]
        assert sum(m.checkpoints for m in managers) == 50
        sent = sum(m.trim_idents_sent for m in managers)
        routed = dep.source_host.tuples_routed
        assert routed == dep.source_host.trimmed_total + sum(
            len(rows) for __, rows in dep.source_host._replay_log.items())
        assert dep.source_host.trimmed_total <= sent <= 2.5 * routed

    def test_segments_ship_once_and_marks_follow_the_live_groups(self):
        """A spill segment goes into exactly one trim; an evicted group's
        mark (a held buffer) is forgotten; ``reset()`` forgets everything,
        so a restarted machine starts over with full sets."""
        dep = small_deployment(
            workers=2, n_partitions=8, join_rate=3.0, tuple_range=240,
            interarrival=0.05, memory_threshold=8_000, data_path="columnar",
            config_overrides=dict(
                checkpoint_enabled=True, checkpoint_interval=6.0,
                failure_timeout=5.0,
            ),
        )
        dep.run(duration=40.0, sample_interval=10.0)
        assert dep.spill_count > 0
        manager = next(engine.checkpointer for engine in dep.engines.values()
                       if engine.checkpointer.disk.segments)

        def commit():
            before = manager.trim_idents_sent
            manager.commit("test")
            dep.sim.run()
            return manager.trim_idents_sent - before

        commit()  # whatever arrived after the last tick
        assert commit() == 0  # nothing new: no live row, no segment again
        gone, *live = manager.store.partition_ids()
        assert set(manager._trim_marks) == {gone, *live}
        manager.store.evict([gone])
        assert commit() == 0 and set(manager._trim_marks) == set(live)
        manager.reset()
        assert commit() == (
            sum(manager.store.peek(pid).tuple_count for pid in live)
            + sum(s.frozen.tuple_count for s in manager.disk.segments))

    def test_trim_for_child_pids_lands_before_the_remap(self):
        """The owner of a split trims the *children* in the commit that
        precedes the source's ``remap``: the covered rows are still filed
        under the parent and have to go now — the trim is never repeated."""
        from repro.cluster.network import Message
        from repro.core.relocation import RemapRequest
        from repro.recovery.protocol import TrimRequest

        dep = small_deployment(
            workers=2, n_partitions=4, data_path="columnar",
            config_overrides=dict(
                checkpoint_enabled=True, checkpoint_interval=50.0,
                failure_timeout=5.0,
            ),
        )
        dep.run(duration=5.0, sample_interval=5.0)
        host = dep.source_host
        log = host._replay_log
        logged = dict(log.items())
        parent, children = 1, (101, 102)
        rows = logged[parent]
        assert len(rows) > 10 and host.trimmed_total == 0
        kept = rows[-3:]
        covered = {
            child: frozenset(t.ident for t in rows[:-3] if t.seq % 2 == odd)
            for odd, child in enumerate(children)
        }

        def deliver(kind, payload):
            host.deliver(Message("m1", host.name, kind, payload, 64, 0.0))

        deliver("trim", TrimRequest(machine="m1", covered=covered))
        assert host.trimmed_total == len(rows) - 3
        assert dict(log.items())[parent] == kept
        others = {pid: r for pid, r in logged.items() if pid != parent}
        assert {pid: r for pid, r in log.items() if pid != parent} == others
        owner = dep.splits["A"].partition_map.owner(parent)
        deliver("remap", RemapRequest(
            (parent,), owner, refinement=("split", parent, children)))
        refiled = dict(log.items())
        assert parent not in refiled
        route = dep.splits["A"].route
        assert sorted(refiled[101] + refiled[102], key=lambda t: t.ident) == \
            sorted(kept, key=lambda t: t.ident)
        assert all(route(t.key) == pid for pid in children
                   for t in refiled.get(pid, []))
