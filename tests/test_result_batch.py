"""Late-materialised join results (``ResultBatch``).

The columnar materialising probe returns one record per probing row that
matched — aliases into the probed group's buffers, bounded by their
lengths at probe time — and ``JoinResult``/``StreamTuple`` objects exist
only once somebody reads rows.  That is only legal if a batch read *late*
equals what an eager probe returned *then*, whatever happened to the group
in between, and only worth it if a run whose results nobody reads boxes
nothing.  These tests pin both, plus the ``Sequence`` surface consumers
rely on.
"""

from itertools import groupby

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import StrategyName
from repro.engine.columns import (
    ColumnBatch,
    ResultBatch,
    concat_results,
)
from repro.engine.partitions import PartitionGroup
from repro.engine.state_store import StateStore
from repro.engine.tuples import JoinResult, StreamTuple
from repro.obs.slo import EngineTracker, SLOConfig
from repro.serving import QueryServer, QuerySpec, Tenant
from repro.workloads import three_way_join

from tests.test_columnar_path import STREAMS, fresh_store
from tests.test_serving import serving_config, small_workload

N_PIDS = 2


def routed_rows(n, *, key=1, ts0=0.0):
    """``n`` rows of one key cycling through the streams, 1 s apart."""
    return [
        (0, StreamTuple(STREAMS[i % 3], i, key, ts0 + i))
        for i in range(n)
    ]


def lazy_batch(rows, *, store=None, window=None):
    if store is None:
        store = fresh_store()
    count, batch = store.probe_insert_columns(
        ColumnBatch.from_routed(rows, STREAMS), materialize=True, window=window
    )
    assert isinstance(batch, ResultBatch) and len(batch) == count
    return batch


def eager_results(rows, *, window=None):
    """What a row-format group returns for the same probe/insert sequence."""
    group = PartitionGroup(0, STREAMS)
    results = []
    for __, tup in rows:
        if window is None:
            results += group.probe(tup, materialize=True)[1]
        else:
            results += group.probe_windowed(tup, window, materialize=True)[1]
        group.insert(tup)
    return results


class TestResultBatchSequence:
    def test_len_and_truthiness_do_not_box(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("boxed a row")

        rows = routed_rows(9)
        want = eager_results(rows)
        batch = lazy_batch(rows)
        empty = lazy_batch(rows[:2])  # A, B: nothing joins yet
        monkeypatch.setattr(JoinResult, "__init__", boom)
        monkeypatch.setattr(StreamTuple, "__init__", boom)
        assert len(batch) == len(want) > 9 and batch
        assert len(empty) == 0 and not empty
        # one (ts, count) per probing row that matched
        assert list(batch.ts_counts()) == [
            (ts, len(list(run)))
            for ts, run in groupby(want, key=lambda r: r.ts)]
        merged = ResultBatch()
        merged.extend(batch)
        merged.extend(empty)
        assert len(merged) == len(batch)

    @pytest.mark.parametrize("window", [None, 2.5])
    def test_rows_equal_the_eager_probe(self, window):
        rows = routed_rows(12)
        assert list(lazy_batch(rows, window=window)) == eager_results(
            rows, window=window)

    def test_indexing_slicing_and_double_iteration(self):
        rows = routed_rows(9)
        batch, want = lazy_batch(rows), eager_results(rows)
        assert batch[0] == want[0] and batch[-1] == want[-1]
        # what the e2e benchmark's drop-one-result self-test hands on
        assert batch[:-1] == want[:-1]
        assert batch[2:5] == want[2:5]
        first, second = list(batch), list(batch)
        assert first == second == want
        assert all(a is b for a, b in zip(first, second))  # boxed once
        assert want[3] in batch and batch.index(want[3]) == 3
        with pytest.raises(IndexError):
            batch[len(want)]

    def test_extend_after_reading_appends_in_order(self):
        store = fresh_store()
        rows = routed_rows(12)
        head = lazy_batch(rows[:7], store=store)
        tail = lazy_batch(rows[7:], store=store)
        joined = ResultBatch()
        joined.extend(head)
        assert list(joined) == list(head)
        joined.extend(tail)  # invalidates the cached rows
        assert list(joined) == eager_results(rows)
        assert len(joined) == len(head) + len(tail)

    def test_concat_results(self):
        store = fresh_store()
        rows = routed_rows(12)
        a = lazy_batch(rows[:6], store=store)
        b = lazy_batch(rows[6:], store=store)
        assert concat_results([]) == []
        assert concat_results([a]) is a
        both = concat_results([a, b])
        assert isinstance(both, ResultBatch) and a._rows is None  # not read
        assert list(both) == eager_results(rows)
        boxed = eager_results(rows[:6])
        assert concat_results([boxed, b]) == eager_results(rows)

    def test_eager_group_probe_is_the_same_enumeration(self):
        store = fresh_store()
        rows = routed_rows(10)
        lazy_batch(rows[:-1], store=store)
        __, last = rows[-1]
        group = store.peek(0)
        count, results = group.probe(last, materialize=True)
        assert type(results) is list and count == len(results)
        assert results == eager_results(rows)[-count:]
        count_w, results_w = group.probe_windowed(last, 2.5, materialize=True)
        assert results_w == eager_results(rows, window=2.5)[-count_w:]
        assert group.probe(StreamTuple("A", 99, 7, 0.0),
                           materialize=True) == (0, [])


# ----------------------------------------------------------------------
# Snapshot stability
# ----------------------------------------------------------------------
ROWS = st.lists(
    st.tuples(
        st.sampled_from(STREAMS),
        st.integers(0, 3),                # key; pid = key % N_PIDS
        st.sampled_from([0.0, 0.5, 3.0]),  # event-time step (0: equal ts)
    ),
    min_size=1, max_size=6,
)
WINDOWS = st.sampled_from([None, 1.0, 4.0])


class LazyBatchMachine(RuleBasedStateMachine):
    """A columnar store next to row-format twin groups.  Every materialising
    probe is answered lazily by the store and eagerly by the twin; the lazy
    batches are read only after later mutations."""

    def __init__(self):
        super().__init__()
        self.store = fresh_store()
        self.twins: dict[int, PartitionGroup] = {}
        self.seq = dict.fromkeys(STREAMS, 0)
        self.now = 0.0
        self.captured: list[tuple[ResultBatch, list[JoinResult]]] = []

    def twin(self, pid):
        if pid not in self.twins:
            self.twins[pid] = PartitionGroup(pid, STREAMS)
        return self.twins[pid]

    def make_rows(self, draws, *, plain):
        routed = []
        for stream, key, step in draws:
            self.now += step
            seq = self.seq[stream]
            self.seq[stream] = seq + 1
            odd = not plain and seq % 3 == 0
            routed.append((key % N_PIDS, StreamTuple(
                stream, seq, key, self.now,
                size=96 if odd else 64,
                payload=(("v", seq),) if odd else (),
            )))
        return routed

    def twin_probe(self, pid, tup, window):
        if window is None:
            return self.twin(pid).probe(tup, materialize=True)
        return self.twin(pid).probe_windowed(tup, window, materialize=True)

    @rule(draws=ROWS, window=WINDOWS, plain=st.booleans())
    def materialising_batch(self, draws, window, plain):
        """Per-row lazy probe + ``insert_cols`` (the general path)."""
        routed = self.make_rows(draws, plain=plain)
        total, batch = self.store.probe_insert_columns(
            ColumnBatch.from_routed(routed, STREAMS),
            materialize=True, window=window,
        )
        expected = []
        for pid, tup in routed:
            expected += self.twin_probe(pid, tup, window)[1]
            self.twin(pid).insert(tup)
        assert total == len(batch) == len(expected)
        self.captured.append((batch, expected))

    @rule(draws=ROWS)
    def count_only_batch(self, draws):
        """Hot path: the rows are copied onto the buffers at once — past
        the bounds of every record captured so far, and into the per-key
        buckets of a live index that later materialising probes alias."""
        routed = self.make_rows(draws, plain=True)
        self.store.probe_insert_columns(
            ColumnBatch.from_routed(routed, STREAMS))
        for pid, tup in routed:
            self.twin(pid).insert(tup)

    @rule(stream=st.sampled_from(STREAMS), key=st.integers(0, 3),
          window=WINDOWS)
    def probe_without_insert(self, stream, key, window):
        pid = key % N_PIDS
        group = self.store.peek(pid)
        if group is None:
            return
        tup = StreamTuple(stream, 10**6, key, self.now)
        record = group.probe_record(
            STREAMS.index(stream), tup.seq, key, tup.ts, tup.size,
            tup.payload, window)
        batch = ResultBatch([] if record is None else [record])
        self.captured.append((batch, self.twin_probe(pid, tup, window)[1]))

    @rule(back=st.sampled_from([0.0, 2.0, 6.0]))
    def purge(self, back):
        horizon = self.now - back
        self.store.purge_window(horizon)
        for twin in self.twins.values():
            twin.purge_older_than(horizon)

    @rule(pid=st.integers(0, N_PIDS - 1), payloads=st.booleans())
    def promote(self, pid, payloads):
        group = self.store.peek(pid)
        if group is not None:
            group.promote_payloads() if payloads else group.promote_sizes()

    @rule(pid=st.integers(0, N_PIDS - 1), reinstall=st.booleans())
    def evict(self, pid, reinstall):
        """``freeze(share=True)`` steals the buffers; ``thaw`` copies them
        into a new group (relocation) or the state leaves for good (spill)."""
        for frozen in self.store.evict([pid]):
            if reinstall:
                self.store.install(frozen)
            else:
                self.twins.pop(pid, None)

    @rule(data=st.data())
    def read_one(self, data):
        if self.captured:
            batch, expected = data.draw(st.sampled_from(self.captured))
            assert list(batch) == expected

    @invariant()
    def state_matches_twins(self):
        for pid, twin in self.twins.items():
            group = self.store.peek(pid)
            assert group is not None
            assert group.tuple_count == twin.tuple_count

    def teardown(self):
        for batch, expected in self.captured:
            assert len(batch) == len(expected)
            assert list(batch) == expected  # idents, order, sizes, payloads
            assert [r.ident for r in batch] == [r.ident for r in expected]


@pytest.mark.parametrize("payloads", [False, True])
def test_count_only_batch_after_a_promotion_reads_back_right(payloads):
    """A count-only segment landing on a group whose sizes / payloads were
    promoted to explicit columns: batches captured before it still read as
    they did then, and a materialising probe after it sees the new rows."""
    machine = LazyBatchMachine()
    key_rows = [(stream, 1, 0.5) for stream in STREAMS]
    machine.materialising_batch(key_rows, None, True)  # builds the index
    machine.promote(1 % N_PIDS, payloads)
    machine.count_only_batch(key_rows + key_rows)
    machine.materialising_batch(key_rows, 4.0, False)
    machine.state_matches_twins()
    group = machine.store.peek(1 % N_PIDS)
    column = group.row_payload if payloads else group.row_size
    assert len(column) == len(group.row_sid) == 12
    machine.teardown()


TestLazyBatchSnapshotStability = LazyBatchMachine.TestCase
TestLazyBatchSnapshotStability.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)


# ----------------------------------------------------------------------
# Whole run: nothing boxed until read, one weighted observation per row
# ----------------------------------------------------------------------
def test_lazy_run_boxes_nothing_until_results_are_read(monkeypatch):
    """Columnar, latency on, two folded tenants collecting results, with
    spills: the run builds no ``JoinResult``/``StreamTuple`` at all; reading
    both members' results builds each physical result once."""
    boxed = {"results": 0, "tuples": 0, "observations": 0}
    result_init, tuple_init = JoinResult.__init__, StreamTuple.__init__
    observe_one = EngineTracker._observe_one

    def counting(name, wrapped):
        def wrapper(self, *args, **kwargs):
            boxed[name] += 1
            return wrapped(self, *args, **kwargs)
        return wrapper

    matched_rows = []
    probe_insert_columns = StateStore.probe_insert_columns

    def counting_probe(self, cb, **kwargs):
        total, batch = probe_insert_columns(self, cb, **kwargs)
        matched_rows.append(len(list(batch.ts_counts())))
        return total, batch

    monkeypatch.setattr(JoinResult, "__init__",
                        counting("results", result_init))
    monkeypatch.setattr(StreamTuple, "__init__",
                        counting("tuples", tuple_init))
    monkeypatch.setattr(EngineTracker, "_observe_one",
                        counting("observations", observe_one))
    monkeypatch.setattr(StateStore, "probe_insert_columns", counting_probe)

    server = QueryServer(
        [Tenant("acme", 500_000), Tenant("globex", 500_000)],
        cluster_capacity=1_000_000, latency=True,
    )
    handles = [
        server.submit(QuerySpec(
            join=three_way_join(), workload=small_workload(),
            config=serving_config(strategy=StrategyName.NO_RELOCATION),
            workers=2,
            tenant=tenant, duration=40.0, data_path="columnar",
            slo=SLOConfig(target_p99=0.25),
        ))
        for tenant in ("acme", "globex")
    ]
    server.run_for(60.0, sample_interval=5.0)
    server.finish()
    (group,) = server.groups.values()
    dep = group.deployment
    assert handles[1].folded and dep.spill_count > 0
    physical = dep.total_outputs
    assert physical > 0
    assert handles[0].total_outputs == handles[1].total_outputs == physical
    # the run, flush and fan-out are over: not one row object exists
    assert boxed["results"] == 0 and boxed["tuples"] == 0
    # one weighted observation per probing row that matched, at most
    assert 0 < boxed["observations"] <= sum(matched_rows) < physical
    e2e = dep.metrics.latency.merged("e2e")
    assert e2e.count == physical

    first = handles[0].results
    assert len(first) == physical == boxed["results"]
    second = handles[1].results  # the folded member shares the boxed rows
    assert boxed["results"] == physical
    assert all(a is b for a, b in zip(first, second))
    assert handles[0].results is first  # cached
    # each probing row once; each stored row at most once per group epoch
    assert boxed["tuples"] <= sum(matched_rows) + dep.source_host.tuples_routed
