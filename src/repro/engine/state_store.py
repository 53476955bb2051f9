"""Per-join-instance operator state, charged against its machine's memory.

A :class:`StateStore` holds the live partition groups of one m-way join
instance and is the single point through which state enters or leaves a
machine, so the memory accounting invariant —

    sum of live group sizes per machine  ==  machine.memory_used share

— holds at every event boundary (verified by the test suite).  The store
also produces the statistics both adaptation policies consume: per-group
productivity snapshots for the local controller and machine-level
aggregates (total bytes, output delta, group count) for the coordinator.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count as _counter
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from repro.cluster.machine import Machine
from repro.engine.columns import (
    GROUP_OVERHEAD_BYTES,
    ArrivalSlice,
    ColumnBatch,
    ColumnarPartitionGroup,
    FrozenColumnGroup,
    ProbeRecord,
    ResultBatch,
    others_table,
)
from repro.engine.tuples import JoinResult, StreamTuple

#: The two "other inputs" of each stream of a 3-way join, unrolled for the
#: columnar hot loop (the overwhelmingly common arity here).
_PAIRS3 = ((1, 2), (0, 2), (0, 1))

#: Victim-index order names (see :meth:`StateStore.pick_victims`).
ORDER_PRODUCTIVITY_ASC = "productivity_asc"
ORDER_PRODUCTIVITY_DESC = "productivity_desc"
ORDER_SIZE_DESC = "size_desc"


class _LazyOrderHeap:
    """One lazily-repaired victim ordering over a store's live groups.

    The data path never pays heap costs: a mutated group is only *marked*
    dirty (one ``set.add``), and the heap entry is (re)built the next time
    an ordered read happens.  Entries are ``(key, pid, seq)`` where ``seq``
    is a store-wide monotonic push counter; an entry is valid only while
    its ``seq`` is still the latest pushed for that pid (classic lazy
    deletion), so stale entries cost one pop each and nothing more.
    Groups consumed by an ordered read are re-marked dirty, since the read
    invalidated their position without observing a mutation.

    The ordering produced depends only on the current group statistics —
    never on when reads happened — so every store entry point drives
    identical victim selections.
    """

    __slots__ = ("_key", "_heap", "_latest", "_dirty")

    def __init__(self, key: Callable[[ColumnarPartitionGroup], tuple]) -> None:
        self._key = key
        self._heap: list[tuple] = []
        self._latest: dict[int, int] = {}
        self._dirty: set[int] = set()

    def mark(self, pid: int) -> None:
        self._dirty.add(pid)

    def discard(self, pid: int) -> None:
        """Forget a group that left the store (evict / crash)."""
        self._latest.pop(pid, None)
        self._dirty.discard(pid)

    def clear(self) -> None:
        self._heap.clear()
        self._latest.clear()
        self._dirty.clear()

    def iterate(
        self, groups: dict[int, ColumnarPartitionGroup], counter
    ) -> Iterator[ColumnarPartitionGroup]:
        """Yield live groups in key order (lazy repair happens here)."""
        heap, latest, key = self._heap, self._latest, self._key
        if len(heap) > 64 and len(heap) > 4 * len(groups):
            # compact: too many stale entries — rebuild from the live set
            self._dirty.clear()
            latest.clear()
            heap.clear()
            for pid, grp in groups.items():
                seq = next(counter)
                latest[pid] = seq
                heap.append((key(grp), pid, seq))
            heapify(heap)
        elif self._dirty:
            for pid in sorted(self._dirty):
                grp = groups.get(pid)
                if grp is None:
                    latest.pop(pid, None)
                    continue
                seq = next(counter)
                latest[pid] = seq
                heappush(heap, (key(grp), pid, seq))
            self._dirty.clear()
        consumed: list[int] = []
        try:
            while heap:
                __, pid, seq = heappop(heap)
                if latest.get(pid) != seq:
                    continue  # superseded by a later push
                del latest[pid]
                grp = groups.get(pid)
                if grp is None:
                    continue
                consumed.append(pid)
                yield grp
        finally:
            for pid in consumed:
                self._dirty.add(pid)


class StateStore:
    """All in-memory partition groups of one join instance.

    Live state has one format, decided here: every group is a
    :class:`~repro.engine.columns.ColumnarPartitionGroup`, whichever entry
    point delivered its rows.  The engine calls one:
    :meth:`probe_insert_columns` (a delivery: an arrival slice or a column
    batch).
    :meth:`probe_insert` (one row) is the per-row reference it is defined
    against, and :meth:`probe_insert_batch` (a routed row list) the
    amortised row reference; nothing in the engine calls either.  Results,
    order, counters and victim orderings are the same through all three.

    Parameters
    ----------
    machine:
        The hosting machine; every byte of group state is allocated from it.
    streams:
        Ordered input-stream names of the owning join.
    """

    def __init__(self, machine: Machine, streams: tuple[str, ...]) -> None:
        self.machine = machine
        self.streams = streams
        self._groups: dict[int, ColumnarPartitionGroup] = {}
        #: next spill generation per partition ID on this machine
        self._next_generation: dict[int, int] = {}
        self.total_bytes = 0
        self.outputs_total = 0
        self.tuples_processed = 0
        #: Number of logical queries served by this store's state.  1 for a
        #: standalone deployment; the serving layer's join folding bumps it
        #: per member attached to the shared runtime, so state-sharing
        #: savings (``bytes × (sharers - 1)``) can be accounted at the
        #: engine layer where the bytes actually live.
        self.sharers = 1
        #: Per-partition mutation counters.  The checkpoint subsystem's
        #: incremental mode snapshots only groups whose counter moved since
        #: their last snapshot; counters vanish with their group on evict or
        #: crash, so a re-created group always reads as dirty.
        self.mutations: dict[int, int] = {}
        #: Lazily-repaired victim orderings shared by the spill policies,
        #: the relocation part picker, and :meth:`productivity_snapshot`.
        #: Mutation sites mark entries dirty through :meth:`_touch`; the
        #: heaps repair themselves on the next ordered read, so policy
        #: decisions cost O(k log n) instead of a full O(n log n) re-sort.
        self._victim_seq = _counter()
        self._victim_heaps: dict[str, _LazyOrderHeap] = {
            ORDER_PRODUCTIVITY_ASC: _LazyOrderHeap(
                lambda g: (g.productivity, g.pid)
            ),
            ORDER_PRODUCTIVITY_DESC: _LazyOrderHeap(
                lambda g: (-g.productivity, g.pid)
            ),
            ORDER_SIZE_DESC: _LazyOrderHeap(
                lambda g: (-g.size_bytes, g.pid)
            ),
        }
        #: Bound dirty-set inserts of the victim heaps.  The heap set and
        #: its ``_dirty`` set live for the store's whole lifetime (cleared
        #: in place, never reassigned), so :meth:`_touch` — and the column
        #: hot loop, once per (pid, delivery) — can skip the dict-view and
        #: method dispatch of ``for heap in ...: heap.mark(pid)``.
        self._heap_marks = tuple(
            heap._dirty.add for heap in self._victim_heaps.values()
        )
        #: Column hot-loop context per live group: ``(group, counts,
        #: counts.get)``.  Valid while the count table's *identity* holds;
        #: every site that replaces it (purge rebuilds the table) or
        #: retires the group (evict, install, crash) invalidates the entry.
        self._colhot: dict[int, tuple] = {}
        #: ``_others[sid]`` = the other inputs' indices (probe products)
        self._others = others_table(len(streams))

    def attach_sharer(self) -> None:
        """One more query now reads this store's state (join folding)."""
        self.sharers += 1

    def detach_sharer(self) -> None:
        """A folded query retired; state keeps serving the remaining ones."""
        if self.sharers <= 1:
            raise ValueError("store has no folded sharers to detach")
        self.sharers -= 1

    def _touch(self, pid: int, count: int = 1) -> None:
        """Record ``count`` mutations of one live group.

        The single funnel every mutation site goes through: it advances the
        incremental-checkpoint dirty counter *and* invalidates the group's
        victim-index entries, so a new mutation path cannot forget one of
        the two and silently reintroduce the checkpoint-staleness bug class
        (or serve victim selections from stale scores).  The one exception
        is the count-only loop of :meth:`probe_insert_columns`, which runs
        once per partition of every delivery and inlines these same two
        updates.
        """
        self.mutations[pid] = self.mutations.get(pid, 0) + count
        for mark in self._heap_marks:
            mark(pid)

    # ------------------------------------------------------------------
    # Group access
    # ------------------------------------------------------------------
    def group(self, pid: int, *, now: float = 0.0) -> ColumnarPartitionGroup:
        """The live group for ``pid``, created (and its overhead charged)
        on first touch."""
        grp = self._groups.get(pid)
        if grp is None:
            generation = self._next_generation.get(pid, 0)
            grp = ColumnarPartitionGroup(
                pid, self.streams, generation=generation, created_at=now
            )
            self._groups[pid] = grp
            self.machine.allocate(GROUP_OVERHEAD_BYTES)
            self.total_bytes += GROUP_OVERHEAD_BYTES
            # index the newborn group (creation is not a checkpoint-relevant
            # mutation — an unseen pid already reads as dirty there)
            for mark in self._heap_marks:
                mark(pid)
        return grp

    def peek(self, pid: int) -> ColumnarPartitionGroup | None:
        """The live group for ``pid`` or ``None`` (no side effects)."""
        return self._groups.get(pid)

    def __contains__(self, pid: int) -> bool:
        return pid in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def partition_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._groups))

    def groups(self) -> Iterator[ColumnarPartitionGroup]:
        return iter(self._groups.values())

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def probe_insert(
        self,
        pid: int,
        tup: StreamTuple,
        *,
        now: float = 0.0,
        materialize: bool = False,
        window: float | None = None,
    ) -> tuple[int, list[JoinResult]]:
        """Symmetric-hash-join step: probe the other inputs of ``pid``'s
        group, then insert the tuple.  Returns the produced result count
        (and the results themselves when ``materialize`` is set).

        With ``window`` set, matches are filtered to the sliding window
        before counting.  Both variants share this accounting funnel, so
        windowed groups are checkpoint-dirty and victim-indexed exactly
        like unwindowed ones.
        """
        grp = self.group(pid, now=now)
        if window is None:
            count, results = grp.probe(tup, materialize=materialize)
        else:
            count, results = grp.probe_windowed(tup, window, materialize=materialize)
        grp.insert(tup)
        grp.record_output(count)
        self.machine.allocate(tup.size)
        self.total_bytes += tup.size
        self.outputs_total += count
        self.tuples_processed += 1
        self._touch(pid)
        return count, results

    def probe_insert_batch(
        self,
        batch: list[tuple[int, StreamTuple]],
        *,
        now: float = 0.0,
        materialize: bool = False,
        window: float | None = None,
    ) -> tuple[int, list[JoinResult]]:
        """Probe-insert a whole delivered batch of routed tuples.

        Semantically identical to calling :meth:`probe_insert` per tuple in
        batch order — same probe/insert interleaving, same per-pid mutation
        counter values, same victim orderings — but the cross-tuple
        bookkeeping is amortised: one ``machine.allocate`` for the batch's
        bytes (memory only grows inside a data task, so the high-water mark
        is unchanged), one store-counter update, and one mutation/index
        update per *touched group* instead of per tuple.  Returns
        ``(total_count, results)`` summed over the batch.
        """
        groups = self._groups
        total = 0
        collected: list[JoinResult] = []
        added = 0
        touched: dict[int, int] = {}
        for pid, tup in batch:
            grp = groups.get(pid)
            if grp is None:
                grp = self.group(pid, now=now)
            if window is None:
                count, results = grp.probe(tup, materialize=materialize)
            else:
                count, results = grp.probe_windowed(
                    tup, window, materialize=materialize
                )
            if results:
                collected.extend(results)
            grp.insert(tup)
            grp.output_count += count
            total += count
            added += tup.size
            touched[pid] = touched.get(pid, 0) + 1
        if added:
            self.machine.allocate(added)
            self.total_bytes += added
        self.outputs_total += total
        self.tuples_processed += len(batch)
        for pid, mutation_count in touched.items():
            self._touch(pid, mutation_count)
        return total, collected

    def probe_insert_columns(
        self,
        cb: "ArrivalSlice | ColumnBatch",
        *,
        now: float = 0.0,
        materialize: bool = False,
        window: float | None = None,
    ) -> tuple[int, "list[JoinResult] | ResultBatch"]:
        """Probe-insert one delivery — an
        :class:`~repro.engine.columns.ArrivalSlice` or a
        :class:`~repro.engine.columns.ColumnBatch`, read through the shape
        both share: arrival-ordered columns and each partition's row list.

        Semantically identical to :meth:`probe_insert` per row in arrival
        order — same probe/insert interleaving, same per-pid mutation
        counter values, same victim orderings, byte-identical results —
        but the unwindowed count-only hot path runs entirely on flat
        columns: per partition it gathers the rows straight from the
        delivery's columns onto the group's buffers, and per row it is one
        dict lookup and an integer product, with group counters, memory
        accounting and the :meth:`_touch` updates amortised to one per
        touched group.  No ``StreamTuple`` or ``JoinResult`` is created
        here either way: with ``materialize`` the results come back as a
        lazy :class:`~repro.engine.columns.ResultBatch` — one record per
        probing row that matched — which boxes them when a consumer reads
        rows.  The rows are counted into :attr:`tuples_processed`.
        """
        cols = cb.batch
        if (window is not None or materialize or cols.sizes is not None
                or cols.payloads is not None):
            return self._probe_insert_rows(cb, now, materialize, window)
        # Hot path: uniform sizes, no payloads, count-only probes — no
        # results to order, so partitions go one after another (counting
        # only ever interacts *within* a partition group, and each row
        # list keeps its arrival order; the partitions come in the
        # first-occurrence order that creates groups as a row-by-row
        # replay would).  Per partition: bind the count table once, gather
        # the rows onto the group's buffers, run one tight loop over the
        # row list and flush accounting in one update.
        sids = cb.sids
        usid = cb.usid
        seqs = cols.seqs
        keys = cols.keys
        tss = cols.ts
        usize = cols.size
        pid = cb.pid
        if pid is not None:
            groups = ((pid, cb.rows),)
        else:
            flat = cb.rows
            groups = zip(flat[::2], flat[1::2])
        m = len(self.streams)
        one3 = m == 3 and sids is None
        if one3:
            # a 3-way join over one stream — every arrival slice: the two
            # other inputs are the same for every row
            j0, j1 = _PAIRS3[usid]
        others = self._others
        colhot = self._colhot
        mutations = self.mutations
        marks = self._heap_marks
        total = 0
        nrows = 0
        for pid, rows in groups:
            ctx = colhot.get(pid)
            if ctx is None:
                grp = self.group(pid, now=now)
                counts = grp._counts
                colhot[pid] = ctx = (grp, counts, counts.get)
            grp, counts, counts_get = ctx
            if grp.row_size is None:
                if grp._usize < 0:
                    grp._usize = usize
                elif grp._usize != usize:
                    # existing rows were recorded at another uniform
                    # size; switch to an explicit size column first
                    grp.promote_sizes()
            # rows first: a value the typed columns reject raises here,
            # before the count table or any statistic has moved
            grp.append_rows(sids, usid, seqs, keys, tss, rows, usize)
            out = 0
            if one3:
                for i in rows:
                    key = keys[i]
                    c = counts_get(key)
                    if c is None:
                        counts[key] = c = [0, 0, 0]
                    else:
                        out += c[j0] * c[j1]
                    c[usid] += 1
            else:
                for i in rows:
                    key = keys[i]
                    sid = usid if sids is None else sids[i]
                    c = counts_get(key)
                    if c is None:
                        counts[key] = c = [0] * m
                    else:
                        count = 1
                        for j in others[sid]:
                            count *= c[j]
                        out += count
                    c[sid] += 1
            n = len(rows)
            grp.tuple_count += n
            grp.size_bytes += n * usize
            grp.output_count += out
            total += out
            nrows += n
            # :meth:`_touch`, inlined
            mutations[pid] = mutations.get(pid, 0) + n
            for mark in marks:
                mark(pid)
        added = nrows * usize
        if added:
            self.machine.allocate(added)
            self.total_bytes += added
        self.outputs_total += total
        self.tuples_processed += nrows
        return total, []

    def _probe_insert_rows(
        self, cb: "ArrivalSlice | ColumnBatch", now: float, materialize: bool,
        window: float | None,
    ) -> tuple[int, "list[JoinResult] | ResultBatch"]:
        """:meth:`probe_insert_columns` for deliveries with per-row sizes or
        payloads, windows or materialisation — column-native throughout:
        matches are recorded, not boxed.  Partitions go one after another
        as on the hot path; result order is observable here, so each
        record is filed under its arrival row and the records come out in
        arrival order."""
        cols = cb.batch
        sids = cb.sids
        usid = cb.usid
        seqs = cols.seqs
        keys = cols.keys
        tss = cols.ts
        sizes = cols.sizes
        usize = cols.size
        pays = cols.payloads
        several = cb.pid is None
        if not several:
            groups = ((cb.pid, cb.rows),)
        else:
            flat = cb.rows
            groups = zip(flat[::2], flat[1::2])
        live = self._groups
        others = self._others
        total = 0
        nrows = 0
        added = 0
        records: list[tuple[int, ProbeRecord]] = []
        for pid, rows in groups:
            grp = live.get(pid)
            if grp is None:
                grp = self.group(pid, now=now)
            for i in rows:
                sid = usid if sids is None else sids[i]
                key = keys[i]
                ts = tss[i]
                size = usize if sizes is None else sizes[i]
                payload = () if pays is None else pays[i] or ()
                if materialize:
                    record = grp.probe_record(sid, seqs[i], key, ts, size,
                                              payload, window)
                    if record is None:
                        count = 0
                    else:
                        count = record.count
                        records.append((i, record))
                elif window is None:
                    c = grp._counts.get(key)
                    if c is None:
                        count = 0
                    else:
                        count = 1
                        for j in others[sid]:
                            count *= c[j]
                else:
                    count = grp.probe_windowed_count(sid, key, ts, window)
                grp.insert_cols(sid, seqs[i], key, ts, size, payload)
                grp.output_count += count
                total += count
                added += size
            n = len(rows)
            nrows += n
            self._touch(pid, n)
        if added:
            self.machine.allocate(added)
            self.total_bytes += added
        self.outputs_total += total
        self.tuples_processed += nrows
        if not materialize or not nrows:
            return total, []
        if several:
            records.sort(key=itemgetter(0))
        return total, ResultBatch([record for __, record in records])

    # ------------------------------------------------------------------
    # Adaptation paths
    # ------------------------------------------------------------------
    def evict(self, pids: Iterable[int]) -> list[FrozenColumnGroup]:
        """Remove the given live groups, releasing their memory.

        Used by both adaptations: spill parks the returned snapshots on the
        local disk; relocation ships them to the receiver.  The next
        in-memory instance of an evicted ID gets the following generation
        number, preserving merge order for cleanup.
        """
        frozen: list[FrozenColumnGroup] = []
        for pid in pids:
            grp = self._groups.pop(pid, None)
            if grp is None:
                continue
            # the live group is discarded right here: the snapshot keeps
            # its column buffers (zero-copy spill / relocation payload) and
            # its count table dies with it
            frozen.append(grp.freeze())
            self._next_generation[pid] = grp.generation + 1
            self.machine.release(grp.size_bytes)
            self.total_bytes -= grp.size_bytes
            self.mutations.pop(pid, None)
            self._colhot.pop(pid, None)
            for heap in self._victim_heaps.values():
                heap.discard(pid)
        return frozen

    def install(
        self, frozen: FrozenColumnGroup, *, now: float = 0.0
    ) -> ColumnarPartitionGroup:
        """Install a snapshot as a live group on this machine: a relocated
        or restored one, or one a split/merge emits."""
        if frozen.pid in self._groups:
            raise ValueError(
                f"partition {frozen.pid} already live on machine "
                f"{self.machine.name!r}; relocation mapping is inconsistent"
            )
        grp = ColumnarPartitionGroup.thaw(frozen, created_at=now)
        self._groups[frozen.pid] = grp
        self._colhot.pop(frozen.pid, None)
        nxt = self._next_generation.get(frozen.pid, 0)
        self._next_generation[frozen.pid] = max(nxt, frozen.generation + 1)
        self.machine.allocate(grp.size_bytes)
        self.total_bytes += grp.size_bytes
        # installs carry no new outputs; they do dirty the group
        self._touch(frozen.pid)
        return grp

    def split_group(
        self, parent: int, children: tuple[int, int], chooser,
        *, now: float = 0.0,
    ) -> tuple[FrozenColumnGroup, FrozenColumnGroup]:
        """Split one live group into two child groups in place (repartition).

        The parent is evicted (its snapshot taken zero-copy) and the two
        child snapshots produced by ``chooser`` are installed immediately,
        so the memory-accounting invariant holds at the call boundary and
        both children flow through the standard :meth:`install` funnel —
        fresh mutation counters, victim-heap marks, and generation
        bookkeeping included.  Returns the two child snapshots (the
        checkpoint payloads of the ``split`` commit).
        """
        if parent not in self._groups:
            raise KeyError(f"cannot split partition {parent}: not live here")
        (frozen,) = self.evict([parent])
        child0, child1 = frozen.split(children, chooser)
        self.install(child0, now=now)
        self.install(child1, now=now)
        return child0, child1

    def merge_groups(
        self, children: tuple[int, int], parent: int, *, now: float = 0.0,
    ) -> FrozenColumnGroup:
        """Fold two live sibling groups back into their parent (repartition).

        Inverse of :meth:`split_group`, through the same evict/install
        funnel.  Returns the merged parent snapshot.
        """
        for child in children:
            if child not in self._groups:
                raise KeyError(f"cannot merge partition {child}: not live here")
        merged = FrozenColumnGroup.merge(parent, self.evict(children))
        self.install(merged, now=now)
        return merged

    def purge_window(self, horizon: float) -> int:
        """Drop tuples with ``ts < horizon`` from every live group,
        releasing their memory.  Returns the number of tuples purged.

        Every purged group goes through :meth:`_touch`, so incremental
        checkpoints re-snapshot it (a stale snapshot would resurrect
        expired tuples — and their duplicate results — after a crash) and
        victim orderings see the post-purge statistics.  The productivity
        normalisation lives in
        :meth:`~repro.engine.columns.ColumnarPartitionGroup.purge_older_than`.
        """
        purged = 0
        for pid, group in list(self._groups.items()):
            dropped, freed = group.purge_older_than(horizon)
            if not dropped:
                continue
            purged += dropped
            # the purge swapped in rebuilt column buffers
            self._colhot.pop(pid, None)
            if freed:
                self.machine.release(freed)
                self.total_bytes -= freed
            self._touch(pid)
        return purged

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def iter_in_order(self, order: str) -> Iterator[ColumnarPartitionGroup]:
        """Live groups in one of the victim-index orders
        (:data:`ORDER_PRODUCTIVITY_ASC` / :data:`ORDER_PRODUCTIVITY_DESC` /
        :data:`ORDER_SIZE_DESC`), served incrementally from the lazy heap.

        Callers that stop early must close the generator (or exhaust it);
        a plain ``for`` loop that ``break``s should be wrapped in
        ``contextlib.closing`` — or use :meth:`pick_victims` /
        :meth:`productivity_snapshot`, which handle it.
        """
        return self._victim_heaps[order].iterate(self._groups, self._victim_seq)

    def pick_victims(self, order: str, amount: int) -> list[int]:
        """Non-empty groups in victim order until their sizes reach
        ``amount`` bytes (the boundary-crossing group included, matching
        the paper's always-make-progress selection rule).

        This is the incremental replacement for sorting all groups on
        every adaptation decision: cost O(d log n + k log n) for d dirty
        groups and k selected victims.
        """
        if amount <= 0:
            return []
        victims: list[int] = []
        accumulated = 0
        it = self.iter_in_order(order)
        try:
            for group in it:
                if group.is_empty:
                    continue
                victims.append(group.pid)
                accumulated += group.size_bytes
                if accumulated >= amount:
                    break
        finally:
            it.close()
        return victims

    def productivity_snapshot(
        self, limit: int | None = None
    ) -> list[tuple[int, int, int, float]]:
        """Per-group ``(pid, size_bytes, output_count, productivity)`` rows,
        ordered by ascending productivity (spill-victim order).

        Served from the lazy victim index: O(k log n) for the ``limit``
        rows actually consumed instead of a full re-sort per call.
        """
        rows: list[tuple[int, int, int, float]] = []
        it = self.iter_in_order(ORDER_PRODUCTIVITY_ASC)
        try:
            for g in it:
                rows.append((g.pid, g.size_bytes, g.output_count, g.productivity))
                if limit is not None and len(rows) >= limit:
                    break
        finally:
            it.close()
        return rows

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def state_of(self, pid: int) -> FrozenColumnGroup | None:
        """Non-destructive snapshot of one live group (test helper)."""
        grp = self._groups.get(pid)
        return None if grp is None else grp.freeze()

    # ------------------------------------------------------------------
    # Crash support
    # ------------------------------------------------------------------
    def crash_reset(self) -> int:
        """Drop every live group after a machine crash; returns bytes lost.

        Unlike :meth:`evict` this does **not** release memory back to the
        machine — :meth:`Machine.crash` has already zeroed the whole
        account.  Generation counters advance so that state re-created or
        restored after the crash never collides with pre-crash snapshots
        in the cleanup merge order.
        """
        lost = self.total_bytes
        for pid, grp in self._groups.items():
            self._next_generation[pid] = grp.generation + 1
        self._groups.clear()
        self.mutations.clear()
        self._colhot.clear()
        for heap in self._victim_heaps.values():
            heap.clear()
        self.total_bytes = 0
        return lost
