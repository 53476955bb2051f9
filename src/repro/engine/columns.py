"""Columnar (structure-of-arrays) batch and partition-group state.

Partition-group state is flat parallel columns under every data path; the
per-tuple and micro-batched paths deliver ``StreamTuple`` rows into it, the
columnar path delivers columns as well:

``ColumnBatch``
    What travels from a source host to an engine: one flat column per
    attribute (stream index, seq, key, ts) for a whole routed batch, rows
    grouped into per-pid segments, built once at the source — on the hot
    path from the generator's own columns
    (:meth:`ColumnBatch.from_arrivals`), from rows only where rows
    already exist (:meth:`ColumnBatch.from_routed`: pause-buffer flush,
    split/merge re-route, recovery replay).  One stream, uniform tuple
    sizes and empty payloads — the common case for the paper's
    benchmarks — collapse to a scalar/``None`` instead of a column.

``ColumnarPartitionGroup``
    The live partition group: row-major append-only columns (typed
    ``array`` buffers, no object per stored value) plus a per-key
    match-count table ``{key: [count per stream]}``
    (:class:`~repro.engine.partitions.PartitionGroup` is its row-format
    reference twin).  The unwindowed count-only probe — the hot path — is
    a dict lookup and an integer product; no per-tuple objects are
    created, and a delivered batch's rows are *copied* onto the buffers
    (:meth:`ColumnarPartitionGroup.append_rows`), so the batch dies with
    its delivery.  A per-(stream, key) row index is built lazily, only
    when a windowed or materialising probe (or the cleanup oracle) needs
    it — and kept current by every append from then on — and a
    row -> StreamTuple cache only when somebody reads rows.

``FrozenColumnGroup``
    Immutable snapshot whose payload *is* the column buffers.  Because the
    buffers are append-only, spill, relocation and checkpoint snapshots
    *share* them with the live group and record only a row-count bound —
    zero-copy in the Python sense; just the small in-place-mutated count
    table is copied.  Per-tuple ``StreamTuple`` objects only come back
    into existence at the materialisation boundary: the cleanup merge and
    the brute-force oracle, via the lazily built ``.data`` view.

``ResultBatch``
    What a materialising probe returns: one :class:`ProbeRecord` per
    probing row that matched, aliasing the probed group's buffers the way
    a frozen snapshot does.  The materialisation boundary for run-time
    results is the *reader*: ``JoinResult`` rows are built when a consumer
    iterates the batch (a downstream operator, a pipeline bridge, a test,
    ``collector.results``), never by the probe, the latency tracker, the
    output-commit buffer or the collectors that merely hold it.

Row order within a group is insertion order, which every probe respects,
so results and statistics are byte-identical to the row-format twin's.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple

from repro.engine.partitions import GROUP_OVERHEAD_BYTES
from repro.engine.tuples import ArrivalBatch, JoinResult, StreamTuple

#: Most input streams a group can hold: ``row_sid`` is a signed-byte array.
MAX_STREAMS = 127

_OTHERS_CACHE: dict[int, tuple[tuple[int, ...], ...]] = {}


def others_table(m: int) -> tuple[tuple[int, ...], ...]:
    """``others_table(m)[i]`` = the stream indices other than ``i``.

    Shared by the group probes and the state store's batch loop so the
    "product over the other inputs" iteration allocates nothing per row.
    """
    table = _OTHERS_CACHE.get(m)
    if table is None:
        table = tuple(
            tuple(j for j in range(m) if j != i) for i in range(m)
        )
        _OTHERS_CACHE[m] = table
    return table


def _window_count(cand_ts: list[list[float]], ts: float, window: float) -> int:
    """Combinations of one timestamp per candidate list that, together with
    the probing ``ts``, span at most ``window``."""
    count = 0
    for combo in product(*cand_ts):
        lo = min(combo)
        hi = max(combo)
        if ts < lo:
            lo = ts
        elif ts > hi:
            hi = ts
        if hi - lo <= window:
            count += 1
    return count


class ColumnBatch:
    """A routed batch in structure-of-arrays form, pre-grouped by partition.

    One flat column per attribute.  ``sids`` holds the per-row index into
    ``streams`` rather than the stream name, so the probe loop works on
    small ints.  Columns that hold one value collapse to a scalar or
    ``None``: ``sids`` is ``None`` when every row is of stream ``usid``
    (always so for a batch cut from one arrival batch; ``usid`` is ``-1``
    while ``sids`` is a list), ``sizes`` when every row has size
    ``usize``, ``payloads`` when every payload is empty.

    The columns are stored *segmented by partition ID*: ``segments`` is
    the tuple ``((pid, start, end), ...)`` in first-occurrence order of
    the pids, and rows of one pid keep their arrival order within their
    segment — which is also the only place a row's pid is recorded.
    Grouping happens here — once, at the source — so the engine's hot loop
    is pure column slices, with no per-row routing work left.  ``perm``
    maps an *arrival-order* row number to its storage index (``None`` when
    storage order already equals arrival order); order-sensitive consumers
    (windowed/materialising probes, :meth:`iter_routed`) go through it.

    A delivered batch waits in its engine's queue until a task runs it,
    and on a backlogged 64-machine run tens of thousands wait at once, so
    it keeps to three short lists for one or two rows.
    """

    __slots__ = ("streams", "sids", "usid", "seqs", "keys", "ts",
                 "sizes", "usize", "payloads", "total_size",
                 "segments", "perm")

    def __init__(self, streams, sids, usid, seqs, keys, ts,
                 sizes, usize, payloads, total_size, segments, perm):
        self.streams = streams
        self.sids = sids
        self.usid = usid
        self.seqs = seqs
        self.keys = keys
        self.ts = ts
        self.sizes = sizes
        self.usize = usize
        self.payloads = payloads
        self.total_size = total_size
        self.segments = segments
        self.perm = perm

    def __len__(self) -> int:
        return len(self.seqs)

    @classmethod
    def from_routed(cls, routed, streams: tuple[str, ...]) -> "ColumnBatch":
        """Build a column batch from ``[(pid, StreamTuple), ...]`` rows.

        Arrival order is preserved per partition (probe counts depend on
        the interleaving of inserts within a group) and recoverable across
        the whole batch via ``perm``; segments appear in first-occurrence
        order of the pids, matching the group-creation order a row-by-row
        replay would produce.
        """
        sid_of = {stream: i for i, stream in enumerate(streams)}
        grouped: dict[int, list] = {}
        for entry in enumerate(routed):
            rows = grouped.get(entry[1][0])
            if rows is None:
                grouped[entry[1][0]] = [entry]
            else:
                rows.append(entry)
        n = len(routed)
        sids: list[int] = []
        seqs: list[int] = []
        keys: list[int] = []
        tss: list[float] = []
        sizes: list[int] = []
        payloads: list[tuple] = []
        segments: list[tuple[int, int, int]] = []
        perm = [0] * n
        uniform = True
        usize = -1
        any_payload = False
        total = 0
        storage = 0
        in_order = True
        for pid, rows in grouped.items():
            start = storage
            for orig, (__, tup) in rows:
                if orig != storage:
                    in_order = False
                perm[orig] = storage
                storage += 1
                sids.append(sid_of[tup.stream])
                seqs.append(tup.seq)
                keys.append(tup.key)
                tss.append(tup.ts)
                size = tup.size
                sizes.append(size)
                total += size
                if usize < 0:
                    usize = size
                elif size != usize:
                    uniform = False
                if tup.payload:
                    any_payload = True
                    payloads.append(tup.payload)
                else:
                    payloads.append(())
            segments.append((pid, start, storage))
        one_stream = n > 0 and sids.count(sids[0]) == n
        return cls(
            streams=streams,
            sids=None if one_stream else sids,
            usid=sids[0] if one_stream else -1,
            seqs=seqs,
            keys=keys,
            ts=tss,
            sizes=None if uniform else sizes,
            usize=usize if uniform else -1,
            payloads=payloads if any_payload else None,
            total_size=total,
            segments=tuple(segments),
            perm=None if in_order else perm,
        )

    @classmethod
    def from_arrivals(cls, batch: ArrivalBatch, groups, sid: int,
                      streams: tuple[str, ...]) -> "ColumnBatch":
        """Build a column batch straight from an arrival batch's columns.

        ``groups`` is ``[(pid, row_indices), ...]`` — the rows of ``batch``
        (stream index ``sid``) routed to one owner, partitions in
        first-occurrence order, indices ascending, at least one row.  The
        result equals :meth:`from_routed` over the same rows in arrival
        order — one stream, so with ``sids`` collapsed to ``usid`` — without
        a ``StreamTuple`` ever existing.
        """
        if len(groups) == 1:
            pid, idx = groups[0]
            n = len(idx)
            segments = ((pid, 0, n),)
            perm = None
        else:
            idx = []
            spans = []
            in_order = True
            for pid, rows in groups:
                start = len(idx)
                if start and rows[0] < idx[-1]:
                    in_order = False
                idx += rows
                spans.append((pid, start, len(idx)))
            segments = tuple(spans)
            n = len(idx)
            perm = None if in_order else sorted(range(n), key=idx.__getitem__)
        keys = batch.keys
        ts = batch.ts
        seq0 = batch.seq0
        payloads = batch.payloads
        if payloads is not None:
            payloads = [payloads[i] or () for i in idx]
            if not any(payloads):
                payloads = None
        # positional (``__init__`` order): one of these is built per data
        # message, and twelve keywords are a third of the call
        return cls(
            streams, None, sid,
            [seq0 + i for i in idx], [keys[i] for i in idx], [ts[i] for i in idx],
            None, batch.size, payloads, n * batch.size, segments, perm,
        )

    def tuple_at(self, row: int) -> StreamTuple:
        """Materialise the ``row``-th tuple in arrival order."""
        st = self.perm[row] if self.perm is not None else row
        sids = self.sids
        sizes = self.sizes
        payloads = self.payloads
        return StreamTuple(
            stream=self.streams[sids[st] if sids is not None else self.usid],
            seq=self.seqs[st],
            key=self.keys[st],
            ts=self.ts[st],
            size=sizes[st] if sizes is not None else self.usize,
            payload=payloads[st] if payloads is not None else (),
        )

    def arrival_rows(self) -> Iterator[tuple[int, int]]:
        """``(pid, storage index)`` of every row, in arrival order."""
        perm = self.perm
        if perm is None:
            for pid, start, end in self.segments:
                for i in range(start, end):
                    yield pid, i
            return
        pid_at = [0] * len(perm)
        for pid, start, end in self.segments:
            pid_at[start:end] = [pid] * (end - start)
        for i in perm:
            yield pid_at[i], i

    def iter_routed(self) -> Iterator[tuple[int, StreamTuple]]:
        """Materialise back into ``(pid, tuple)`` rows, in arrival order."""
        for row, (pid, __) in enumerate(self.arrival_rows()):
            yield pid, self.tuple_at(row)


class ColumnarPartitionGroup:
    """Columnar live state of one partition ID across all join inputs.

    Same interface and observable behaviour as
    :class:`~repro.engine.partitions.PartitionGroup`; the storage is
    row-major append-only columns and a per-key count table
    ``_counts[key][sid]`` that makes the unwindowed count-only probe O(m)
    with no tuple objects.  The columns are typed arrays — ``row_sid``
    ``'b'``, ``row_seq``/``row_key`` ``'q'``, ``row_ts`` ``'d'``, the
    optional ``row_size`` ``'q'`` — so a stored row costs the 25 bytes its
    values need and holds no Python object (``row_payload``, when present,
    is a list: payloads are objects).  That fixes the domain: at most
    :data:`MAX_STREAMS` inputs, keys/seqs/sizes within signed 64 bits —
    a value outside it raises ``OverflowError`` and leaves the group as it
    was.  Every insert — one row
    (:meth:`insert_cols`) or a batch segment (:meth:`append_rows`) — lands
    in the buffers at once: the buffers always hold ``tuple_count`` rows,
    and nothing outside the group is referenced from it.
    """

    __slots__ = (
        "pid",
        "streams",
        "generation",
        "created_at",
        "size_bytes",
        "tuple_count",
        "output_count",
        "row_sid",
        "row_seq",
        "row_key",
        "row_ts",
        "row_size",
        "row_payload",
        "_usize",
        "_counts",
        "_index",
        "_ordered",
        "_mat",
        "_sid_of",
        "_others",
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
        if len(streams) > MAX_STREAMS:
            raise ValueError(
                f"a partition group holds at most {MAX_STREAMS} input "
                f"streams (the stream-index column is a signed byte), "
                f"got {len(streams)}"
            )
        self.pid = pid
        self.streams = streams
        self.generation = generation
        self.created_at = created_at
        self.size_bytes = GROUP_OVERHEAD_BYTES
        self.tuple_count = 0
        self.output_count = 0
        self.row_sid = array("b")
        self.row_seq = array("q")
        self.row_key = array("q")
        self.row_ts = array("d")
        #: Per-row sizes, or ``None`` while every row shares ``_usize``.
        self.row_size: array | None = None
        self._usize = -1
        #: Per-row payloads, or ``None`` while every payload is empty.
        self.row_payload: list[tuple] | None = None
        self._counts: dict[int, list[int]] = {}
        #: Lazy per-stream ``{key: [row, ...]}`` index (insertion order).
        self._index: list[dict[int, list[int]]] | None = None
        #: Whether every ``_index`` bucket has been *observed* in timestamp
        #: order (insertion order is, except when a flush and a replay
        #: interleave): cleared by an indexed append that goes backwards,
        #: recomputed whenever the index is rebuilt.  While it holds, the
        #: windowed probes bisect; see :meth:`_window_matches`.
        self._ordered = True
        #: Lazy row -> StreamTuple materialisation cache.
        self._mat: dict[int, StreamTuple] = {}
        self._sid_of = {stream: i for i, stream in enumerate(streams)}
        self._others = others_table(len(streams))

    # ------------------------------------------------------------------
    # State mutation
    # ------------------------------------------------------------------
    def _require_sid(self, stream: str) -> int:
        try:
            return self._sid_of[stream]
        except KeyError:
            raise KeyError(
                f"partition group {self.pid}: unknown stream {stream!r} "
                f"(expected one of {self.streams!r})"
            ) from None

    def append_rows(self, sids: list[int] | None, usid: int, seqs: list[int],
                    keys: list[int], tss: list[float], start: int, end: int,
                    usize: int) -> None:
        """Copy rows ``start:end`` of a batch's columns onto the row buffers
        (``sids`` ``None``: every row is of stream ``usid``).

        The storage half of the count-only hot path
        (:meth:`StateStore.probe_insert_columns
        <repro.engine.state_store.StateStore.probe_insert_columns>`, which
        keeps the count table, statistics and memory accounting itself):
        rows of uniform size ``usize`` and empty payload, appended in
        order, with the explicit size/payload columns and a live index
        (and its ``_ordered`` observation) kept right.  The rows are
        copied, so nothing of the batch outlives its delivery.
        """
        base = len(self.row_sid)
        try:
            # ``fromlist`` of a slice, not ``extend``: ``extend`` takes the
            # generic-iterator route for a list and costs twice as much
            # at the 1-3 rows a segment of a small batch holds
            self.row_sid.fromlist(
                [usid] * (end - start) if sids is None else sids[start:end])
            self.row_seq.fromlist(seqs[start:end])
            self.row_key.fromlist(keys[start:end])
            self.row_ts.fromlist(tss[start:end])
            if self.row_size is not None:
                self.row_size.fromlist([usize] * (end - start))
            if self.row_payload is not None:
                self.row_payload += [()] * (end - start)
        except BaseException:
            # a value outside its column's domain (key or seq beyond 64
            # bits) raises after earlier columns grew: keep them aligned.
            # The index only sees rows every column accepted.
            self._truncate(base)
            raise
        index = self._index
        if index is not None:
            row_ts = self.row_ts
            for row, i in enumerate(range(start, end), base):
                table = index[usid if sids is None else sids[i]]
                bucket = table.get(keys[i])
                if bucket is None:
                    table[keys[i]] = [row]
                else:
                    if row_ts[bucket[-1]] > tss[i]:
                        self._ordered = False
                    bucket.append(row)

    def _truncate(self, nrows: int) -> None:
        """Cut every row buffer back to ``nrows`` rows (a failed append)."""
        for column in (self.row_sid, self.row_seq, self.row_key, self.row_ts,
                       self.row_size, self.row_payload):
            if column is not None:
                del column[nrows:]

    def promote_sizes(self) -> array:
        """Switch from the uniform-size scalar to an explicit size column."""
        rs = self.row_size
        if rs is None:
            usize = self._usize if self._usize >= 0 else 0
            self.row_size = rs = array("q", (usize,)) * len(self.row_sid)
        return rs

    def promote_payloads(self) -> list[tuple]:
        """Switch from implicit empty payloads to an explicit column."""
        rp = self.row_payload
        if rp is None:
            self.row_payload = rp = [()] * len(self.row_sid)
        return rp

    def insert_cols(self, sid: int, seq: int, key: int, ts: float,
                    size: int, payload: tuple) -> None:
        """Append one row given already-decomposed attribute values."""
        row = len(self.row_sid)
        try:
            self.row_sid.append(sid)
            self.row_seq.append(seq)
            self.row_key.append(key)
            self.row_ts.append(ts)
            rs = self.row_size
            if rs is not None:
                rs.append(size)
            elif self._usize < 0:
                self._usize = size
            elif size != self._usize:
                rs = array("q", (self._usize,)) * row
                rs.append(size)
                self.row_size = rs
        except BaseException:
            # a value outside its column's domain (key, seq or size beyond
            # 64 bits) raises after earlier columns grew: keep them aligned
            self._truncate(row)
            raise
        rp = self.row_payload
        if rp is not None:
            rp.append(payload)
        elif payload:
            rp = [()] * row
            rp.append(payload)
            self.row_payload = rp
        c = self._counts.get(key)
        if c is None:
            self._counts[key] = c = [0] * len(self.streams)
        c[sid] += 1
        index = self._index
        if index is not None:
            bucket = index[sid].get(key)
            if bucket is None:
                index[sid][key] = [row]
            else:
                if self.row_ts[bucket[-1]] > ts:
                    self._ordered = False
                bucket.append(row)
        self.tuple_count += 1
        self.size_bytes += size

    def insert(self, tup: StreamTuple) -> None:
        """Add a tuple to its input's columns within this group."""
        sid = self._require_sid(tup.stream)
        self.insert_cols(sid, tup.seq, tup.key, tup.ts, tup.size, tup.payload)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _ensure_index(self) -> list[dict[int, list[int]]]:
        index = self._index
        if index is None:
            index = [dict() for _ in self.streams]
            row_ts = self.row_ts
            ordered = True
            for row, (sid, key) in enumerate(zip(self.row_sid, self.row_key)):
                bucket = index[sid].get(key)
                if bucket is None:
                    index[sid][key] = [row]
                else:
                    if row_ts[bucket[-1]] > row_ts[row]:
                        ordered = False
                    bucket.append(row)
            self._index = index
            self._ordered = ordered
        return index

    def tuple_at(self, row: int) -> StreamTuple:
        """Materialise (and cache) the tuple stored at ``row``."""
        tup = self._mat.get(row)
        if tup is None:
            rs = self.row_size
            rp = self.row_payload
            tup = StreamTuple(
                stream=self.streams[self.row_sid[row]],
                seq=self.row_seq[row],
                key=self.row_key[row],
                ts=self.row_ts[row],
                size=rs[row] if rs is not None else self._usize,
                payload=rp[row] if rp is not None else (),
            )
            self._mat[row] = tup
        return tup

    def probe(self, tup: StreamTuple, *, materialize: bool = False
              ) -> tuple[int, list[JoinResult]]:
        """Count (and optionally materialise) matches; see
        :meth:`PartitionGroup.probe <repro.engine.partitions.PartitionGroup.probe>`.
        """
        sid = self._require_sid(tup.stream)
        if not materialize:
            c = self._counts.get(tup.key)
            if c is None:
                return 0, []
            count = 1
            for j in self._others[sid]:
                n = c[j]
                if not n:
                    return 0, []
                count *= n
            return count, []
        return self._probe_rows(sid, tup, None)

    def _window_matches(self, sid: int, key: int, ts: float, window: float
                        ) -> tuple[int, list[tuple[list[int], int, int]]]:
        """The windowed probe proper: ``(count, spans)`` for a probing row.

        ``spans`` holds, per other input, ``(rows, lo, hi)`` — the rows of
        its ``key`` bucket within ``window`` of ``ts`` are ``rows[lo:hi]``
        — and ``count`` the combinations of one candidate per input that
        together with ``ts`` span at most ``window``; ``(0, [])`` as soon
        as one input has no candidate.

        While the buckets are in timestamp order (``_ordered``) the
        candidates are a contiguous run of the bucket itself.  ``bisect``
        on ``ts - window`` / ``ts + window`` only gets *near* its ends:
        those are different float expressions from the filter
        ``abs(row_ts[r] - ts) <= window`` and can disagree with it in the
        last place, so each end is settled with the filter itself, which
        is monotone on either side of ``ts`` over an ordered bucket.  When
        every input's last candidate is at or before ``ts`` — arrivals in
        timestamp order: nearly every probe — the probing row is the
        maximum of any combination and the span ``ts - min`` is exactly
        what the filter tested, so every combination passes and the count
        is the product of the run lengths.  Otherwise the combinations are
        walked.  A group whose buckets were observed out of order scans
        each bucket whole with the same filter.
        """
        c = self._counts.get(key)
        if c is None:
            return 0, []
        others = self._others[sid]
        for j in others:
            if not c[j]:
                return 0, []
        index = self._index
        if index is None:
            index = self._ensure_index()
        row_ts = self.row_ts
        ordered = self._ordered
        ts_of = row_ts.__getitem__
        spans: list[tuple[list[int], int, int]] = []
        closed = ordered
        count = 1
        for j in others:
            rows = index[j][key]
            if not ordered:
                rows = [r for r in rows if abs(row_ts[r] - ts) <= window]
                lo = 0
                hi = len(rows)
            else:
                n = len(rows)
                lo = bisect_left(rows, ts - window, key=ts_of)
                while lo and abs(row_ts[rows[lo - 1]] - ts) <= window:
                    lo -= 1
                while (lo < n and row_ts[rows[lo]] < ts
                       and abs(row_ts[rows[lo]] - ts) > window):
                    lo += 1
                if row_ts[rows[-1]] <= ts:
                    hi = n
                else:
                    hi = bisect_right(rows, ts + window, lo, key=ts_of)
                    while hi < n and abs(row_ts[rows[hi]] - ts) <= window:
                        hi += 1
                    while (hi > lo and row_ts[rows[hi - 1]] > ts
                           and abs(row_ts[rows[hi - 1]] - ts) > window):
                        hi -= 1
                    if hi > lo and row_ts[rows[hi - 1]] > ts:
                        closed = False
            if hi <= lo:
                return 0, []
            count *= hi - lo
            spans.append((rows, lo, hi))
        if not closed:
            count = _window_count(
                [[row_ts[r] for r in rows[lo:hi]] for rows, lo, hi in spans],
                ts, window,
            )
        return count, spans

    def probe_windowed_count(self, sid: int, key: int, ts: float,
                             window: float) -> int:
        """Count-only windowed probe over raw columns (no tuple objects)."""
        return self._window_matches(sid, key, ts, window)[0]

    def probe_windowed(
        self, tup: StreamTuple, window: float, *, materialize: bool = False
    ) -> tuple[int, list[JoinResult]]:
        """Window-filtered probe; see
        :meth:`PartitionGroup.probe_windowed
        <repro.engine.partitions.PartitionGroup.probe_windowed>`.
        """
        sid = self._require_sid(tup.stream)
        if not materialize:
            return self.probe_windowed_count(sid, tup.key, tup.ts, window), []
        return self._probe_rows(sid, tup, window)

    def _probe_rows(self, sid: int, tup: StreamTuple, window: float | None
                    ) -> tuple[int, list[JoinResult]]:
        """Eager materialising probe (row delivery): the lazy record of
        :meth:`probe_record`, read on the spot."""
        record = self.probe_record(sid, tup.seq, tup.key, tup.ts, tup.size,
                                   tup.payload, window)
        if record is None:
            return 0, []
        rows: list[JoinResult] = []
        _box_record(record, rows)
        return record.count, rows

    def probe_record(self, sid: int, seq: int, key: int, ts: float, size: int,
                     payload: tuple, window: float | None = None
                     ) -> "ProbeRecord | None":
        """Materialising probe of one row given as columns, unboxed.

        Returns the :class:`ProbeRecord` of the row's matches — ``None``
        when there are none — without creating a tuple or result object;
        a :class:`ResultBatch` boxes them if and when somebody reads rows.
        Unwindowed, the record aliases this group's per-key row buckets
        bounded by their current lengths; windowed, it owns the
        window-filtered candidate rows.
        """
        matches: list = []
        if window is None:
            c = self._counts.get(key)
            if c is None:
                return None
            others = self._others[sid]
            for j in others:
                if not c[j]:
                    return None
            index = self._index
            if index is None:
                index = self._ensure_index()
            count = 1
            for j in others:
                bucket = index[j][key]
                n = len(bucket)
                count *= n
                matches += (bucket, n)
        else:
            count, spans = self._window_matches(sid, key, ts, window)
            if not count:
                return None
            for rows, lo, hi in spans:
                matches += (rows[lo:hi], hi - lo)
        return ProbeRecord(
            ts, count, sid, seq, key, size, payload, window, self.streams,
            self.row_seq, self.row_ts, self.row_size, self._usize,
            self.row_payload, self._mat, tuple(matches),
        )

    def record_output(self, count: int) -> None:
        """Credit ``count`` produced results to this group's statistics."""
        if count < 0:
            raise ValueError(f"negative output count {count!r}")
        self.output_count += count

    def purge_older_than(self, horizon: float) -> tuple[int, int]:
        """Drop every row with ``ts < horizon``; returns
        ``(tuples_dropped, bytes_freed)``.  Statistics arithmetic matches
        :meth:`PartitionGroup.purge_older_than
        <repro.engine.partitions.PartitionGroup.purge_older_than>` exactly.
        """
        row_ts = self.row_ts
        n = len(row_ts)
        keep = [row for row in range(n) if row_ts[row] >= horizon]
        dropped = n - len(keep)
        if not dropped:
            return 0, 0
        rs = self.row_size
        if rs is None:
            freed = dropped * (self._usize if self._usize >= 0 else 0)
        else:
            freed = sum(rs[row] for row in range(n) if row_ts[row] < horizon)
            self.row_size = array("q", [rs[row] for row in keep])
        # replacement arrays, never an in-place edit: snapshots and probe
        # records keep reading the superseded ones
        self.row_sid = array("b", [self.row_sid[row] for row in keep])
        self.row_seq = array("q", [self.row_seq[row] for row in keep])
        self.row_key = array("q", [self.row_key[row] for row in keep])
        self.row_ts = array("d", [row_ts[row] for row in keep])
        rp = self.row_payload
        if rp is not None:
            self.row_payload = [rp[row] for row in keep]
        counts: dict[int, list[int]] = {}
        m = len(self.streams)
        for sid, key in zip(self.row_sid, self.row_key):
            c = counts.get(key)
            if c is None:
                counts[key] = c = [0] * m
            c[sid] += 1
        self._counts = counts
        self._index = None
        self._mat = {}
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
        payload = self.size_bytes - GROUP_OVERHEAD_BYTES
        if payload <= 0:
            return math.inf
        return self.output_count / payload

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        """Iterate this group's tuples of one input stream (row order)."""
        sid = self._require_sid(stream)
        row_sid = self.row_sid
        for row in range(len(row_sid)):
            if row_sid[row] == sid:
                yield self.tuple_at(row)

    def keys_of(self, stream: str) -> tuple[int, ...]:
        sid = self._require_sid(stream)
        return tuple(self._ensure_index()[sid])

    @property
    def is_empty(self) -> bool:
        return self.tuple_count == 0

    # ------------------------------------------------------------------
    # Snapshotting (spill / relocation / checkpoint payloads)
    # ------------------------------------------------------------------
    def freeze(self, *, share: bool = False) -> "FrozenColumnGroup":
        """Snapshot the column buffers without copying them.

        The columns are append-only: live mutation either appends past the
        current length or (purge) swaps in replacement arrays.  A snapshot
        can therefore *share* the live buffers and record only the row
        count at freeze time — later appends land beyond that bound and
        stay invisible to the snapshot, and a purge leaves the snapshot
        holding the superseded arrays.  Checkpoints and ``state_of`` get
        O(keys) snapshots (only the in-place-mutated count table is
        copied); evict (``share=True``, the live group is discarded
        immediately after) additionally keeps the count table itself.
        """
        return FrozenColumnGroup(
            pid=self.pid,
            streams=self.streams,
            generation=self.generation,
            size_bytes=self.size_bytes,
            tuple_count=self.tuple_count,
            output_count=self.output_count,
            nrows=len(self.row_sid),
            row_sid=self.row_sid,
            row_seq=self.row_seq,
            row_key=self.row_key,
            row_ts=self.row_ts,
            row_size=self.row_size,
            usize=self._usize,
            row_payload=self.row_payload,
            counts=(self._counts if share
                    else {key: c[:] for key, c in self._counts.items()}),
        )

    @classmethod
    def thaw(cls, frozen, *, created_at: float = 0.0
             ) -> "ColumnarPartitionGroup":
        """Rebuild a live group from a snapshot.

        Columnar snapshots thaw by copying the column buffers (a bounded
        slice of a typed array: one ``memcpy`` a column); row-format
        :class:`~repro.engine.partitions.FrozenPartitionGroup` snapshots
        (the children of a split, the parent of a merge) fall back to
        per-tuple inserts.
        """
        group = cls(frozen.pid, frozen.streams, generation=frozen.generation,
                    created_at=created_at)
        if isinstance(frozen, FrozenColumnGroup):
            # bounded copies: the frozen view may share (longer) buffers
            # with a still-appending live group
            end = frozen.nrows
            group.row_sid = frozen.row_sid[:end]
            group.row_seq = frozen.row_seq[:end]
            group.row_key = frozen.row_key[:end]
            group.row_ts = frozen.row_ts[:end]
            group.row_size = (None if frozen.row_size is None
                              else frozen.row_size[:end])
            group._usize = frozen.usize
            group.row_payload = (None if frozen.row_payload is None
                                 else frozen.row_payload[:end])
            group._counts = {key: list(c) for key, c in frozen.counts.items()}
        else:
            for stream in frozen.streams:
                for tup in frozen.tuples_of(stream):
                    group.insert(tup)
        group.tuple_count = frozen.tuple_count
        group.size_bytes = frozen.size_bytes
        group.output_count = frozen.output_count
        return group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarPartitionGroup(pid={self.pid}, gen={self.generation}, "
            f"tuples={self.tuple_count}, out={self.output_count}, "
            f"{self.size_bytes}B)"
        )


class FrozenColumnGroup:
    """Immutable columnar snapshot of a partition group.

    The payload is the raw column buffers; serialization paths (spill
    segments, relocation transfers, checkpoint snapshots) carry these typed
    arrays as-is.  The buffers may be *shared* with a live group that keeps
    appending — ``nrows`` records the snapshot's row-count bound, and every
    reader stays below it (appends are the only in-place buffer mutation;
    purge swaps in replacement arrays, leaving the snapshot intact).  The
    sharing is of the array *objects*, read by index: nothing may export a
    ``memoryview`` over one, which would make the live group's next append
    raise ``BufferError``.
    ``.data`` lazily materialises the row-format bucket view —
    ``{stream: {key: (StreamTuple, ...)}}`` — for the cleanup merge and the
    split/merge/rebucket transforms; nothing on the spill/checkpoint write
    path touches it.
    """

    __slots__ = ("pid", "streams", "generation", "size_bytes", "tuple_count",
                 "output_count", "nrows", "row_sid", "row_seq", "row_key",
                 "row_ts", "row_size", "usize", "row_payload", "counts",
                 "_data")

    def __init__(self, *, pid, streams, generation, size_bytes, tuple_count,
                 output_count, nrows, row_sid, row_seq, row_key, row_ts,
                 row_size, usize, row_payload, counts):
        self.pid = pid
        self.streams = streams
        self.generation = generation
        self.size_bytes = size_bytes
        self.tuple_count = tuple_count
        self.output_count = output_count
        self.nrows = nrows
        self.row_sid: array = row_sid  # 'b'
        self.row_seq: array = row_seq  # 'q'
        self.row_key: array = row_key  # 'q'
        self.row_ts: array = row_ts  # 'd'
        self.row_size: array | None = row_size  # 'q'
        self.usize = usize
        self.row_payload = row_payload
        self.counts = counts
        self._data: Mapping[str, Mapping[int, tuple[StreamTuple, ...]]] | None = None

    def idents(self, start: int = 0) -> frozenset[tuple[str, int]]:
        """Global ``(stream, seq)`` identities — straight off the columns —
        of the rows from ``start`` on (all of them by default)."""
        streams = self.streams
        row_sid = self.row_sid
        row_seq = self.row_seq
        return frozenset(
            (streams[row_sid[row]], row_seq[row])
            for row in range(start, self.nrows)
        )

    def key_counts(self, stream: str) -> dict[int, int]:
        """``{key: tuple count}`` for one input — from the count table."""
        sid = self.streams.index(stream)
        return {key: c[sid] for key, c in self.counts.items() if c[sid]}

    def keys(self) -> set[int]:
        """All join-key values present in any input of this snapshot."""
        return set(self.counts)

    def tuple_at(self, row: int) -> StreamTuple:
        rs = self.row_size
        rp = self.row_payload
        return StreamTuple(
            stream=self.streams[self.row_sid[row]],
            seq=self.row_seq[row],
            key=self.row_key[row],
            ts=self.row_ts[row],
            size=rs[row] if rs is not None else self.usize,
            payload=rp[row] if rp is not None else (),
        )

    def tuples_of(self, stream: str) -> Iterator[StreamTuple]:
        sid = self.streams.index(stream)
        row_sid = self.row_sid
        for row in range(self.nrows):
            if row_sid[row] == sid:
                yield self.tuple_at(row)

    @property
    def data(self) -> Mapping[str, Mapping[int, tuple[StreamTuple, ...]]]:
        """Row-format bucket view (the materialisation boundary).

        Built lazily on first access and cached; bucket order is row
        (insertion) order, matching what replaying the same inserts through
        a row-format group would produce.
        """
        view = self._data
        if view is None:
            tmp: dict[str, dict[int, list[StreamTuple]]] = {
                stream: {} for stream in self.streams
            }
            streams = self.streams
            row_key = self.row_key
            row_sid = self.row_sid
            for row in range(self.nrows):
                sid = row_sid[row]
                table = tmp[streams[sid]]
                key = row_key[row]
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [self.tuple_at(row)]
                else:
                    bucket.append(self.tuple_at(row))
            view = {
                stream: {key: tuple(bucket) for key, bucket in table.items()}
                for stream, table in tmp.items()
            }
            self._data = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FrozenColumnGroup(pid={self.pid}, gen={self.generation}, "
            f"tuples={self.tuple_count}, {self.size_bytes}B)"
        )


class ProbeRecord(NamedTuple):
    """Everything one probing row's join results are made of, unboxed.

    The probing row's own columns, its result count, and a *bounded alias*
    of the probed group as it stood at probe time: the column buffers, the
    row -> tuple cache and, per other input (ascending stream order), the
    matching row list with the length it had then.  The
    :class:`FrozenColumnGroup` argument makes the alias a snapshot: the
    buffers and the per-key row buckets only ever grow by appends, which
    land beyond the recorded bounds, and a purge swaps in new arrays (and a
    new cache) instead of editing the old ones.  ``row_size`` /
    ``row_payload`` recorded as ``None`` mean every row below the bounds
    had size ``usize`` / an empty payload, which a later promotion to an
    explicit column does not change.  A windowed record owns its
    ``matches`` lists (the rows within ``window`` of ``ts``).
    """

    ts: float
    count: int
    sid: int
    seq: int
    key: int
    size: int
    payload: tuple
    window: float | None
    streams: tuple[str, ...]
    row_seq: array  # 'q'
    row_ts: array  # 'd'
    row_size: array | None  # 'q'
    usize: int
    row_payload: list[tuple] | None
    mat: dict[int, StreamTuple]
    #: flat ``(rows, bound, rows, bound, ...)``, a pair per other input:
    #: read ``rows[:bound]`` only
    matches: tuple


def _box_record(record: ProbeRecord, out: list[JoinResult]) -> None:
    """Append the record's join results to ``out`` — the one place the
    columnar representation turns matches into ``JoinResult`` rows."""
    (ts, _count, sid, seq, key, size, payload, window, streams,
     row_seq, row_ts, row_size, usize, row_payload, mat, matches) = record
    probing = StreamTuple(streams[sid], seq, key, ts, size, payload)
    other_streams = [s for j, s in enumerate(streams) if j != sid]
    match_lists: list[list[StreamTuple]] = []
    for stream, rows, bound in zip(other_streams, matches[::2], matches[1::2]):
        boxed = []
        for row in rows[:bound]:
            tup = mat.get(row)
            if tup is None:
                mat[row] = tup = StreamTuple(
                    stream, row_seq[row], key, row_ts[row],
                    row_size[row] if row_size is not None else usize,
                    row_payload[row] if row_payload is not None else (),
                )
            boxed.append(tup)
        match_lists.append(boxed)
    for combo in product(*match_lists):
        if window is not None:
            lo = hi = ts
            for part in combo:
                if part.ts < lo:
                    lo = part.ts
                elif part.ts > hi:
                    hi = part.ts
            if hi - lo > window:
                continue
        out.append(JoinResult(key, combo[:sid] + (probing,) + combo[sid:], ts))


class ResultBatch(Sequence):
    """Join results held as one :class:`ProbeRecord` per probing row.

    What the columnar materialising probe returns: a read-only
    ``Sequence[JoinResult]`` in result order whose ``JoinResult`` /
    ``StreamTuple`` objects come into existence only when something
    iterates or indexes it — once per batch, then cached, so every holder
    of the same batch object (folded queries' collectors) shares one
    materialisation.  Counting (``len``, truthiness), concatenation
    (:meth:`extend`) and the latency tracker's per-row view
    (:meth:`ts_counts`) never box anything.  A held batch keeps the
    buffers its records alias alive in host memory, superseded or not;
    simulated memory accounting never sees them.
    """

    __slots__ = ("_records", "_count", "_rows")

    def __init__(self, records: Iterable[ProbeRecord] = ()) -> None:
        self._records = list(records)
        self._count = sum(record.count for record in self._records)
        self._rows: list[JoinResult] | None = None

    def __len__(self) -> int:
        return self._count

    def _boxed(self) -> list[JoinResult]:
        rows = self._rows
        if rows is None:
            rows = []
            for record in self._records:
                _box_record(record, rows)
            self._rows = rows
        return rows

    def __iter__(self) -> Iterator[JoinResult]:
        return iter(self._boxed())

    def __getitem__(self, index):
        """One result, or — for a slice — a plain list of them."""
        return self._boxed()[index]

    def extend(self, other: "ResultBatch") -> None:
        """Append another batch's results without boxing either."""
        self._records.extend(other._records)
        self._count += other._count
        self._rows = None

    def ts_counts(self) -> Iterator[tuple[float, int]]:
        """``(ts, result count)`` per probing row, in result order: every
        result of one probing row carries that row's event time."""
        for record in self._records:
            yield record.ts, record.count


def concat_results(chunks: list) -> Sequence[JoinResult]:
    """One result sequence over ``chunks`` — result lists and lazy batches —
    in order.  Lazy batches are joined record by record, not iterated;
    only a boxed list among them forces the rows into existence."""
    if len(chunks) == 1:
        return chunks[0]
    if chunks and all(type(chunk) is ResultBatch for chunk in chunks):
        merged = ResultBatch()
        for chunk in chunks:
            merged.extend(chunk)
        return merged
    return [result for chunk in chunks for result in chunk]
