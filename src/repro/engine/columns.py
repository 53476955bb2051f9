"""Columnar (structure-of-arrays) batch and partition-group state.

Partition-group state is flat parallel columns, and deliveries are
columns as well, in one shape: columns in arrival order plus each
partition's row-index list in first-occurrence order (see the
``_Delivery`` base of the two carriers).

``ArrivalSlice``
    What a data message carries on the hot path: a reference to the rows
    of one arrival batch routed to one owner — the batch, the stream
    index and the split's own row-index list per partition — and nothing
    copied.  It waits in the engine's queue as it is, and the state store
    probes it there, reading each row straight from the arrival batch's
    columns onto a group's buffers.

``ColumnBatch``
    The same shape built from rows where rows already exist — the cold
    paths: pause-buffer flush, split/merge re-route, recovery replay, an
    upstream stage's results (:meth:`ColumnBatch.from_routed`) — and
    shipped as the message itself: one flat column per attribute (stream
    index, seq, key, ts) in arrival order, plus the row lists.  One
    stream, uniform tuple sizes and empty payloads — the common case for
    the paper's benchmarks — collapse to a scalar/``None`` instead of a
    column.

``ColumnarPartitionGroup``
    The live partition group: row-major append-only columns (typed
    ``array`` buffers, no object per stored value) plus a per-key
    match-count table ``{key: [count per stream]}``.  The unwindowed
    count-only probe — the hot path — is a dict lookup and an integer
    product; no per-tuple objects are created, and a delivery's rows are
    *copied* onto the buffers
    (:meth:`ColumnarPartitionGroup.append_rows`), so nothing of a delivery
    outlives it.  A per-(stream, key) row index — one ``array('q')`` of
    row numbers per bucket — is built lazily, only when a windowed or
    materialising probe (or the cleanup oracle) needs it — and kept
    current by every append from then on — and a row -> StreamTuple cache
    only when somebody reads rows.

``FrozenColumnGroup``
    The one snapshot format: an immutable snapshot whose payload *is* the
    column buffers.  Because the buffers are append-only, spill,
    relocation and checkpoint snapshots *share* them with the live group
    and record only a row-count bound — zero-copy in the Python sense.
    A snapshot carries no count table: a thaw rebuilds it, and the
    cleanup merge derives per-key counts or row lists, in one pass over
    the rows.  Repartitioning works on snapshots as columns too: a split
    or a cleanup re-bucketing gathers each target's rows in one pass over
    ``row_key``, a merge concatenates its parts.  A snapshot never holds a
    ``StreamTuple``: a materialising cleanup merge boxes the rows its
    results name (:meth:`FrozenColumnGroup.tuple_at`) and keeps them
    nowhere but in those results.

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
from collections.abc import KeysView, Sequence
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from repro.engine.tuples import ArrivalBatch, JoinResult, StreamTuple

#: Accounted per-group bookkeeping overhead in bytes (hash-table headers,
#: statistics counters).  Charged once per live group so that even an empty
#: group has a non-zero footprint.
GROUP_OVERHEAD_BYTES = 128

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


def _count_table(row_sid: Iterable[int], row_key: Iterable[int], m: int
                 ) -> dict[int, list[int]]:
    """The live count table ``{key: [count per stream]}`` of rows given as
    their stream-index and key columns, in row order: each key enters at
    its first row, as appends enter it."""
    counts: dict[int, list[int]] = {}
    for sid, key in zip(row_sid, row_key):
        c = counts.get(key)
        if c is None:
            counts[key] = c = [0] * m
        c[sid] += 1
    return counts


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


class _Delivery:
    """The routing half of the one delivery shape, shared by both carriers.

    A delivery has ``batch``, its columns in arrival order (``keys``,
    ``ts``, ``seqs``, ``payloads``; ``size`` and per-row ``sizes`` or
    ``None``), ``streams`` with the stream index ``usid`` of every row (or
    ``sids`` a per-row list), and its rows as indices into the columns,
    grouped by partition: ``pid`` and ``rows`` (ascending row indices)
    inline for one partition — the common case — or ``pid`` ``None`` and
    ``rows`` the flat ``[pid, row_indices, pid, ...]`` list, partitions in
    first-occurrence order.  The state store probes every delivery
    through these names alone.
    """

    __slots__ = ()

    def groups(self) -> list[tuple[int, Sequence[int]]]:
        """``[(pid, row_indices), ...]`` in first-occurrence order."""
        if self.pid is not None:
            return [(self.pid, self.rows)]
        flat = self.rows
        return list(zip(flat[::2], flat[1::2]))

    def last_row(self) -> int:
        """The delivery's last arrival: its largest row index."""
        if self.pid is not None:
            return self.rows[-1]
        return max(rows[-1] for rows in self.rows[1::2])


class ColumnBatch(_Delivery):
    """A routed batch built from rows, in structure-of-arrays form.

    What the cold paths ship, where the rows already exist as
    ``StreamTuple`` objects (:meth:`from_routed`: pause-buffer flush,
    split/merge re-route, recovery replay, an upstream stage's results).
    It has the shape of an :class:`ArrivalSlice` (see :class:`_Delivery`)
    and is its own ``batch``: one flat column per attribute in arrival
    order, and the rows of each partition as an index list (one
    partition's ``rows`` is ``range(len(batch))``).  ``sids`` holds the
    per-row index into ``streams`` rather than the stream name, so the
    probe loop works on small ints.  Columns that hold one value collapse
    to a scalar or ``None``: ``sids`` is ``None`` when every row is of
    stream ``usid`` (``usid`` is ``-1`` while ``sids`` is a list),
    ``sizes`` when every row has size ``size`` (``size`` is ``-1`` while
    ``sizes`` is a list), ``payloads`` when every payload is empty.

    A batch is the message itself: it waits in the engine's queue as the
    task, the batch and its seq/key/ts lists (and, over several
    partitions, the flat list and its row lists).
    """

    __slots__ = ("streams", "sids", "usid", "seqs", "keys", "ts",
                 "sizes", "size", "payloads", "total_size", "pid", "rows")

    def __init__(self, streams, sids, usid, seqs, keys, ts,
                 sizes, size, payloads, total_size, pid, rows):
        self.streams = streams
        self.sids = sids
        self.usid = usid
        self.seqs = seqs
        self.keys = keys
        self.ts = ts
        self.sizes = sizes
        self.size = size
        self.payloads = payloads
        self.total_size = total_size
        self.pid = pid
        self.rows = rows

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def batch(self) -> "ColumnBatch":
        """The delivery's columns: a batch built from rows holds its own."""
        return self

    @classmethod
    def from_routed(cls, routed, streams: tuple[str, ...]) -> "ColumnBatch":
        """Build a column batch from ``[(pid, StreamTuple), ...]`` rows.

        The columns keep the rows' arrival order; each partition's row
        list keeps it too (probe counts depend on the interleaving of
        inserts within a group), and the partitions appear in
        first-occurrence order, matching the group-creation order a
        row-by-row replay would produce.
        """
        sid_of = {stream: i for i, stream in enumerate(streams)}
        by_pid: dict[int, list[int]] = {}
        sids: list[int] = []
        seqs: list[int] = []
        keys: list[int] = []
        tss: list[float] = []
        sizes: list[int] = []
        payloads: list[tuple] = []
        uniform = True
        usize = -1
        any_payload = False
        total = 0
        for i, (pid, tup) in enumerate(routed):
            rows = by_pid.get(pid)
            if rows is None:
                by_pid[pid] = [i]
            else:
                rows.append(i)
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
        n = len(seqs)
        if len(by_pid) == 1:
            (pid,) = by_pid
            rows = range(n)
        else:
            pid = None
            rows = [part for pair in by_pid.items() for part in pair]
        one_stream = n > 0 and sids.count(sids[0]) == n
        return cls(
            streams,
            None if one_stream else sids,
            sids[0] if one_stream else -1,
            seqs, keys, tss,
            None if uniform else sizes,
            usize if uniform else -1,
            payloads if any_payload else None,
            total, pid, rows,
        )

    def tuple_at(self, row: int) -> StreamTuple:
        """Materialise the ``row``-th tuple (arrival order)."""
        sids = self.sids
        sizes = self.sizes
        payloads = self.payloads
        return StreamTuple(
            stream=self.streams[sids[row] if sids is not None else self.usid],
            seq=self.seqs[row],
            key=self.keys[row],
            ts=self.ts[row],
            size=sizes[row] if sizes is not None else self.size,
            payload=payloads[row] if payloads is not None else (),
        )

    def iter_routed(self) -> Iterator[tuple[int, StreamTuple]]:
        """Materialise back into ``(pid, tuple)`` rows, in arrival order."""
        pid_at: list[int] = [0] * len(self)
        for pid, rows in self.groups():
            for row in rows:
                pid_at[row] = pid
        for row, pid in enumerate(pid_at):
            yield pid, self.tuple_at(row)


class ArrivalSlice(_Delivery):
    """The rows of one arrival batch routed to one owner, by reference.

    What :meth:`SourceHost._forward_columns
    <repro.engine.query_engine.SourceHost._forward_columns>` sends per
    owner, what waits in the owner's queue until its task begins, and
    what the state store probes there as it lies (see
    :class:`_Delivery`): the :class:`~repro.engine.tuples.ArrivalBatch`
    — whose columns carry the names a :class:`ColumnBatch`'s do — the
    stream index ``usid`` into ``streams`` (``sids`` is ``None``: an
    arrival batch is one stream's), and the owner's rows: one partition
    is ``pid`` and the split's own ``rows`` list inline; :meth:`add` makes
    a slice of several.  The row-index lists are shared with the split's
    routing result and the source host's replay log, so nobody may edit
    one after routing.

    A waiting message is thus the task, this object and the rows list,
    and no row of it is copied before the probe puts it on a group's
    buffers.
    """

    __slots__ = ("batch", "usid", "streams", "pid", "rows")

    #: one stream, ``usid``, for every row
    sids = None

    def __init__(self, batch: ArrivalBatch, usid: int,
                 streams: tuple[str, ...], pid: int, rows: list[int]):
        self.batch = batch
        self.usid = usid
        self.streams = streams
        self.pid = pid
        self.rows = rows

    def add(self, pid: int, rows: list[int]) -> None:
        """Add the rows routed to another partition of the same owner."""
        if self.pid is None:
            self.rows += (pid, rows)
        else:
            self.rows = [self.pid, self.rows, pid, rows]
            self.pid = None

    def __len__(self) -> int:
        if self.pid is not None:
            return len(self.rows)
        return sum(len(rows) for rows in self.rows[1::2])


class ColumnarPartitionGroup:
    """Columnar live state of one partition ID across all join inputs.

    The storage is row-major append-only columns and a per-key count table
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
        #: Lazy per-stream ``{key: array('q') of rows}`` index (insertion
        #: order): a bucket holds its row numbers unboxed.
        self._index: list[dict[int, array]] | None = None
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

    def append_rows(self, sids: Sequence[int] | None, usid: int,
                    seqs: Sequence[int], keys: Sequence[int],
                    tss: Sequence[float], rows: Sequence[int],
                    usize: int) -> None:
        """Gather rows ``rows`` of a delivery's arrival-ordered columns onto
        the row buffers (``sids`` ``None``: every row is of stream ``usid``).

        The storage half of the count-only hot path
        (:meth:`StateStore.probe_insert_columns
        <repro.engine.state_store.StateStore.probe_insert_columns>`, which
        keeps the count table, statistics and memory accounting itself):
        rows of uniform size ``usize`` and empty payload, appended in
        order, with the explicit size/payload columns and a live index
        (and its ``_ordered`` observation) kept right.  The values are
        copied straight from the delivery's columns — four ``append``
        calls a row — so nothing of the delivery outlives it.
        """
        row_sid = self.row_sid
        row_seq = self.row_seq
        row_key = self.row_key
        row_ts = self.row_ts
        base = len(row_sid)
        try:
            # one ``append`` per value: a partition of a delivery holds one
            # to three rows, where gathering a list for ``fromlist`` costs
            # more than the appends
            for i in rows:
                row_sid.append(usid if sids is None else sids[i])
                row_seq.append(seqs[i])
                row_key.append(keys[i])
                row_ts.append(tss[i])
            if self.row_size is not None:
                self.row_size.fromlist([usize] * len(rows))
            if self.row_payload is not None:
                self.row_payload += [()] * len(rows)
        except BaseException:
            # a value outside its column's domain (key or seq beyond 64
            # bits) raises after earlier columns grew: keep them aligned.
            # The index only sees rows every column accepted.
            self._truncate(base)
            raise
        index = self._index
        if index is not None:
            for row, i in enumerate(rows, base):
                table = index[usid if sids is None else sids[i]]
                bucket = table.get(keys[i])
                if bucket is None:
                    table[keys[i]] = array("q", (row,))
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
                index[sid][key] = array("q", (row,))
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
    def _ensure_index(self) -> list[dict[int, array]]:
        index = self._index
        if index is None:
            index = [dict() for _ in self.streams]
            row_ts = self.row_ts
            ordered = True
            for row, (sid, key) in enumerate(zip(self.row_sid, self.row_key)):
                bucket = index[sid].get(key)
                if bucket is None:
                    index[sid][key] = array("q", (row,))
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
        """Count (and optionally materialise) the matches a new tuple of
        stream ``tup.stream`` produces against the *other* inputs' states:
        the product of per-input match counts.  The caller inserts the
        tuple separately (probe-then-insert), so a tuple never joins with
        itself.
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
                        ) -> tuple[int, list[tuple[Sequence[int], int, int]]]:
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
        spans: list[tuple[Sequence[int], int, int]] = []
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
        """Window-filtered :meth:`probe`.  The window is pairwise: every
        pair of joined tuples must be within ``window`` seconds, i.e.
        ``max(ts) - min(ts) <= window`` — for m >= 3 two matches can
        straddle the probe, so distances to the probe alone do not decide.
        """
        sid = self._require_sid(tup.stream)
        if not materialize:
            return self.probe_windowed_count(sid, tup.key, tup.ts, window), []
        return self._probe_rows(sid, tup, window)

    def _probe_rows(self, sid: int, tup: StreamTuple, window: float | None
                    ) -> tuple[int, list[JoinResult]]:
        """Eager materialising probe (the per-row store references): the
        lazy record of :meth:`probe_record`, read on the spot."""
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
                # the count-table entry is the bucket's length now
                n = c[j]
                count *= n
                matches += (index[j][key], n)
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
        ``(tuples_dropped, bytes_freed)``.  Recorded outputs are scaled
        down by the surviving payload fraction (integer floor), so purging
        does not inflate ``P_output / P_size`` and bias victim selection
        toward keeping purged groups.
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
        self._counts = _count_table(self.row_sid, self.row_key,
                                    len(self.streams))
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

    @property
    def is_empty(self) -> bool:
        return self.tuple_count == 0

    # ------------------------------------------------------------------
    # Snapshotting (spill / relocation / checkpoint payloads)
    # ------------------------------------------------------------------
    def freeze(self) -> "FrozenColumnGroup":
        """Snapshot the column buffers without copying them.

        The columns are append-only: live mutation either appends past the
        current length or (purge) swaps in replacement arrays.  A snapshot
        can therefore *share* the live buffers and record only the row
        count at freeze time — later appends land beyond that bound and
        stay invisible to the snapshot, and a purge leaves the snapshot
        holding the superseded arrays.  The count table — the one
        structure mutated in place — is not part of a snapshot: a snapshot
        is its columns, and :meth:`thaw` and the cleanup merge derive
        counts from the rows when they need them.  Every snapshot is
        therefore O(1), and when the live group is discarded right after
        (evict: spill and relocation) its count table dies with it.
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
        )

    @classmethod
    def thaw(cls, frozen: "FrozenColumnGroup", *, created_at: float = 0.0
             ) -> "ColumnarPartitionGroup":
        """Rebuild a live group from a snapshot by copying its column
        buffers — a bounded slice of a typed array, one ``memcpy`` a
        column: the snapshot may share (longer) buffers with a
        still-appending live group — and deriving the count table from
        the copied rows in one pass.  The derived table equals the one the
        group had when it was frozen, key order included: the live table
        gains a key at the key's first row, and a purge rebuilds it in
        row order."""
        group = cls(frozen.pid, frozen.streams, generation=frozen.generation,
                    created_at=created_at)
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
        group._counts = _count_table(group.row_sid, group.row_key,
                                     len(frozen.streams))
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
    """Immutable columnar snapshot of a partition group — the one snapshot
    format.

    The payload is the raw column buffers; serialization paths (spill
    segments, relocation transfers, checkpoint snapshots, the children of
    a split and the parent of a merge) carry these typed arrays as-is.  The buffers may be *shared* with a live group that keeps
    appending — ``nrows`` records the snapshot's row-count bound, and every
    reader stays below it (appends are the only in-place buffer mutation;
    purge swaps in replacement arrays, leaving the snapshot intact).  The
    sharing is of the array *objects*, read by index: nothing may export a
    ``memoryview`` over one, which would make the live group's next append
    raise ``BufferError``.

    :meth:`split`, :meth:`merge` and :meth:`rebucket` build new snapshots
    as columns.  A split or re-bucketed part keeps its rows in this
    snapshot's row order and a merge concatenates its parts, so every
    ``(stream, key)`` bucket keeps its row order — all that the probes,
    the index's ``_ordered`` observation, result boxing and the cleanup
    merge read.

    A snapshot is its columns and statistics: it keeps no count table.
    Whoever needs per-key counts derives them from ``row_sid`` /
    ``row_key`` in one pass — :meth:`ColumnarPartitionGroup.thaw` and the
    cleanup merge the ``{key: [count per stream]}`` table, split, merge
    and re-bucketing the key set (:meth:`keys`).  Spilled, relocated and
    checkpointed state thus holds no Python object per key.
    """

    __slots__ = ("pid", "streams", "generation", "size_bytes", "tuple_count",
                 "output_count", "nrows", "row_sid", "row_seq", "row_key",
                 "row_ts", "row_size", "usize", "row_payload")

    def __init__(self, *, pid, streams, generation, size_bytes, tuple_count,
                 output_count, nrows, row_sid, row_seq, row_key, row_ts,
                 row_size, usize, row_payload):
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

    def keys(self) -> KeysView[int]:
        """All join-key values present in any input of this snapshot, in
        first-row order (a set-like view)."""
        return dict.fromkeys(self.row_key[:self.nrows]).keys()

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

    # ------------------------------------------------------------------
    # Repartitioning (split / merge / cleanup re-bucketing)
    # ------------------------------------------------------------------
    def _append_to(self, group: ColumnarPartitionGroup,
                   rows: Iterable[int]) -> None:
        """Append ``rows`` of this snapshot, in order, to a live group."""
        rs, rp = self.row_size, self.row_payload
        for row in rows:
            group.insert_cols(
                self.row_sid[row], self.row_seq[row], self.row_key[row],
                self.row_ts[row], self.usize if rs is None else rs[row],
                () if rp is None else rp[row])

    def _divide(self, dest: dict[int, int], order: Sequence[int]
                ) -> list["FrozenColumnGroup"]:
        """This snapshot's rows divided by ``dest`` (``{key: pid}`` over
        every key): one snapshot per pid of ``order``, each keeping this
        snapshot's row order.  ``output_count`` is apportioned by payload
        share — each pid but the last gets the floor of its share, the
        last one the remainder — so the sum is conserved exactly and
        productivity ratios survive."""
        rows: dict[int, list[int]] = {pid: [] for pid in order}
        row_key = self.row_key
        for row in range(self.nrows):
            rows[dest[row_key[row]]].append(row)
        groups = []
        for pid in order:
            group = ColumnarPartitionGroup(pid, self.streams,
                                           generation=self.generation)
            self._append_to(group, rows[pid])
            groups.append(group)
        total = sum(g.size_bytes - GROUP_OVERHEAD_BYTES for g in groups)
        remaining = self.output_count
        for group in groups[:-1]:
            payload = group.size_bytes - GROUP_OVERHEAD_BYTES
            group.output_count = (self.output_count * payload // total
                                  if total else 0)
            remaining -= group.output_count
        groups[-1].output_count = remaining
        # the groups are discarded: their snapshots take the buffers
        return [group.freeze() for group in groups]

    def split(self, children: tuple[int, int], chooser
              ) -> tuple["FrozenColumnGroup", "FrozenColumnGroup"]:
        """Partition this snapshot's key range into two child snapshots.

        ``chooser(key)`` returns the child index (0 or 1) — the refinement
        bit the routing trie will consult for this node.  The parent's
        lifetime ``output_count`` is attributed uniformly across its
        payload bytes, the windowed-purge pattern: child 0 gets the floor
        of its share, child 1 the remainder.
        """
        dest = {key: children[chooser(key)] for key in self.keys()}
        child0, child1 = self._divide(dest, children)
        return child0, child1

    @classmethod
    def merge(cls, parent: int, parts: Iterable["FrozenColumnGroup"]
              ) -> "FrozenColumnGroup":
        """Fold sibling child snapshots back into one parent snapshot: the
        parts' rows concatenated in order.

        Siblings come from a split by key, so no key is in two parts
        (checked).  ``output_count`` is the plain sum (the outputs really
        were produced by this state); the generation is the max so a later
        spill of the merged group orders after every prior child segment.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("a merge needs at least one part")
        group = ColumnarPartitionGroup(
            parent, parts[0].streams,
            generation=max(part.generation for part in parts))
        for part in parts:
            if tuple(part.streams) != tuple(group.streams):
                raise ValueError("cannot merge snapshots of different joins")
            shared = group._counts.keys() & part.keys()
            if shared:
                raise ValueError(f"keys {sorted(shared)} are in two merge "
                                 f"parts; siblings of a split share none")
            part._append_to(group, range(part.nrows))
            group.output_count += part.output_count
        return group.freeze()

    def rebucket(self, route) -> dict[int, "FrozenColumnGroup"]:
        """Re-key this snapshot by the *final* routing function.

        A disk segment spilled before a split was frozen under the parent
        pid and holds both children's keys; cleanup must merge each key's
        parts under the pid it routes to *now*, or cross-segment results
        would pair tuples of distinct final groups (never joinable) and
        miss pairs within one.  Returns ``{final_pid: snapshot}``, the
        pids in sorted order, so the last of them takes the
        ``output_count`` remainder (see :meth:`_divide`).  The common
        case — every key still routes to this snapshot's own pid, or there
        is no key — returns ``{pid: self}`` without a pass over the rows.
        """
        dest = {key: route(key) for key in self.keys()}
        pids = sorted(set(dest.values()))
        if pids in ([], [self.pid]):
            return {self.pid: self}
        return dict(zip(pids, self._divide(dest, pids)))

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
    matching row bucket with the length it had then.  The
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


def concat_results(chunks: list[ResultBatch]) -> Sequence[JoinResult]:
    """One result sequence over the lazy batches ``chunks``, in order,
    joined record by record — nothing is boxed."""
    if not chunks:
        return []
    if len(chunks) == 1:
        return chunks[0]
    merged = ResultBatch()
    for chunk in chunks:
        merged.extend(chunk)
    return merged
