"""Tuples, schemas and join results.

A :class:`StreamTuple` is the unit flowing through the pipeline.  Each tuple
is globally identified by ``(stream, seq)``; correctness tests use that
identity to compare the result multiset of an adapted run against the
all-in-memory reference join.

The engine separates the *join key* (used for hashing, partitioning and
matching — the ``offerCurrency``-style column of the paper's Query 1) from
an opaque ``payload`` of additional attribute values (prices, broker names),
so the group-by/aggregate examples can compute over real values while the
large-scale benchmarks keep payloads empty and only account their size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

#: Default accounted size of one tuple in bytes.  The paper's experiments
#: track operator-state volume in MB; what matters for the adaptation logic
#: is the *relative* size of partition groups, so any constant works.  64 B
#: approximates a small row (ints + a short string) and keeps the scaled-down
#: memory thresholds meaningful.
DEFAULT_TUPLE_SIZE = 64


@dataclass(frozen=True)
class Schema:
    """Schema of one input stream.

    Parameters
    ----------
    name:
        Stream name (``"bank1"``, ``"A"`` ...); must be unique per query.
    key_field:
        Name of the join/partitioning column.
    fields:
        All column names, including ``key_field``.
    tuple_size:
        Accounted size in bytes of one tuple of this schema.
    """

    name: str
    key_field: str = "key"
    fields: tuple[str, ...] = ("key",)
    tuple_size: int = DEFAULT_TUPLE_SIZE

    def __post_init__(self) -> None:
        if self.key_field not in self.fields:
            raise ValueError(
                f"schema {self.name!r}: key field {self.key_field!r} "
                f"not among fields {self.fields!r}"
            )
        if self.tuple_size <= 0:
            raise ValueError(f"schema {self.name!r}: tuple_size must be positive")

    def field_index(self, name: str) -> int:
        try:
            return self.fields.index(name)
        except ValueError:
            raise KeyError(f"schema {self.name!r} has no field {name!r}") from None


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """One tuple of one input stream.

    Attributes
    ----------
    stream:
        Name of the originating stream.
    seq:
        Per-stream monotonically increasing sequence number; ``(stream,
        seq)`` is a global identity.
    key:
        Join/partitioning key value.
    ts:
        Generation timestamp (simulated seconds).
    size:
        Accounted size in bytes.
    payload:
        Optional extra attribute values (positionally matching the schema's
        non-key fields, by convention of the producing generator).
    """

    stream: str
    seq: int
    key: int
    ts: float
    size: int = DEFAULT_TUPLE_SIZE
    payload: tuple = ()

    def value(self, schema: Schema, field_name: str) -> Any:
        """Look up an attribute by name against ``schema``.

        The key field resolves to :attr:`key`; other fields index into
        :attr:`payload` in schema order (key field skipped).
        """
        if field_name == schema.key_field:
            return self.key
        others = [f for f in schema.fields if f != schema.key_field]
        try:
            idx = others.index(field_name)
        except ValueError:
            raise KeyError(f"schema {schema.name!r} has no field {field_name!r}") from None
        return self.payload[idx]

    @property
    def ident(self) -> tuple[str, int]:
        """Global identity ``(stream, seq)``."""
        return (self.stream, self.seq)


class ArrivalBatch:
    """Consecutive arrivals of one stream, held as columns.

    What a :class:`~repro.workloads.generator.TupleGenerator` produces and a
    stream source hands to the split host: row ``i`` is the tuple
    ``(stream, seq0 + i, keys[i], ts[i], size, payloads[i])``.  The
    generator's ``keys`` is an ``array('q')`` and its ``ts`` an
    ``array('d')`` — 16 bytes a row, no object per value — and
    ``payloads`` is ``None`` when it has no payload builder; any sequence
    works, since every reader only indexes or iterates the columns.  The
    source host routes these columns directly and forwards references to
    them (:class:`~repro.engine.columns.ArrivalSlice`), so a batch lives
    until its replay-log entries are trimmed and every engine has run its
    rows.  Everything else iterates the batch, which materialises the rows
    as :class:`StreamTuple` objects on first use (and only then).
    """

    __slots__ = ("stream", "seq0", "keys", "ts", "size", "payloads", "_rows")

    def __init__(self, stream: str, seq0: int, keys: Sequence[int],
                 ts: Sequence[float], size: int,
                 payloads: list[tuple] | None = None) -> None:
        self.stream = stream
        self.seq0 = seq0
        self.keys = keys
        self.ts = ts
        self.size = size
        self.payloads = payloads
        self._rows: list[StreamTuple] | None = None

    def __len__(self) -> int:
        return len(self.keys)

    def row(self, i: int) -> StreamTuple:
        """The ``i``-th arrival as a :class:`StreamTuple`."""
        if self._rows is not None:
            return self._rows[i]
        payloads = self.payloads
        return StreamTuple(
            stream=self.stream,
            seq=self.seq0 + i,
            key=self.keys[i],
            ts=self.ts[i],
            size=self.size,
            payload=payloads[i] if payloads is not None else (),
        )

    def __iter__(self) -> Iterator[StreamTuple]:
        """All arrivals as :class:`StreamTuple` objects (built once)."""
        if self._rows is None:
            self._rows = [self.row(i) for i in range(len(self.keys))]
        return iter(self._rows)


@dataclass(frozen=True, slots=True)
class JoinResult:
    """One output of the m-way join: a combination of one tuple per input.

    ``parts`` holds the joined tuples ordered by the join's input order, so
    two results are equal iff they combine exactly the same input tuples —
    the property the duplicate-freedom tests rely on.
    """

    key: int
    parts: tuple[StreamTuple, ...]
    ts: float

    @property
    def ident(self) -> tuple[tuple[str, int], ...]:
        """Duplicate-detection identity: the ordered input-tuple identities."""
        return tuple(p.ident for p in self.parts)
