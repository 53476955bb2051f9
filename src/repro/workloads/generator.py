"""Deterministic synthetic stream generation (paper §3.1).

Data model
----------
The paper characterises its streams by the **join multiplicative factor** —
the average number of tuples per stream sharing one join value — which
grows by the **join rate** ``r`` after every **tuple range** ``k`` tuples.
Equivalently: a stream (or a partition of it) draws its join values from a
pool of ``D = k·share / r`` distinct values and cycles through the pool, so
after ``N`` arrivals each value has appeared ``N·share / D`` times and the
factor grows linearly — the monotone state/output growth that motivates the
whole paper.

Every experiment knob maps onto :class:`PartitionWorkload`:

* uniform streams (Figures 5/6/9/10): same rate/range everywhere;
* skewed productivity (Figure 7): ⅓ of partitions at rate 4, ⅓ at 2, ⅓ at 1;
* machine-correlated skew (Figures 13/14): partitions of machine *m1* at
  rate 4 / range 15 K, others at rate 1 / range 45 K;
* load fluctuation (Figures 9/10): a :class:`~repro.workloads.patterns.LoadPattern`
  scaling arrival weights over time.

Keys are encoded as ``pid + n_partitions * value_index`` so that the
split's ``key % n_partitions`` hash routes a value back to the partition
that owns it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.engine.tuples import DEFAULT_TUPLE_SIZE, ArrivalBatch, StreamTuple
from repro.workloads.patterns import LoadPattern, UniformPattern


def distinct_values(join_rate: float, tuple_range: int, share: float) -> int:
    """Size of a partition's join-value pool.

    ``share`` is the fraction of the stream's tuples this partition
    receives; with ``D = round(tuple_range·share / join_rate)`` values the
    partition's multiplicative factor grows by ``join_rate`` per
    ``tuple_range`` stream tuples, matching the paper's definition.
    """
    if join_rate <= 0:
        raise ValueError("join_rate must be positive")
    if tuple_range <= 0:
        raise ValueError("tuple_range must be positive")
    if not 0 < share <= 1:
        raise ValueError("share must be in (0, 1]")
    return max(1, round(tuple_range * share / join_rate))


@dataclass(frozen=True)
class PartitionWorkload:
    """Workload parameters of one partition.

    Parameters
    ----------
    pid:
        Partition ID.
    join_rate:
        The paper's ``r`` for this partition.
    tuple_range:
        The paper's ``k`` for this partition.
    weight:
        Relative arrival weight (before any load pattern); uniform streams
        use 1.0 everywhere.
    """

    pid: int
    join_rate: float = 1.0
    tuple_range: int = 30_000
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.join_rate <= 0:
            raise ValueError("join_rate must be positive")
        if self.tuple_range <= 0:
            raise ValueError("tuple_range must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Cluster-wide workload description shared by all input streams.

    Parameters
    ----------
    n_partitions:
        Number of hash partitions (matches the splits').
    partitions:
        One :class:`PartitionWorkload` per partition ID ``0..n-1``.
    interarrival:
        Seconds between consecutive tuples of one stream (the paper's
        "input rate is set to 30 ms per input stream").
    tuple_size:
        Accounted bytes per tuple.
    seed:
        Base RNG seed; each stream derives an independent child seed.
    pattern:
        Optional time-varying load pattern.
    """

    n_partitions: int
    partitions: tuple[PartitionWorkload, ...]
    interarrival: float = 0.030
    tuple_size: int = DEFAULT_TUPLE_SIZE
    seed: int = 7
    pattern: LoadPattern = field(default_factory=UniformPattern)

    def __post_init__(self) -> None:
        if self.n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if len(self.partitions) != self.n_partitions:
            raise ValueError(
                f"expected {self.n_partitions} partition workloads, "
                f"got {len(self.partitions)}"
            )
        pids = [p.pid for p in self.partitions]
        if pids != list(range(self.n_partitions)):
            raise ValueError("partition workloads must cover IDs 0..n-1 in order")
        if self.interarrival <= 0:
            raise ValueError("interarrival must be positive")

    @classmethod
    def uniform(
        cls,
        n_partitions: int,
        *,
        join_rate: float = 3.0,
        tuple_range: int = 30_000,
        interarrival: float = 0.030,
        tuple_size: int = DEFAULT_TUPLE_SIZE,
        seed: int = 7,
        pattern: LoadPattern | None = None,
    ) -> "WorkloadSpec":
        """The paper's default stream: uniform rate/range across partitions."""
        parts = tuple(
            PartitionWorkload(pid=i, join_rate=join_rate, tuple_range=tuple_range)
            for i in range(n_partitions)
        )
        return cls(
            n_partitions=n_partitions,
            partitions=parts,
            interarrival=interarrival,
            tuple_size=tuple_size,
            seed=seed,
            pattern=pattern or UniformPattern(),
        )

    @classmethod
    def mixed_rates(
        cls,
        n_partitions: int,
        rate_fractions: dict[float, float],
        *,
        tuple_range: int = 30_000,
        interarrival: float = 0.030,
        tuple_size: int = DEFAULT_TUPLE_SIZE,
        seed: int = 7,
    ) -> "WorkloadSpec":
        """Partition the ID space into blocks with different join rates.

        ``rate_fractions`` maps join rate -> fraction of partitions, e.g.
        Figure 7's ``{4: 1/3, 2: 1/3, 1: 1/3}``.
        """
        total = sum(rate_fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {total!r}")
        parts: list[PartitionWorkload] = []
        start = 0
        items = list(rate_fractions.items())
        acc = 0.0
        for i, (rate, frac) in enumerate(items):
            acc += frac
            end = n_partitions if i == len(items) - 1 else round(n_partitions * acc)
            for pid in range(start, end):
                parts.append(
                    PartitionWorkload(pid=pid, join_rate=rate, tuple_range=tuple_range)
                )
            start = end
        return cls(
            n_partitions=n_partitions,
            partitions=tuple(parts),
            interarrival=interarrival,
            tuple_size=tuple_size,
            seed=seed,
        )

    def workload_of(self, pid: int) -> PartitionWorkload:
        return self.partitions[pid]


@dataclass(frozen=True)
class StreamWorkloadSpec:
    """Binding of a :class:`WorkloadSpec` to one named input stream."""

    stream: str
    spec: WorkloadSpec
    payload_fn: Callable[[int, int, random.Random], tuple] | None = None
    """Optional ``(key, seq, rng) -> payload`` builder for realistic examples."""


class TupleGenerator:
    """Deterministic per-stream arrival generator.

    :meth:`batches` yields the arrivals as column batches;
    :meth:`arrivals` yields the same sequence as ``(time, StreamTuple)``
    pairs.  Arrivals have the stream's fixed interarrival spacing.
    Partition choice is weighted by ``base weight x pattern multiplier``;
    within a partition the join values cycle round-robin through the
    partition's value pool so the multiplicative factor grows exactly
    linearly.
    """

    def __init__(self, binding: StreamWorkloadSpec) -> None:
        self.stream = binding.stream
        self.spec = binding.spec
        self.payload_fn = binding.payload_fn
        # stable per-stream child seed: Python's str hash is randomised per
        # process, so derive it from a CRC instead for cross-process
        # reproducibility
        stream_code = zlib.crc32(binding.stream.encode("utf-8"))
        self._rng = random.Random(binding.spec.seed * 1_000_003 + stream_code)
        spec = binding.spec
        # Value-pool sizes: share of each partition under *base* weights.
        total_weight = sum(p.weight for p in spec.partitions)
        self._pool_size = [
            distinct_values(p.join_rate, p.tuple_range, p.weight / total_weight)
            for p in spec.partitions
        ]
        self._value_cursor = [0] * spec.n_partitions
        # cumulative-weight cache keyed by pattern phase
        self._phase_cache: dict[int, tuple[list[float], float]] = {}
        self.tuples_generated = 0

    def _cumulative_weights(self, time: float) -> tuple[list[float], float]:
        phase = self.spec.pattern.phase(time)
        cached = self._phase_cache.get(phase)
        if cached is not None:
            return cached
        cumulative: list[float] = []
        acc = 0.0
        for part in self.spec.partitions:
            acc += part.weight * self.spec.pattern.multiplier(part.pid, time)
            cumulative.append(acc)
        self._phase_cache[phase] = (cumulative, acc)
        # keep the cache bounded for very long runs
        if len(self._phase_cache) > 64:
            oldest = min(self._phase_cache)
            if oldest != phase:
                del self._phase_cache[oldest]
        return cumulative, acc

    def batches(self, batch_size: int, start: float = 0.0,
                stop_at: float | None = None) -> Iterator[ArrivalBatch]:
        """Iterator of column batches of ``batch_size`` consecutive arrivals.

        The one place the key/timestamp sequence is defined:
        :meth:`arrivals` is a row-at-a-time view of it.  With ``stop_at``
        the iterator ends at the first arrival later than that time; the
        arrival is still drawn (and counted in :attr:`tuples_generated`)
        before it is discarded, and the batch cut short by it is yielded
        unless empty.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        spec = self.spec
        interarrival = spec.interarrival
        n_partitions = spec.n_partitions
        phase_of = spec.pattern.phase
        rng = self._rng
        rand = rng.random
        payload_fn = self.payload_fn
        cursor = self._value_cursor
        pool = self._pool_size
        bisect_left = bisect.bisect_left
        limit = math.inf if stop_at is None else stop_at
        phase = None
        cumulative: list[float] = []
        total = 0.0
        seq0 = 0
        late = False
        while not late:
            keys: list[int] = []
            ts: list[float] = []
            payloads: list[tuple] | None = None if payload_fn is None else []
            for seq in range(seq0, seq0 + batch_size):
                t = start + (seq + 1) * interarrival
                ph = phase_of(t)
                if ph != phase:
                    phase = ph
                    cumulative, total = self._cumulative_weights(t)
                pid = bisect_left(cumulative, rand() * total)
                idx = cursor[pid]
                cursor[pid] = (idx + 1) % pool[pid]
                key = pid + n_partitions * idx
                if payloads is not None:
                    payload = payload_fn(key, seq, rng)
                if t > limit:
                    late = True
                    break
                keys.append(key)
                ts.append(t)
                if payloads is not None:
                    payloads.append(payload)
            self.tuples_generated += len(keys) + late
            if keys:
                yield ArrivalBatch(self.stream, seq0, keys, ts,
                                   spec.tuple_size, payloads)
            seq0 += batch_size

    def arrivals(self, start: float = 0.0) -> Iterator[tuple[float, StreamTuple]]:
        """Infinite iterator of timed arrivals for this stream."""
        for batch in self.batches(1, start):
            yield batch.ts[0], batch.row(0)

    def take(self, n: int, start: float = 0.0) -> list[tuple[float, StreamTuple]]:
        """First ``n`` timed arrivals (test/analysis helper)."""
        return list(itertools.islice(self.arrivals(start), n))
