"""Closed-form analysis of the §3.1 workload model.

The paper reasons about its synthetic streams analytically: "assume each
input stream of a three-way join has 5 tuples with a join column value 1
...  a total of 5 x 5 x 5 = 125 tuples will be generated with a join
column value of 1", and the join multiplicative factor grows by ``r`` per
``k`` tuples.  This module provides those formulas for any arity and any
per-partition configuration, so tests and benchmarks can validate the
generator and the engine against the model instead of against themselves.

For a partition with value-pool size ``D`` receiving ``n`` tuples per
stream (round-robin over the pool), every value has multiplicity
``n // D`` or ``n // D + 1``; the expected m-way output is the sum over
values of the product of per-stream multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.generator import WorkloadSpec, distinct_values


def partition_output(n_per_stream: int, pool_size: int, arity: int) -> int:
    """Exact m-way join output of one partition under round-robin cycling.

    With ``n`` tuples per stream cycled over ``D`` values, ``n mod D``
    values have multiplicity ``n//D + 1`` and the rest ``n//D``; each
    value contributes ``multiplicity ** arity`` results.
    """
    if n_per_stream < 0:
        raise ValueError("n_per_stream must be non-negative")
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    base, extra = divmod(n_per_stream, pool_size)
    return extra * (base + 1) ** arity + (pool_size - extra) * base ** arity


def multiplicative_factor(n_per_stream: int, pool_size: int) -> float:
    """The paper's join multiplicative factor after ``n`` tuples/stream."""
    if pool_size <= 0:
        raise ValueError("pool_size must be positive")
    return n_per_stream / pool_size


@dataclass(frozen=True)
class WorkloadForecast:
    """Analytical expectations for one workload after a given run."""

    tuples_per_stream: int
    expected_output: float
    state_bytes_per_stream: int
    mean_multiplicative_factor: float


def forecast(spec: WorkloadSpec, duration: float, arity: int = 3
             ) -> WorkloadForecast:
    """Expected totals for a run of ``duration`` seconds.

    Uses each partition's *expected* tuple share (weights are sampled, so
    the realised counts fluctuate around this with CV ~ 1/sqrt(n)).
    Patterns are ignored (weights taken at their base values) — callers
    using a load pattern should forecast phase by phase.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    n_total = int(duration / spec.interarrival)
    total_weight = sum(p.weight for p in spec.partitions)
    expected = 0.0
    factor_acc = 0.0
    for part in spec.partitions:
        share = part.weight / total_weight
        pool = distinct_values(part.join_rate, part.tuple_range, share)
        n_part = n_total * share
        # continuous relaxation of partition_output
        expected += pool * (n_part / pool) ** arity
        factor_acc += (n_part / pool) * share
    return WorkloadForecast(
        tuples_per_stream=n_total,
        expected_output=expected,
        state_bytes_per_stream=n_total * spec.tuple_size,
        mean_multiplicative_factor=factor_acc,
    )


def output_growth_exponent(spec: WorkloadSpec, arity: int = 3) -> float:
    """Cumulative output grows as ``t ** (arity)`` under this model (each
    stream's per-value multiplicity grows linearly in t); returned for
    documentation/validation symmetry."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    return float(arity)
