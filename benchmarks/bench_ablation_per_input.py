"""Ablation A4 — partition-group vs per-input spilling (§2, Figure 3).

The paper rejects XJoin-style per-input spilling because its cleanup "has
to be carefully synchronized with the timestamps of the input tuples and
the timestamps of the partitions being pushed".  This ablation runs both
granularities over the same arrival sequence with matched spill instants
and measures the §2 cost directly:

* the partition-group delta merge *enumerates only the missing results*
  (plus cheap per-key histogram arithmetic), with zero per-tuple timestamp
  checks;
* the per-input cleanup must re-examine the **complete** join result space
  and performs per-member timestamp checks on every combination.

Shape criteria: identical final answers; the per-input design examines
strictly more combinations than there are missing results, by a growing
factor.
"""

from repro.bench import current_scale
from repro.bench.report import format_table
from repro.core.cleanup import merge_missing
from repro.core.per_input import PerInputJoinState
from repro.engine.columns import ColumnarPartitionGroup
from repro.engine.reference import reference_join_count
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator, WorkloadSpec

STREAMS = ("A", "B", "C")


def generate_arrivals(n_per_stream: int, seed: int = 7):
    """Interleave the three streams' generator outputs by timestamp."""
    spec = WorkloadSpec.uniform(n_partitions=1, join_rate=3.0,
                                tuple_range=n_per_stream, seed=seed)
    arrivals = []
    for stream in STREAMS:
        gen = TupleGenerator(StreamWorkloadSpec(stream=stream, spec=spec))
        arrivals.extend(gen.take(n_per_stream))
    arrivals.sort(key=lambda pair: pair[0])
    return [t for __, t in arrivals]


def run_group_design(tuples, spill_every):
    """Partition-group run: spills freeze the whole group."""
    parts = []
    group = ColumnarPartitionGroup(0, STREAMS)
    runtime = 0
    for i, tup in enumerate(tuples, start=1):
        count, __ = group.probe(tup)
        group.insert(tup)
        group.record_output(count)
        runtime += count
        if i % spill_every == 0:
            parts.append(group.freeze())
            group = ColumnarPartitionGroup(0, STREAMS, generation=len(parts))
    if group.tuple_count:
        parts.append(group.freeze())
    missing, __ = merge_missing(parts, STREAMS)
    return runtime, missing


def run_per_input_design(tuples, spill_every):
    """Per-input run: spills sweep one input at a time, round-robin."""
    state = PerInputJoinState(STREAMS)
    runtime = 0
    spill_idx = 0
    for i, tup in enumerate(tuples, start=1):
        count, __ = state.process(tup)
        runtime += count
        if i % spill_every == 0:
            stream = STREAMS[spill_idx % len(STREAMS)]
            spill_idx += 1
            state.spill_input(stream, now=tup.ts + 1e-9)
    stats, __ = state.cleanup()
    return runtime, stats


def run_ablation():
    scale = current_scale()
    # full-join enumeration is quadratic-ish; keep the input modest
    n_per_stream = 400 if scale.name != "quick" else 200
    tuples = generate_arrivals(n_per_stream)
    reference = reference_join_count(tuples, STREAMS)
    rows = []
    for spill_every in (150, 300, 600):
        g_runtime, g_missing = run_group_design(tuples, spill_every)
        p_runtime, p_stats = run_per_input_design(tuples, spill_every)
        assert g_runtime + g_missing == reference
        assert p_runtime + p_stats.missing_results == reference
        rows.append({
            "spill_every": spill_every,
            "reference": reference,
            "group_runtime": g_runtime,
            "group_missing": g_missing,
            "pi_runtime": p_runtime,
            "pi_missing": p_stats.missing_results,
            "pi_examined": p_stats.combinations_examined,
            "pi_ts_checks": p_stats.timestamp_checks,
        })
    return rows


def test_ablation_per_input_granularity(benchmark, report):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table = format_table(
        ["spill every", "reference", "grp run-time", "grp cleanup",
         "p-i run-time", "p-i cleanup", "p-i combos examined",
         "p-i ts checks"],
        [
            [r["spill_every"], f"{r['reference']:,}",
             f"{r['group_runtime']:,}", f"{r['group_missing']:,}",
             f"{r['pi_runtime']:,}", f"{r['pi_missing']:,}",
             f"{r['pi_examined']:,}", f"{r['pi_ts_checks']:,}"]
            for r in rows
        ],
    )
    report(
        "Ablation A4 — partition-group vs per-input (XJoin-style) spilling "
        "on one partition, matched schedules\n"
        "(both designs recover the full reference answer; the cost column "
        "is §2's complexity argument)\n\n" + table
    )
    for r in rows:
        # both designs are complete (asserted inside the run) and the
        # per-input cleanup always rescans the whole result space
        assert r["pi_examined"] == r["reference"]
        # while the group merge enumerates only what is missing
        assert r["group_missing"] < r["reference"]
        assert r["pi_ts_checks"] >= r["pi_examined"]
