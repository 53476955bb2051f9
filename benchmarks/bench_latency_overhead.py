"""CPU overhead of end-to-end latency attribution, hard-gated below 5%.

Beyond the paper: :mod:`repro.obs.slo` attributes every result's latency
to a cause, and that bookkeeping sits on the per-batch hot path of the
engines.  This bench runs the experiment harness end to end on the
columnar join deployment, alternating latency tracking off and on, and
compares CPU time (``time.process_time``, immune to the scheduler) with
the cyclic collector quiesced around every timed run.

Shared runners make even CPU time noisy: contention and frequency drift
are *one-sided multiplicative* noise (a burst only ever slows the run it
lands on, inflating or deflating a pair's ratio depending on which side
it hits).  The lower quartile of the paired ratios sheds the inflated
pairs and still shifts upward point-for-point with a real regression;
it reads below the median by about 0.7 of the pairs' spread, so the
gate is sharpest on a quiet runner (ROADMAP has the readings).  One
re-measure absorbs the rare burst that covers most of a trial; a
genuine overhead regression fails both.

It asserts on a measured duration, so it lives here and not in tier-1
(``testpaths`` is ``tests``); the ``obs-smoke`` CI job runs it.  The run
length is part of the protocol: much past 600 simulated seconds the
deployment crosses the harness's memory threshold and spills, and
``EngineTracker.observe`` takes its per-cause slow path — a different
measurement.
"""

import contextlib
import gc
import time

from repro.bench.harness import run_experiment
from repro.workloads import WorkloadSpec

BUDGET = 0.05  # tracked run may cost at most this fraction more CPU
N_PAIRS = 21  # off/on pairs per trial (~12 s of CPU)
DURATION = 600.0  # simulated seconds per run


@contextlib.contextmanager
def quiesced():
    """Pause the cyclic GC around a timed region: a generational
    collection landing in one run of a pair but not the other swamps the
    difference being measured."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cpu_seconds(latency: bool) -> float:
    workload = WorkloadSpec.uniform(
        n_partitions=16, join_rate=3.0, tuple_range=6000,
        interarrival=0.02, seed=11,
    )
    with quiesced():
        start = time.process_time()
        run_experiment(
            "latency_overhead", workload, workers=2, duration=DURATION,
            data_path="columnar", latency=latency,
        )
        return time.process_time() - start


def paired_ratios() -> list[float]:
    """Sorted tracked/untracked CPU ratios of ``N_PAIRS`` alternating pairs."""
    return sorted(
        cpu_seconds(True) / cpu_seconds(False) for __ in range(N_PAIRS)
    )


def overhead(ratios: list[float]) -> float:
    """Lower quartile of the sorted ratios, as a fraction over 1."""
    return ratios[len(ratios) // 4] - 1.0


def measure() -> list[list[float]]:
    """One trial, plus the one re-measure when the first reads over budget."""
    cpu_seconds(False)  # warm caches and code paths
    cpu_seconds(True)
    trials = [paired_ratios()]
    if overhead(trials[0]) >= BUDGET:
        trials.append(paired_ratios())
    return trials


def test_latency_overhead_within_budget(benchmark):
    trials = benchmark.pedantic(measure, rounds=1, iterations=1)
    readings = "; ".join(
        f"trial {i + 1}: lower quartile {overhead(ratios):.2%} of ["
        + ", ".join(f"{r - 1.0:+.1%}" for r in ratios) + "]"
        for i, ratios in enumerate(trials)
    )
    print(f"\nlatency tracking CPU overhead (budget {BUDGET:.0%}) — {readings}")
    assert min(overhead(ratios) for ratios in trials) < BUDGET, (
        f"latency tracking costs more than {BUDGET:.0%} CPU on the columnar "
        f"join deployment; the repro.obs.slo hot path has regressed — "
        f"{readings}"
    )
