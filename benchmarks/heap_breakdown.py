"""Where a whole run's host memory sits: the heap companion of the e2e
benchmark's per-layer time breakdown.

Runs one workload of the end-to-end benchmark — built by
``benchmarks.e2e.workloads``, the very system ``peak_rss_mb`` measures —
under :mod:`tracemalloc`, and prints the top allocation sites (source
line, bytes, blocks) and the traced total at three points:

* **run-phase peak** — the instant of the run phase (sources running,
  then the drain of in-flight work) at which traced memory is highest,
  with its simulated time and the number of tasks queued on the
  machines then: where a backlogged run's memory peaks;
* **run phase over** — the sources have stopped and the in-flight work
  has drained; every live group, disk segment, checkpoint and recovery
  record is still held;
* **after cleanup** — the cleanup phase has merged every spilled part.

The peak is found in two passes over the same seed.  Both run the
simulator one event at a time (:func:`stepping`), which schedules
nothing and fires the same events in the same order as one
uninterrupted run; the first pass notes after which event traced memory
was highest, the second snapshots after that event.  A peak inside one
event (memory a callback allocates and frees before it returns) is not
a point any snapshot can show; the last line prints the traced peak
that includes it.

From the repository root::

    PYTHONPATH=src python -m benchmarks.heap_breakdown \\
        --workload spill_relocate --seed 11 [--scale smoke] [--top 15]

``tracemalloc`` slows the run several-fold and sees Python allocations
only, so its totals sit below ``peak_rss_mb`` (which also holds the
interpreter, its modules and allocator slack): compare breakdowns of two
commits with each other, and peak RSS with peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import linecache
import tracemalloc
from pathlib import Path
from unittest import mock

from benchmarks.e2e.workloads import WORKLOADS
from repro.cluster.simulation import Simulator

ROOT = Path(__file__).resolve().parents[1]


def _where(frame: tracemalloc.Frame) -> str:
    """``file:line`` relative to the repository (or the stdlib's own)."""
    path = Path(frame.filename)
    try:
        path = path.relative_to(ROOT)
    except ValueError:
        path = Path(*path.parts[-2:])
    return f"{path}:{frame.lineno}"


def report(label: str, snapshot: tracemalloc.Snapshot, top: int) -> None:
    # the source lines this report reads are cached by linecache: not the run's
    snapshot = snapshot.filter_traces(
        [tracemalloc.Filter(False, linecache.__file__)])
    stats = snapshot.statistics("lineno")
    total = sum(stat.size for stat in stats)
    print(f"== {label}: {total / 2**20:.1f} MiB traced in "
          f"{sum(stat.count for stat in stats)} blocks")
    print(f"{'MiB':>7} {'share':>6} {'blocks':>9}  site")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        code = linecache.getline(frame.filename, frame.lineno).strip()
        print(f"{stat.size / 2**20:7.2f} {stat.size / total:6.1%} "
              f"{stat.count:9d}  {_where(frame)}  {code}")
    print()


def stepping(after_step):
    """A ``Simulator.run`` that runs the real one event at a time and
    calls ``after_step(sim)`` after each.

    Same events, same order, same clock: ``Simulator.run`` stopped by
    ``max_events`` resumes exactly where it stopped, and advances the
    clock to ``until`` only once no event up to ``until`` is left — as the
    uninterrupted call would.  Nothing is scheduled, so the sampler
    neither keeps the simulator alive nor moves an event.
    """
    run = Simulator.run

    def run_stepwise(sim, until=None, max_events=None):
        if max_events is not None:
            return run(sim, until, max_events)
        while True:
            run(sim, until, 1)
            after_step(sim)
            nxt = sim.peek_time()
            if nxt is None or (until is not None and nxt > until):
                return None

    return run_stepwise


def queued_tasks(job) -> int:
    """Tasks waiting on the job's worker machines."""
    machines = {id(engine.machine): engine.machine
                for dep in job.deployments for engine in dep.engines.values()}
    return sum(machine.queue_depth for machine in machines.values())


def find_peak(workload: str, seed: int, scale: str) -> int:
    """First pass: the number of the step (event) after which the run
    phase's traced memory is highest."""
    steps = 0
    best = (-1, 0)  # traced bytes, step

    def after_step(sim) -> None:
        nonlocal steps, best
        steps += 1
        current = tracemalloc.get_traced_memory()[0]
        if current > best[0]:
            best = (current, steps)

    job = WORKLOADS[workload].build(seed, scale)
    with mock.patch.object(Simulator, "run", stepping(after_step)):
        job.run()
    return best[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.heap_breakdown", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--top", type=int, default=15,
                        help="allocation sites listed per point (default 15)")
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be at least 1")
    label = f"{args.workload} seed {args.seed}"

    tracemalloc.start()
    peak_step = find_peak(args.workload, args.seed, args.scale)
    gc.collect()

    job = WORKLOADS[args.workload].build(args.seed, args.scale)
    steps = 0

    def after_step(sim) -> None:
        nonlocal steps
        steps += 1
        if steps == peak_step:
            waiting = queued_tasks(job)
            report(f"{label}: run-phase peak at t = {sim.now:.1f} s "
                   f"({waiting} tasks queued)",
                   tracemalloc.take_snapshot(), args.top)

    tracemalloc.reset_peak()
    with mock.patch.object(Simulator, "run", stepping(after_step)):
        job.run()
    run_peak = tracemalloc.get_traced_memory()[1]
    report(f"{label}: run phase over (sources stopped, in-flight work "
           f"drained)", tracemalloc.take_snapshot(), args.top)
    reports = [dep.cleanup() for dep in job.deployments]
    report(f"{label}: after cleanup", tracemalloc.take_snapshot(), args.top)
    tracemalloc.stop()
    job.check()
    print(f"run-phase traced peak {run_peak / 2**20:.1f} MiB; cleanup merged "
          f"{sum(r.segments_merged for r in reports)} segments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
