"""Where a whole run's host memory sits: the heap companion of the e2e
benchmark's per-layer time breakdown.

Runs one workload of the end-to-end benchmark — built by
``benchmarks.e2e.workloads``, the very system ``peak_rss_mb`` measures —
under :mod:`tracemalloc`, and prints the top allocation sites (source
line, bytes, blocks) and the traced total at two points:

* **sources stopped** — the run-time phase is over; every live group,
  disk segment, checkpoint and recovery record is still held, which is
  where a whole run's memory peaks;
* **after cleanup** — the cleanup phase has merged every spilled part.

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
import linecache
import tracemalloc
from pathlib import Path

from benchmarks.e2e.workloads import WORKLOADS

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

    tracemalloc.start()
    job = WORKLOADS[args.workload].build(args.seed, args.scale)
    job.run()
    report(f"{args.workload} seed {args.seed}: sources stopped",
           tracemalloc.take_snapshot(), args.top)
    reports = [dep.cleanup() for dep in job.deployments]
    report(f"{args.workload} seed {args.seed}: after cleanup",
           tracemalloc.take_snapshot(), args.top)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    job.check()
    print(f"traced peak {peak / 2**20:.1f} MiB; cleanup merged "
          f"{sum(r.segments_merged for r in reports)} segments")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
