"""Command-line experiment runner: ``python -m repro.bench``.

A thin convenience layer over the benchmark harness for running a single
configuration without pytest — useful for exploring parameter spaces
interactively:

.. code-block:: console

   $ python -m repro.bench --strategy lazy_disk --workers 3 \\
         --assignment 0.6,0.2,0.2 --minutes 10 --threshold-kb 500
   $ python -m repro.bench --strategy active_disk --join-rate 4 --list

``--list`` prints the available strategies and spill policies and exits.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import run_experiment, sample_times
from repro.bench.report import kv_block, series_table
from repro.core.config import SpillPolicyName, StrategyName
from repro.engine.query_engine import DATA_PATHS
from repro.workloads.generator import WorkloadSpec


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (kept separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one adaptation experiment on the simulated cluster.",
    )
    parser.add_argument("--strategy", default="lazy_disk",
                        choices=[s.value for s in StrategyName])
    parser.add_argument("--spill-policy", default="less_productive",
                        choices=[p.value for p in SpillPolicyName])
    parser.add_argument("--workers", type=int, default=3,
                        help="number of worker machines (default 3)")
    parser.add_argument("--assignment", default=None,
                        help="comma-separated initial partition weights, "
                             "one per worker (e.g. 0.6,0.2,0.2)")
    parser.add_argument("--minutes", type=float, default=10.0,
                        help="simulated run length in minutes (default 10)")
    parser.add_argument("--threshold-kb", type=float, default=500.0,
                        help="spill threshold per machine in KB (default 500)")
    parser.add_argument("--data-path", default="columnar",
                        choices=DATA_PATHS,
                        help="delivery representation: per-tuple, "
                             "micro-batched or columnar structure-of-arrays "
                             "(default); results are identical, only "
                             "wall-clock cost differs")
    parser.add_argument("--queries", type=int, default=1,
                        help="run N identical queries on one multi-tenant "
                             "QueryServer (one tenant per query) instead of "
                             "a single standalone deployment")
    parser.add_argument("--fold", choices=["on", "off"], default="on",
                        help="with --queries > 1: fold signature-identical "
                             "queries onto one shared runtime (on, default) "
                             "or run each in isolation (off)")
    parser.add_argument("--partitions", type=int, default=24)
    parser.add_argument("--join-rate", type=float, default=3.0)
    parser.add_argument("--tuple-range", type=int, default=3000)
    parser.add_argument("--interarrival-ms", type=float, default=30.0)
    parser.add_argument("--theta-r", type=float, default=0.8)
    parser.add_argument("--tau-m", type=float, default=45.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--no-cleanup", action="store_true",
                        help="skip the cleanup phase")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="also write the output series as CSV to PATH")
    parser.add_argument("--json", action="store_true",
                        help="also write a machine-readable summary to "
                             "benchmarks/results/BENCH_<name>.json")
    parser.add_argument("--name", default=None,
                        help="result-file name for --json "
                             "(default: the strategy name)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a structured adaptation trace and "
                             "write it as JSONL to PATH")
    parser.add_argument("--trace-chrome", metavar="PATH", default=None,
                        help="also write the trace in Chrome trace_event "
                             "format (chrome://tracing / Perfetto) to PATH")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="record the adaptation decision ledger and "
                             "write a self-contained run file (decisions + "
                             "sampled series) to PATH; render it with "
                             "`python -m repro.obs report PATH`")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write the unified metrics registry in "
                             "Prometheus text format to PATH")
    parser.add_argument("--latency", action="store_true",
                        help="track end-to-end latency and print the "
                             "per-cause breakdown table (processing, "
                             "queueing, spilled, relocating, recovering, "
                             "repartitioning) after the run")
    parser.add_argument("--slo", metavar="p99=<ms>", default=None,
                        help="arm a latency SLO, e.g. --slo p99=250 for a "
                             "250 ms p99 target (implies --latency); the "
                             "coordinator evaluates the burn rate every "
                             "tick and the summary reports status and "
                             "alerts")
    parser.add_argument("--list", action="store_true",
                        help="list strategies and spill policies, then exit")
    return parser


def parse_slo(spec: str | None):
    """Parse ``--slo p99=<ms>`` into an :class:`~repro.obs.slo.SLOConfig`."""
    if spec is None:
        return None
    from repro.obs.slo import SLOConfig

    target = None
    for part in spec.split(","):
        key, _, value = part.partition("=")
        if key.strip() != "p99" or not value:
            raise SystemExit(f"--slo: expected p99=<ms>, got {part!r}")
        try:
            target = float(value) / 1000.0
        except ValueError:
            raise SystemExit(f"--slo: {value!r} is not a number of ms")
    if target is None:
        raise SystemExit("--slo needs p99=<ms>")
    return SLOConfig(target_p99=target)


def latency_block(lat, monitors=()) -> str:
    """The per-cause latency table + SLO/watermark lines (CLI output)."""
    lines = ["latency (per cause, seconds)"]
    lines.append(f"  {'cause':<15} {'count':>12} {'p50':>10} "
                 f"{'p99':>10} {'mean':>10}")
    for cause, sketch in lat.breakdown().items():
        lines.append(
            f"  {cause:<15} {sketch.count:>12,} {sketch.quantile(0.5):>10.4f} "
            f"{sketch.quantile(0.99):>10.4f} {sketch.mean():>10.4f}"
        )
    merged: dict[str, float] = {}
    for tracker in lat.trackers.values():
        for stream, ts in tracker.watermarks.items():
            if ts > merged.get(stream, -1.0):
                merged[stream] = ts
    if merged:
        lines.append("  watermarks: " + ", ".join(
            f"{stream}={ts:.2f}" for stream, ts in sorted(merged.items())
        ))
    for monitor in monitors:
        lines.append(
            f"  slo {monitor.query} ({monitor.tenant or 'default'}): "
            f"p99 target {monitor.slo.target_p99 * 1000.0:.0f} ms, "
            f"status {monitor.status or 'no_results'}, "
            f"{monitor.alerts} alerts, {monitor.stalls} stalls"
        )
    return "\n".join(lines)


def parse_assignment(spec: str | None, workers: list[str]) -> dict | None:
    """Parse a comma-separated weight list into a {worker: weight} map."""
    if spec is None:
        return None
    weights = [float(w) for w in spec.split(",")]
    if len(weights) != len(workers):
        raise SystemExit(
            f"--assignment needs {len(workers)} weights, got {len(weights)}"
        )
    return dict(zip(workers, weights))


def _write_artifacts(args, tracer, ledger, registry, *, meta: dict) -> None:
    """Write whichever of ``--trace`` / ``--trace-chrome`` / ``--ledger`` /
    ``--metrics`` the run asked for (``meta`` heads the run file)."""
    if tracer is not None:
        if args.trace:
            tracer.write_jsonl(args.trace)
            print(f"[trace written to {args.trace}]")
        if args.trace_chrome:
            tracer.write_chrome(args.trace_chrome)
            print(f"[chrome trace written to {args.trace_chrome}]")
    if ledger is not None:
        from repro.obs.ledger import write_run_jsonl

        write_run_jsonl(args.ledger, ledger=ledger, registry=registry,
                        meta=meta)
        print(f"[run file written to {args.ledger}]")
    if args.metrics:
        registry.write_prometheus(args.metrics)
        print(f"[metrics written to {args.metrics}]")


def main(argv: list[str] | None = None) -> int:
    """Entry point: run one experiment and print its series + summary."""
    args = build_parser().parse_args(argv)
    if args.list:
        print("strategies:     " + ", ".join(s.value for s in StrategyName))
        print("spill policies: " + ", ".join(p.value for p in SpillPolicyName))
        return 0
    if args.queries > 1:
        # standalone-only flags the server mode would silently ignore
        for flag in ("assignment", "csv", "json", "name"):
            if getattr(args, flag):
                raise SystemExit(
                    f"--{flag} applies to a standalone run only; it cannot "
                    f"be combined with --queries {args.queries}"
                )

    tracer = None
    if args.trace or args.trace_chrome or args.ledger:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    ledger = None
    if args.ledger:
        from repro.obs.ledger import DecisionLedger

        ledger = DecisionLedger()

    workers = [f"m{i + 1}" for i in range(args.workers)]
    duration = args.minutes * 60.0
    sample_interval = max(duration / 10.0, 1.0)
    workload = WorkloadSpec.uniform(
        n_partitions=args.partitions,
        join_rate=args.join_rate,
        tuple_range=args.tuple_range,
        interarrival=args.interarrival_ms / 1000.0,
        seed=args.seed,
    )
    slo = parse_slo(args.slo)
    if args.queries > 1:
        return _serving_main(args, workload, duration, sample_interval,
                             tracer, ledger, slo)
    result = run_experiment(
        args.strategy,
        workload,
        strategy=args.strategy,
        workers=workers,
        assignment=parse_assignment(args.assignment, workers),
        duration=duration,
        sample_interval=sample_interval,
        memory_threshold=int(args.threshold_kb * 1000),
        data_path=args.data_path,
        config_overrides=dict(
            theta_r=args.theta_r,
            tau_m=args.tau_m,
            spill_policy=SpillPolicyName(args.spill_policy),
        ),
        with_cleanup=not args.no_cleanup,
        seed=args.seed,
        tracer=tracer,
        ledger=ledger,
        latency=args.latency,
        slo=slo,
    )

    _write_artifacts(
        args, tracer, ledger, result.deployment.metrics.registry,
        meta={
            "strategy": args.strategy,
            "spill_policy": args.spill_policy,
            "workers": args.workers,
            "duration_s": duration,
            "threshold_bytes": int(args.threshold_kb * 1000),
            "data_path": args.data_path,
            "seed": args.seed,
        },
    )

    times = sample_times(duration, sample_interval)
    print(series_table({"outputs": result.outputs}, times))
    print()
    if args.csv:
        from repro.bench.report import series_csv

        columns = {"outputs": result.outputs}
        for worker in workers:
            columns[f"memory_{worker}"] = result.deployment.memory_series(worker)
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(series_csv(columns, times) + "\n")
        print(f"[series written to {args.csv}]\n")
    # numeric summary first (JSON output), formatted view derived from it
    numbers = {
        "strategy": args.strategy,
        "spill_policy": args.spill_policy,
        "workers": args.workers,
        "duration_s": duration,
        "data_path": args.data_path,
        "seed": args.seed,
        "runtime_outputs": result.total_outputs,
        "relocations": result.relocations,
        "spills": result.spills,
        "state_in_memory_bytes": result.deployment.total_state_bytes(),
        "state_on_disk_bytes": result.deployment.spilled_bytes(),
    }
    if result.cleanup is not None:
        numbers["cleanup_results"] = result.cleanup.missing_results
        numbers["cleanup_wall_s"] = result.cleanup.wall_duration
    summary = {
        "strategy": args.strategy,
        "run-time outputs": f"{numbers['runtime_outputs']:,}",
        "relocations": numbers["relocations"],
        "spills": numbers["spills"],
        "state in memory (B)": f"{numbers['state_in_memory_bytes']:,}",
        "state on disk (B)": f"{numbers['state_on_disk_bytes']:,}",
    }
    lat = result.deployment.metrics.latency
    if lat is not None:
        monitors = result.deployment.coordinator.slo_monitors
        print(latency_block(lat, monitors))
        print()
        e2e = lat.merged("e2e")
        numbers["latency_p99_s"] = e2e.quantile(0.99)
        numbers["latency_results"] = e2e.count
        if monitors:
            numbers["slo_alerts"] = sum(m.alerts for m in monitors)
    if result.cleanup is not None:
        summary["cleanup results"] = f"{numbers['cleanup_results']:,}"
        summary["cleanup wall (s)"] = f"{numbers['cleanup_wall_s']:.1f}"
    print(kv_block("summary", summary))
    if args.json:
        import json
        import pathlib

        name = args.name or args.strategy
        results_dir = pathlib.Path("benchmarks/results")
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"BENCH_{name}.json"
        numbers["series"] = {
            "times": list(times),
            "outputs": [result.output_at(t) for t in times],
        }
        path.write_text(json.dumps(numbers, indent=2) + "\n",
                        encoding="utf-8")
        print(f"\n[summary written to {path}]")
    return 0


def _serving_main(args, workload, duration, sample_interval,
                  tracer, ledger, slo=None) -> int:
    """``--queries N`` mode: N identical submissions on one QueryServer."""
    from repro.bench.harness import run_serving

    serving = run_serving(
        args.queries,
        fold=args.fold == "on",
        workload=workload,
        strategy=args.strategy,
        workers=args.workers,
        duration=duration,
        sample_interval=sample_interval,
        memory_threshold=int(args.threshold_kb * 1000),
        data_path=args.data_path,
        config_overrides=dict(
            theta_r=args.theta_r,
            tau_m=args.tau_m,
            spill_policy=SpillPolicyName(args.spill_policy),
        ),
        seed=args.seed,
        tracer=tracer,
        ledger=ledger,
        latency=args.latency,
        slo=slo,
    )
    server = serving.server

    _write_artifacts(
        args, tracer, ledger, server.metrics.registry,
        meta={
            "mode": "serving",
            "queries": args.queries,
            "fold": args.fold,
            "strategy": args.strategy,
            "workers": args.workers,
            "duration_s": duration,
            "threshold_bytes": int(args.threshold_kb * 1000),
            "data_path": args.data_path,
            "seed": args.seed,
            "tenants": server.tenant_report(),
        },
    )

    for handle in serving.handles:
        line = handle.status
        if handle.folded:
            line += f", folded onto {handle.group}"
        print(f"  {handle.qid} ({handle.tenant}): "
              f"{handle.total_outputs:,} outputs [{line}]")
    print()
    lat = server.metrics.latency
    if lat is not None:
        monitors = [lat.monitors[qid] for qid in sorted(lat.monitors)]
        print(latency_block(lat, monitors))
        print()
    summary = {
        "queries": args.queries,
        "fold": args.fold,
        "queries folded": serving.folded,
        "run-time outputs": f"{serving.total_outputs:,}",
        "fold state saved (B)": f"{serving.fold_state_bytes_saved:,}",
        "cluster-GC orders": server.cluster_gc.stats.orders,
    }
    print(kv_block("serving summary", summary))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
