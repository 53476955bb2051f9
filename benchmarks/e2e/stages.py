"""The three stages one workload goes through, each one whole run.

* :func:`timed` — no wrappers, no ``Tracer``/``DecisionLedger``: the
  end-to-end numbers.  Run in a fresh interpreter by ``child.py`` so that
  set-up time and peak memory belong to this run alone.
* :func:`verify` — the same seed with the inputs captured at the public
  ``SourceHost.inject``, the result count checked against the oracle and
  the protocol trace and decision ledger checked by ``repro.obs``.
* :func:`traced` — the same seed with the wall-clock spans of
  :mod:`spans` installed: the per-layer numbers.

Every stage returns a JSON-ready dict whose ``sim`` entry holds the
simulated statistics and exact counts of the run; for one seed they are
the same in every stage and on every repeat.
"""

from __future__ import annotations

import resource
import time
from contextlib import ExitStack

from repro.engine.query_engine import SourceHost
from repro.engine.streams import OutputCollector
from repro.obs import DecisionLedger, Tracer, check_trace, verify_replay

from .spec import PER_LAYER, SELF_METRIC_OF_LAYER
from .oracle import expected_results
from .spans import ROOT_LAYER, SpanTracer, calibrate
from .workloads import WORKLOADS, Job


def _read(obj, path: str, default=0):
    """``obj.a.b.c``, or ``default`` once the program dropped the name."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return default
    return obj


def _distinct(deps: list, attr: str) -> list:
    """The ``attr`` objects of the deployments; serving runtimes share them."""
    return list({id(o): o for o in (getattr(d, attr) for d in deps)}.values())


def _complete(job: Job) -> list:
    """Run-time phase, then the cleanup phase of every runtime."""
    job.run()
    return [dep.cleanup() for dep in job.deployments]


def _sim_counts(job: Job, reports: list) -> dict:
    deps = job.deployments
    sims, networks = _distinct(deps, "sim"), _distinct(deps, "network")
    return {
        "runtime_outputs": [q.outputs() for q in job.queries],
        "missing_results": [r.missing_results for r in reports],
        "tuples_routed": sum(_read(d, "source_host.tuples_routed") for d in deps),
        "events": sum(s.events_processed for s in sims),
        "messages": sum(_read(n, "stats.messages") for n in networks),
        "spills": sum(d.spill_count for d in deps),
        "relocations": sum(d.relocation_count for d in deps),
        "recoveries": sum(d.recovery_count for d in deps),
        "checkpoints": sum(d.checkpoint_count for d in deps),
    }


def timed(workload: str, seed: int, scale: str, t_start: float) -> dict:
    job = WORKLOADS[workload].build(seed, scale)
    t_setup = time.perf_counter()
    job.run()
    t_run = time.perf_counter()
    reports = [dep.cleanup() for dep in job.deployments]
    t_done = time.perf_counter()
    job.check()
    return {
        "setup_s": t_setup - t_start,
        "run_s": t_run - t_setup,
        "complete_result_s": t_done - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": _sim_counts(job, reports),
    }


def verify(workload: str, seed: int, scale: str, *,
           drop_one_result: bool = False) -> dict:
    """``drop_one_result`` loses one result on its way into the collector:
    the self-tests use it to prove a wrong answer is caught."""
    spec = WORKLOADS[workload]
    injected: dict[int, list] = {}
    inject, add = SourceHost.inject, OutputCollector.add

    def capture(host, stream, batch):
        injected.setdefault(id(host), []).extend(batch)
        return inject(host, stream, batch)

    dropped = []

    def drop(collector, count, results, *args, **kwargs):
        if count and not dropped:
            dropped.append(True)
            count, results = count - 1, results[:-1]
        return add(collector, count, results, *args, **kwargs)

    from unittest import mock  # not at the top: timed runs pay for imports

    tracer, ledger = Tracer(), DecisionLedger()
    with ExitStack() as patches:
        patches.enter_context(mock.patch.object(SourceHost, "inject", capture))
        if drop_one_result:
            patches.enter_context(mock.patch.object(OutputCollector, "add", drop))
        job = spec.build(seed, scale, tracer, ledger)
        reports = _complete(job)
    job.check()

    missing = {id(d): r.missing_results for d, r in zip(job.deployments, reports)}
    expected_of: dict[int, int] = {}
    queries = []
    for query in job.queries:
        dep = query.deployment
        if id(dep) not in expected_of:
            expected_of[id(dep)] = expected_results(
                injected.get(id(dep.source_host), ()),
                dep.join.stream_names, dep.join.window,
            )
        expected = expected_of[id(dep)]
        got = query.outputs() + missing[id(dep)]
        queries.append({"query": query.label, "expected": expected,
                        "got": got, "failed": abs(got - expected)})
    if spec.check_trace:
        violations = check_trace(tracer.events, ledger_entries=ledger.entries)
    else:
        violations = verify_replay(ledger.entries)
    return {
        "tuples_injected": sum(len(batch) for batch in injected.values()),
        "queries": queries,
        "ops_attempted": sum(q["expected"] for q in queries),
        "ops_failed": sum(q["failed"] for q in queries),
        "check": "check_trace" if spec.check_trace else "verify_replay",
        "violations": [f"{v.check}: {v.message}" for v in violations],
        "ledger_entries": len(ledger.entries),
        "trace_events": len(tracer.events),
        "sim": _sim_counts(job, reports),
    }


def traced(workload: str, seed: int, scale: str) -> dict:
    cost = calibrate()
    tracer = SpanTracer()
    tracer.install()
    try:
        job = WORKLOADS[workload].build(seed, scale)
        tracer.open()
        reports = _complete(job)
        wall = tracer.close()
    finally:
        tracer.uninstall()
    job.check()
    layers = tracer.layers(cost)
    values = _layer_values(job, reports, layers, wall)
    values["bench.absent_targets"] = len(tracer.absent)
    return {
        "traced_wall_s": wall,
        "per_layer": values,
        "layers": layers,
        "absent": tracer.absent,
        "wrapper_cost_s": {"inside": cost.inside, "outside": cost.outside},
        "trace": tracer.to_json(),
        "sim": _sim_counts(job, reports),
    }


def _layer_values(job: Job, reports: list, layers: dict, wall: float) -> dict:
    """Every per-layer metric except the ones that need a timed run.

    Times come from the span labels (``layer`` or ``layer#entry``); counts
    come from the span counts and from the program's public counters.
    """
    deps = job.deployments
    hubs = _distinct(deps, "metrics")
    sims, networks = _distinct(deps, "sim"), _distinct(deps, "network")
    engines = [e for d in deps for e in d.engines.values()]
    disks = [disk for d in deps for disk in d.disks.values()]
    machines = [m for d in deps for m in d.machines.values()]
    machines += [m for d in deps if (m := _read(d, "source_machine", None))]
    sources = [s for d in deps for s in _read(d, "sources", ())]
    splits = [s for d in deps for s in _read(d, "splits", {}).values()]

    def calls(*labels: str) -> int:
        return sum(layers.get(label, {}).get("calls", 0) for label in labels)

    def total(objects, path: str):
        return sum(_read(o, path) for o in objects)

    v = dict.fromkeys((m.name for m in PER_LAYER), 0)
    for label, entry in layers.items():
        if label == ROOT_LAYER:
            continue
        metric = SELF_METRIC_OF_LAYER.get(label.split("#")[0],
                                          "bench.other_self_s")
        v[metric] += entry["self_s"]
    v["bench.traced_wall_s"] = wall
    v["bench.unattributed_frac"] = layers[ROOT_LAYER]["self_s"] / wall
    v["bench.wrapper_calls"] = calls("bench.wrapper")

    tuples = total(deps, "source_host.tuples_routed")
    v["workloads.generator.tuples"] = total(sources, "generator.tuples_generated")
    v["engine.streams.collector_calls"] = calls("engine.streams.collector#add")
    v["engine.query_engine.source_host_batches"] = calls(
        "engine.query_engine.source_host#inject")
    v["engine.query_engine.engine_deliveries"] = calls(
        "engine.query_engine.engine#deliver")
    v["engine.operators.split.calls"] = total(splits, "inputs_seen")
    batches = calls("engine.columns#from_routed")
    v["engine.columns.batches"] = batches
    v["engine.columns.rows_per_batch"] = tuples / batches if batches else 0
    v["engine.state_store.probe_calls"] = calls(
        *(label for label in layers if label.startswith("engine.state_store.probe#")))
    v["engine.state_store.rows"] = total(engines, "instance.tuples_in")
    v["engine.state_store.motion_calls"] = calls(
        *(label for label in layers if label.startswith("engine.state_store.motion#")))
    v["engine.state_store.resident_bytes_end"] = sum(
        d.total_state_bytes() for d in deps)
    n_events = total(sims, "events_processed")
    v["cluster.simulation.events"] = n_events
    v["cluster.simulation.events_per_tuple"] = n_events / tuples if tuples else 0
    v["cluster.simulation.compactions"] = total(sims, "compactions")
    v["cluster.network.messages"] = total(networks, "stats.messages")
    v["cluster.network.bytes"] = total(networks, "stats.bytes_sent")
    v["cluster.network.state_transfer_bytes"] = total(
        networks, "stats.state_transfer_bytes")
    v["cluster.machine.tasks"] = total(machines, "tasks_completed")
    v["cluster.disk.bytes_written"] = total(disks, "stats.bytes_written")
    v["cluster.disk.bytes_read"] = total(disks, "stats.bytes_read")
    v["core.coordinator.evaluations"] = total(
        deps, "coordinator.stats.evaluations")
    spills = [e for hub in hubs
              for e in hub.events.of_kind("spill", "forced_spill")]
    v["core.spill.spills"] = len(spills)
    v["core.spill.bytes"] = sum(e.details.get("bytes", 0) for e in spills)
    v["core.relocation.relocations"] = total(
        deps, "coordinator.stats.relocations_completed")
    v["core.relocation.aborted"] = total(
        deps, "coordinator.stats.relocations_aborted")
    v["core.cleanup.wall_s"] = layers.get(
        "core.cleanup#cleanup", {}).get("total_s", 0.0)
    v["core.cleanup.missing_results"] = total(reports, "missing_results")
    v["core.cleanup.segments"] = total(reports, "segments_merged")
    v["recovery.checkpoint.commits"] = total(deps, "registry.commits")
    v["recovery.checkpoint.bytes"] = total(deps, "registry.bytes_written")
    v["recovery.manager.recoveries"] = sum(d.recovery_count for d in deps)
    v["recovery.manager.tuples_replayed"] = total(
        deps, "source_host.replayed_total")
    v["serving.server.fold_state_bytes_saved"] = _read(
        job.server, "max_fold_state_bytes_saved")
    v["serving.gc.evaluations"] = _read(job.server, "cluster_gc.stats.evaluations")
    v["serving.gc.orders"] = _read(job.server, "cluster_gc.stats.orders")
    v["obs.slo.observations"] = calls("obs.slo#observe", "obs.slo#hold")
    for hub in hubs:
        latency = _read(hub, "latency", None)
        sketch = latency.merged("e2e") if latency is not None else None
        if sketch is not None and sketch.count:
            v["obs.slo.sim_latency_p50_s"] = sketch.quantile(0.5)
            v["obs.slo.sim_latency_p99_s"] = sketch.quantile(0.99)
    return v
