"""Experiment runner shared by all benchmarks.

Setting ``REPRO_TRACE=check`` in the environment makes every
:func:`run_experiment` call record a structured adaptation trace *and* a
decision ledger, then assert the protocol invariants (:mod:`repro.obs`)
after the run — including the ledger↔trace bijection and the offline
decision replay — so the whole figure suite can be audited with::

    REPRO_TRACE=check pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.cleanup import CleanupReport
from repro.core.config import AdaptationConfig, CostModel, StrategyName
from repro.engine.plan import Deployment
from repro.workloads.generator import WorkloadSpec
from repro.workloads.queries import three_way_join


@dataclass
class RunResult:
    """Outcome of one benchmark configuration run."""

    label: str
    deployment: Deployment
    cleanup: CleanupReport | None = None

    @property
    def outputs(self):
        return self.deployment.output_series()

    @property
    def total_outputs(self) -> int:
        return self.deployment.total_outputs

    @property
    def spills(self) -> int:
        return self.deployment.spill_count

    @property
    def relocations(self) -> int:
        return self.deployment.relocation_count

    def output_at(self, time: float) -> float:
        """Cumulative outputs at a simulated instant (step-interpolated)."""
        return self.outputs.value_at(time)

    def memory_at(self, machine: str, time: float) -> float:
        return self.deployment.memory_series(machine).value_at(time)


def _harness_config(strategy, memory_threshold: int,
                    config_overrides: dict | None) -> AdaptationConfig:
    """The harness's adaptation cadence with the caller's overrides on top."""
    overrides = dict(
        memory_threshold=memory_threshold,
        ss_interval=5.0,
        stats_interval=5.0,
        coordinator_interval=10.0,
    )
    if config_overrides:
        overrides.update(config_overrides)
    return AdaptationConfig(strategy=StrategyName(strategy), **overrides)


def run_experiment(
    label: str,
    workload: WorkloadSpec,
    *,
    strategy: StrategyName | str = StrategyName.LAZY_DISK,
    workers=1,
    assignment=None,
    duration: float = 1800.0,
    sample_interval: float = 120.0,
    memory_threshold: int = 3_000_000,
    batch_size: int = 50,
    data_path: str = "columnar",
    config_overrides: dict | None = None,
    cost: CostModel | None = None,
    with_cleanup: bool = False,
    join=None,
    seed: int = 11,
    tracer=None,
    ledger=None,
    latency: bool = False,
    slo=None,
) -> RunResult:
    """Build, run, and optionally clean up one configuration.

    This is the single entry point every benchmark uses, so all paper
    experiments share identical wiring and differ only in their declared
    parameters.  ``data_path`` selects the delivery representation —
    ``tuple``, ``batched`` or ``columnar`` (default) — which changes
    wall-clock cost only; outputs and adaptation behaviour are identical.
    An ``slo`` implies ``latency``.
    """
    check_invariants = False
    if tracer is None and os.environ.get("REPRO_TRACE") == "check":
        from repro.obs.trace import Tracer

        tracer = Tracer()
        check_invariants = True
        if ledger is None:
            from repro.obs.ledger import DecisionLedger

            ledger = DecisionLedger()
    latency = latency or slo is not None
    config = _harness_config(strategy, memory_threshold, config_overrides)
    deployment = Deployment(
        join=join if join is not None else three_way_join(),
        workload=workload,
        workers=workers,
        config=config,
        cost=cost,
        assignment=assignment,
        batch_size=batch_size,
        data_path=data_path,
        seed=seed,
        tracer=tracer,
        ledger=ledger,
        latency=latency,
        slo=slo,
    )
    deployment.run(duration=duration, sample_interval=sample_interval)
    result = RunResult(label=label, deployment=deployment)
    if with_cleanup:
        result.cleanup = deployment.cleanup()
    if check_invariants:
        from repro.obs import check_trace

        violations = check_trace(
            tracer.events,
            ledger_entries=ledger.entries if ledger is not None else None,
        )
        if violations:
            lines = "\n".join(f"  {v}" for v in violations)
            raise AssertionError(
                f"trace invariant violations in {label!r}:\n{lines}"
            )
    return result


@dataclass
class ServingResult:
    """Outcome of one multi-tenant serving scenario run."""

    server: "object"
    handles: list = field(default_factory=list)

    @property
    def total_outputs(self) -> int:
        return sum(h.total_outputs for h in self.handles)

    @property
    def folded(self) -> int:
        return sum(1 for h in self.handles if h.folded)

    @property
    def fold_state_bytes_saved(self) -> int:
        return self.server.max_fold_state_bytes_saved


def run_serving(
    n_queries: int,
    *,
    fold: bool = True,
    workload: WorkloadSpec | None = None,
    strategy: StrategyName | str = StrategyName.LAZY_DISK,
    workers: int = 2,
    duration: float = 120.0,
    sample_interval: float = 10.0,
    memory_threshold: int = 200_000,
    data_path: str = "columnar",
    config_overrides: dict | None = None,
    seed: int = 11,
    tenants=None,
    cluster_capacity: int | None = None,
    tail: float = 30.0,
    tracer=None,
    ledger=None,
    latency: bool = False,
    slo=None,
) -> ServingResult:
    """Run ``n_queries`` identical submissions on one :class:`QueryServer`.

    The single entry point for multi-tenant scenarios (CLI ``--queries``,
    the examples): by default each query belongs to its own tenant
    ``t1..tN`` with a budget of four nominal demands, and the cluster
    holds twice the aggregate demand, so every submission admits whether
    folding is on or off — the interesting difference is *where* the
    state lives, which ``ServingResult.fold_state_bytes_saved`` reports.
    """
    from repro.serving import QueryServer, QuerySpec, Tenant
    from repro.workloads.queries import three_way_join as make_join

    config = _harness_config(strategy, memory_threshold, config_overrides)
    if workload is None:
        workload = WorkloadSpec.uniform(
            n_partitions=24, join_rate=3.0, tuple_range=3000,
            interarrival=0.03, seed=seed,
        )
    demand = memory_threshold * workers
    if tenants is None:
        tenants = [
            Tenant(f"t{i + 1}", memory_budget=demand * 4)
            for i in range(n_queries)
        ]
    if cluster_capacity is None:
        cluster_capacity = demand * n_queries * 2
    latency = latency or slo is not None
    server = QueryServer(
        tenants,
        cluster_capacity=cluster_capacity,
        fold_enabled=fold,
        tracer=tracer,
        ledger=ledger,
        latency=latency,
    )
    handles = []
    for i in range(n_queries):
        handles.append(server.submit(QuerySpec(
            join=make_join(),
            workload=workload,
            config=config,
            workers=workers,
            tenant=tenants[i % len(tenants)].name,
            duration=duration,
            data_path=data_path,
            seed=seed,
            slo=slo,
        )))
    server.run_for(duration + tail, sample_interval=sample_interval)
    server.finish()
    return ServingResult(server=server, handles=handles)


def sample_times(duration: float, sample_interval: float) -> list[float]:
    """The instants a run of the given dimensions was sampled at."""
    times = []
    t = 0.0
    while t < duration:
        t = min(t + sample_interval, duration)
        times.append(t)
    return times
