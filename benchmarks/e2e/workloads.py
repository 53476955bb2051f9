"""The five whole-run workloads of the end-to-end benchmark.

Every workload is a fixed amount of *simulated* work (duration and
inter-arrival, never wall time), so two commits compared on it do
identical work.  Each builder returns a :class:`Job`: the wired system up
to — but not including — its first ``run`` call, which is exactly what
``setup_s`` times.

Only the public API is used, and ``data_path="columnar"`` is passed only
while the constructor still accepts it: later changes may delete the
other data paths, and this package may not be edited by them.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.obs.slo import SLOConfig
from repro.serving import QueryServer, QuerySpec, Tenant
from repro.workloads import WorkloadSpec, membership_schedule, three_way_join

BATCH_SIZE = 50


class WorkloadNotExercised(RuntimeError):
    """A workload ran but no longer drives the layer it exists to load."""


@dataclass
class Query:
    """One logical query whose answer the oracle checks."""

    label: str
    deployment: Deployment
    #: run-time results delivered to *this* query (a folded member counts
    #: its own collector, not the shared runtime's)
    outputs: Callable[[], int]


@dataclass
class Job:
    """A wired system, ready for its run-time phase."""

    run: Callable[[], None]
    deployments: list[Deployment]
    queries: list[Query]
    #: raises :class:`WorkloadNotExercised` when the run skipped its layer
    check: Callable[[], None]
    server: QueryServer | None = None


def _columnar(target) -> dict:
    """``data_path="columnar"`` while ``target`` still has the switch."""
    if "data_path" in inspect.signature(target).parameters:
        return {"data_path": "columnar"}
    return {}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise WorkloadNotExercised(message)


def _single(dep: Deployment, duration: float, check: Callable[[], None]) -> Job:
    return Job(
        run=lambda: dep.run(duration=duration),
        deployments=[dep],
        queries=[Query("q0", dep, lambda: dep.total_outputs)],
        check=check,
    )


# ----------------------------------------------------------------------
# steady_join
# ----------------------------------------------------------------------
def steady_join(seed: int, scale: str, tracer=None, ledger=None) -> Job:
    duration = {"full": 220.0, "smoke": 8.0}[scale]
    dep = Deployment(
        join=three_way_join(),
        workload=WorkloadSpec.uniform(
            24, join_rate=3, tuple_range=30_000, interarrival=0.002, seed=seed
        ),
        workers=3,
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK, memory_threshold=10**9
        ),
        batch_size=BATCH_SIZE,
        seed=seed,
        tracer=tracer,
        ledger=ledger,
        **_columnar(Deployment),
    )

    def check() -> None:
        _require(dep.spill_count == 0, "steady_join spilled")
        _require(dep.relocation_count == 0, "steady_join relocated")

    return _single(dep, duration, check)


# ----------------------------------------------------------------------
# spill_relocate
# ----------------------------------------------------------------------
def spill_relocate(seed: int, scale: str, tracer=None, ledger=None) -> Job:
    duration, threshold = {
        "full": (900.0, 1_200_000), "smoke": (90.0, 100_000),
    }[scale]
    dep = Deployment(
        join=three_way_join(),
        # 240 partitions, not the paper's 60: which groups get spilled is
        # chaotic in the seed, and finer groups average it out (run-time
        # outputs range over seeds: 13% with 60, 6% with 240)
        workload=WorkloadSpec.uniform(
            240, join_rate=3, tuple_range=30_000, interarrival=0.01, seed=seed
        ),
        workers=3,
        assignment={"m1": 0.6, "m2": 0.2, "m3": 0.2},
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=threshold,
            ss_interval=5.0,
            stats_interval=5.0,
            coordinator_interval=10.0,
        ),
        batch_size=BATCH_SIZE,
        seed=seed,
        tracer=tracer,
        ledger=ledger,
        **_columnar(Deployment),
    )

    def check() -> None:
        _require(dep.spill_count >= 1, "spill_relocate never spilled")
        _require(dep.relocation_count >= 1, "spill_relocate never relocated")

    return _single(dep, duration, check)


# ----------------------------------------------------------------------
# windowed_recovery
# ----------------------------------------------------------------------
def windowed_recovery(seed: int, scale: str, tracer=None, ledger=None) -> Job:
    # crashes at 30/50/70% must not fall on a checkpoint tick (every 8 s):
    # whether the tick or the crash wins then depends on the seed, and
    # peak memory with it
    duration = {"full": 150.0, "smoke": 60.0}[scale]
    dep = Deployment(
        join=three_way_join(window=20.0),
        workload=WorkloadSpec.uniform(
            24, join_rate=3, tuple_range=3000, interarrival=0.005, seed=seed
        ),
        workers=3,
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=10**7,
            checkpoint_enabled=True,
            checkpoint_interval=8.0,
            failure_timeout=5.0,
            stats_interval=2.0,
            coordinator_interval=4.0,
        ),
        batch_size=BATCH_SIZE,
        seed=seed,
        tracer=tracer,
        ledger=ledger,
        **_columnar(Deployment),
    )
    m2, m3 = dep.engines["m2"], dep.engines["m3"]
    FaultSchedule([
        MachineCrash(0.3 * duration, m2),
        MachineRestart(0.5 * duration, m2),
        MachineCrash(0.7 * duration, m3),
    ]).arm(dep.sim)

    def check() -> None:
        _require(dep.recovery_count == 2,
                 f"windowed_recovery saw {dep.recovery_count} recoveries, not 2")
        _require(dep.checkpoint_count >= 1, "windowed_recovery never checkpointed")
        _require(dep.spill_count == 0, "windowed_recovery spilled")

    return _single(dep, duration, check)


# ----------------------------------------------------------------------
# serving_mixed
# ----------------------------------------------------------------------
def serving_mixed(seed: int, scale: str, tracer=None, ledger=None) -> Job:
    duration, threshold, budget = {
        "full": (170.0, 200_000, 150_000), "smoke": (40.0, 40_000, 10_000),
    }[scale]
    tail = 30.0
    tenants = [Tenant(f"t{i}", memory_budget=budget) for i in (1, 2, 3, 4)]
    server = QueryServer(
        tenants,
        cluster_capacity=10**9,
        tracer=tracer,
        ledger=ledger,
        latency=True,
    )
    handles = []
    # seeds s, s, s+1, s+1: two fold groups of two members each
    for tenant, query_seed in zip(tenants, (seed, seed, seed + 1, seed + 1)):
        spec = QuerySpec(
            join=three_way_join(),
            # 192 partitions for the reason spill_relocate has 240
            workload=WorkloadSpec.uniform(
                192, join_rate=3, tuple_range=3000, interarrival=0.02,
                seed=query_seed,
            ),
            config=AdaptationConfig(
                strategy=StrategyName.LAZY_DISK, memory_threshold=threshold
            ),
            workers=2,
            tenant=tenant.name,
            duration=duration,
            # far below the budget so admission passes; live state then
            # outgrows the budget and the cluster GC must step in
            memory_demand=1000,
            seed=query_seed,
            slo=SLOConfig(target_p99=0.25),
            **_columnar(QuerySpec),
        )
        handles.append(server.submit(spec))
    rejected = [h.qid for h in handles if h.status != "running"]
    if rejected:
        raise WorkloadNotExercised(f"serving_mixed admission rejected {rejected}")

    def run() -> None:
        server.run_for(duration + tail)
        server.finish()

    def check() -> None:
        _require(len(server.groups) == 2 and sum(h.folded for h in handles) == 2,
                 "serving_mixed no longer forms two fold groups of two")
        _require(server.cluster_gc.stats.orders >= 1,
                 "serving_mixed: ClusterGC ordered no spill")

    groups = {gid: group.deployment for gid, group in server.groups.items()}
    return Job(
        run=run,
        deployments=[groups[gid] for gid in sorted(groups)],
        queries=[
            Query(h.qid, groups[h.group], lambda h=h: h.total_outputs)
            for h in handles
        ],
        check=check,
        server=server,
    )


# ----------------------------------------------------------------------
# scale64_elastic
# ----------------------------------------------------------------------
def scale64_elastic(seed: int, scale: str, tracer=None, ledger=None) -> Job:
    duration = {"full": 650.0, "smoke": 170.0}[scale]
    dep = Deployment(
        join=three_way_join(),
        workload=WorkloadSpec.uniform(
            128, join_rate=2, tuple_range=200, interarrival=0.02, seed=seed
        ),
        workers=48,
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=10**9,
            theta_r=0.9,
            tau_m=10.0,
            coordinator_interval=5.0,
            stats_interval=2.0,
            ss_interval=2.0,
            min_relocation_bytes=1024,
        ),
        batch_size=BATCH_SIZE,
        seed=seed,
        tracer=tracer,
        ledger=ledger,
        **_columnar(Deployment),
    )
    extra = [f"m{49 + i}" for i in range(16)]
    membership_schedule(
        dep,
        joins=[(20.0 + 2 * i, name) for i, name in enumerate(extra)],
        drains=[(80.0 + 4 * i, name) for i, name in enumerate(extra)],
    ).arm(dep.sim)

    def check() -> None:
        stats = dep.coordinator.stats
        _require(stats.joins == 16, f"scale64_elastic: {stats.joins} joins, not 16")
        _require(stats.drains_completed == 16,
                 f"scale64_elastic: {stats.drains_completed} drains, not 16")

    return _single(dep, duration, check)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Job]
    #: ``repro.obs.check_trace`` applies (not yet to multi-query traces:
    #: the checker is not namespace-aware and reports false
    #: single-residency breaches across fold groups)
    check_trace: bool = True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady_join", steady_join),
        Workload("spill_relocate", spill_relocate),
        Workload("windowed_recovery", windowed_recovery),
        Workload("serving_mixed", serving_mixed, check_trace=False),
        Workload("scale64_elastic", scale64_elastic),
    )
}
