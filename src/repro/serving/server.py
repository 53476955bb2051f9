"""The multi-tenant query server.

One :class:`QueryServer` owns the shared substrate — simulator, network
fabric, observability hub — and runs many queries from many tenants on
it.  Each admitted query (or fold group of queries) is a full
:class:`~repro.engine.plan.Deployment` whose machines, disks, network
endpoints and sampled series live under a private namespace prefix, so
concurrent runtimes are physically disjoint: per-link FIFO networking
plus disjoint endpoints means a runtime's behaviour on the shared
substrate is byte-identical to a standalone run of the same spec.

Admission control happens at :meth:`QueryServer.submit`: a fold-
compatible submission attaches to the existing group (charging zero
cluster capacity — the state already exists), otherwise the query's
nominal memory demand is checked against its tenant's budget and the
cluster capacity.  Every verdict — admit, reject, fold — is an
``admission`` ledger entry whose inputs replay offline.

Queries drain at runtime via :meth:`QueryServer.drain`: a folded member
just detaches from the fan-out; the last member stops the runtime's
control loops and the group retires only once its coordinator has no
relocation session in flight (graceful drain mid-relocation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster.network import Message, Network
from repro.cluster.simulation import Simulator
from repro.core.config import AdaptationConfig, CostModel
from repro.core.policy import decide_admission
from repro.engine.operators.mjoin import MJoin
from repro.engine.plan import Deployment
from repro.engine.streams import OutputCollector
from repro.obs.hub import ObsHub
from repro.obs.ledger import KIND_ADMISSION
from repro.obs.slo import SLOConfig
from repro.serving.arbiter import ArbitratedCoordinator, RelocationArbiter
from repro.serving.folding import FanOutCollector, FoldGroup, fold_signature
from repro.serving.gc import ClusterGC
from repro.workloads.generator import WorkloadSpec

__all__ = ["QueryHandle", "QueryServer", "QuerySpec", "Tenant"]

#: the server's own network endpoint (cross-query GC replies land here)
SERVER_NAME = "server"


@dataclass
class Tenant:
    """One tenant's identity and memory entitlement."""

    name: str
    memory_budget: int
    #: nominal demand of currently admitted queries (admission-control
    #: view; live state bytes are tracked separately by the cluster GC)
    admitted_demand: int = 0


@dataclass
class QuerySpec:
    """Everything needed to run one query: the logical join plus the
    physical knobs that define its runtime.  Two specs whose physical
    knobs agree (see :func:`~repro.serving.folding.fold_signature`) fold
    onto one shared runtime."""

    join: MJoin
    workload: WorkloadSpec
    config: AdaptationConfig
    workers: int | Sequence[str]
    tenant: str
    duration: float = 60.0
    #: nominal admission-control demand in bytes; 0 derives a default
    #: from the adaptation threshold and worker count
    memory_demand: int = 0
    data_path: str = "columnar"
    seed: int = 11
    collect_results: bool = True
    assignment: dict[str, float] | None = None
    #: optional latency objective (:class:`~repro.obs.slo.SLOConfig`).
    #: Deliberately excluded from the fold signature: an SLO is a
    #: per-query promise, not a physical knob — folded members sharing
    #: one runtime each get their own monitor against their own target.
    slo: "SLOConfig | None" = None

    def nominal_demand(self) -> int:
        if self.memory_demand:
            return self.memory_demand
        n = self.workers if isinstance(self.workers, int) else len(self.workers)
        return self.config.memory_threshold * n


@dataclass
class QueryHandle:
    """The server's view of one submitted query."""

    qid: str
    tenant: str
    spec: QuerySpec
    #: ``running`` | ``draining`` | ``retired`` | ``rejected``
    status: str
    demand: int
    #: private result sink; receives every output batch of the (possibly
    #: shared) runtime from attach time on
    collector: OutputCollector | None = None
    #: gid of the fold group serving this query (None when rejected)
    group: str | None = None
    #: populated on rejection with the failed predicate
    reason: str | None = None
    #: True when this query attached to an existing group
    folded: bool = False

    @property
    def total_outputs(self) -> int:
        return self.collector.total if self.collector is not None else 0

    @property
    def results(self) -> list:
        """This query's collected results in delivery order (see
        :attr:`OutputCollector.results
        <repro.engine.streams.OutputCollector.results>`: rows are boxed
        on first read and cached; folded members share the boxed rows)."""
        return self.collector.results if self.collector is not None else []


class QueryServer:
    """Admits, runs and drains many queries on one shared cluster."""

    def __init__(
        self,
        tenants: Sequence[Tenant],
        *,
        cluster_capacity: int,
        cost: CostModel | None = None,
        tracer=None,
        ledger=None,
        fold_enabled: bool = True,
        latency: bool = False,
    ) -> None:
        if cluster_capacity <= 0:
            raise ValueError("cluster_capacity must be positive")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names {names!r}")
        self.name = SERVER_NAME
        self.tenants: dict[str, Tenant] = {t.name: t for t in tenants}
        self.cluster_capacity = cluster_capacity
        self.cluster_used = 0
        self.cost = cost or CostModel()
        self.fold_enabled = fold_enabled
        self.latency = latency

        self.sim = Simulator()
        self.metrics = ObsHub()
        self.metrics.registry.bind_clock(lambda: self.sim.now)
        if latency:
            self.metrics.enable_latency()
        if tracer is not None:
            self.metrics.tracer = tracer
            tracer.bind_clock(lambda: self.sim.now)
        if ledger is not None:
            self.metrics.ledger = ledger
            ledger.bind_clock(lambda: self.sim.now)
        self.network = Network(
            self.sim,
            latency=self.cost.network_latency,
            bandwidth=self.cost.network_bandwidth,
        )
        self.network.register(self.name, self._deliver)

        self.arbiter = RelocationArbiter()
        self.cluster_gc = ClusterGC(self)
        self.cluster_gc.start()

        self.queries: dict[str, QueryHandle] = {}
        self.groups: dict[str, FoldGroup] = {}
        self._fold_index: dict[tuple, FoldGroup] = {}
        self._seq = 0
        self._admission_counts = {"admit": 0, "reject": 0, "fold": 0}
        #: running peak of state bytes the folds avoid duplicating
        self.max_fold_state_bytes_saved = 0
        self._finished = False
        self.metrics.registry.register_collector(self._publish_metrics)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(self, spec: QuerySpec) -> QueryHandle:
        """Admission-control one submission; launch or fold it when
        admitted.  Never raises on a policy rejection — the returned
        handle carries ``status="rejected"`` and the failed predicate."""
        if self._finished:
            raise RuntimeError("server already finished; build a fresh one")
        if spec.tenant not in self.tenants:
            raise ValueError(f"unknown tenant {spec.tenant!r}")
        if spec.slo is not None and not self.latency:
            raise ValueError(
                "spec carries an SLO but the server was built without "
                "latency tracking: pass latency=True to QueryServer"
            )
        tenant = self.tenants[spec.tenant]
        demand = spec.nominal_demand()
        self._seq += 1
        qid = f"q{self._seq}"

        signature = fold_signature(
            spec.join, spec.workload, spec.config, spec.workers,
            data_path=spec.data_path, seed=spec.seed,
            assignment=spec.assignment,
        )
        candidate = self._fold_index.get(signature) if self.fold_enabled else None
        if candidate is not None and not candidate.active:
            candidate = None

        ledger = self.metrics.ledger
        inputs = {
            "now": self.sim.now,
            "query": qid,
            "tenant": tenant.name,
            "memory_demand": demand,
            "tenant_budget": tenant.memory_budget,
            "tenant_usage": tenant.admitted_demand,
            "cluster_capacity": self.cluster_capacity,
            "cluster_used": self.cluster_used,
            "fold_group": candidate.gid if candidate is not None else None,
        }
        action, rule, _, alts = decide_admission(inputs)

        if action == "fold":
            handle = QueryHandle(
                qid=qid, tenant=tenant.name, spec=spec, status="running",
                demand=demand, collector=OutputCollector(
                    collect=spec.collect_results
                ),
                group=candidate.gid, folded=True,
            )
            candidate.attach(qid, handle.collector)
            tenant.admitted_demand += demand
            self.queries[qid] = handle
            if spec.slo is not None:
                # The fan-out delivers the full result stream to every
                # member, so this member's monitor reads the shared
                # runtime's trackers against its own target.
                self._attach_slo_monitor(
                    candidate.deployment, qid, tenant.name, spec.slo
                )
            self._admission_counts["fold"] += 1
            if ledger.enabled:
                alts.append({
                    "action": "fold", "outcome": "chosen",
                    "predicate": (
                        f"signature matches running group "
                        f"{candidate.gid!r} ({len(candidate.members)} "
                        f"members) -> share its state, charge 0 B of "
                        f"cluster capacity"
                    ),
                })
                ledger.record(
                    self.name, KIND_ADMISSION, action, rule, inputs, alts
                )
            self.metrics.events.record(
                self.sim.now, "query_fold", candidate.gid,
                query=qid, tenant=tenant.name,
                members=len(candidate.members),
            )
            return handle

        if action == "reject":
            handle = QueryHandle(
                qid=qid, tenant=tenant.name, spec=spec, status="rejected",
                demand=demand, reason=alts[0]["predicate"],
            )
            self.queries[qid] = handle
            self._admission_counts["reject"] += 1
            if ledger.enabled:
                ledger.record(
                    self.name, KIND_ADMISSION, action, rule, inputs, alts
                )
            self.metrics.events.record(
                self.sim.now, "query_reject", self.name,
                query=qid, tenant=tenant.name, reason=rule,
            )
            return handle

        # admit: build the namespaced runtime on the shared substrate
        fanout = FanOutCollector()
        deployment = Deployment(
            join=spec.join,
            workload=spec.workload,
            workers=spec.workers,
            config=spec.config,
            cost=self.cost,
            assignment=spec.assignment,
            data_path=spec.data_path,
            seed=spec.seed,
            sim=self.sim,
            network=self.network,
            metrics=self.metrics,
            namespace=f"{qid}:",
            collector=fanout,
            coordinator_factory=self._make_coordinator,
            metric_labels={"tenant": tenant.name, "query": qid},
            latency=self.latency,
            slo=spec.slo,
        )
        group = FoldGroup(
            gid=qid, signature=signature, deployment=deployment,
            fanout=fanout, cluster_charge=demand,
        )
        handle = QueryHandle(
            qid=qid, tenant=tenant.name, spec=spec, status="running",
            demand=demand,
            collector=OutputCollector(collect=spec.collect_results),
            group=qid,
        )
        group.attach(qid, handle.collector)
        self.queries[qid] = handle
        self.groups[qid] = group
        self._fold_index[signature] = group
        tenant.admitted_demand += demand
        self.cluster_used += demand
        self._admission_counts["admit"] += 1
        if ledger.enabled:
            ledger.record(
                self.name, KIND_ADMISSION, action, rule, inputs, alts
            )
        self.metrics.events.record(
            self.sim.now, "query_admit", self.name,
            query=qid, tenant=tenant.name, demand=demand,
        )
        deployment.launch(spec.duration)
        return handle

    def _make_coordinator(self, *args, **kwargs) -> ArbitratedCoordinator:
        return ArbitratedCoordinator(*args, arbiter=self.arbiter, **kwargs)

    def _attach_slo_monitor(
        self, deployment: Deployment, qid: str, tenant: str, slo: SLOConfig
    ) -> None:
        """Give a folded member its own burn-rate monitor over the shared
        runtime's engines, ticked from that runtime's coordinator loop."""
        from repro.obs.slo import SLOMonitor

        monitor = SLOMonitor(
            self.metrics.latency,
            query=qid,
            tenant=tenant,
            slo=slo,
            machines=list(deployment.engines),
            site=deployment.coordinator_name,
            ledger=self.metrics.ledger,
            tracer=self.metrics.tracer,
            events=self.metrics.events,
        )
        self.metrics.latency.monitors[qid] = monitor
        deployment.coordinator.slo_monitors.append(monitor)

    # ------------------------------------------------------------------
    # Drain / retirement
    # ------------------------------------------------------------------
    def drain(self, qid: str) -> QueryHandle:
        """Retire one query at runtime.

        A folded member detaches immediately.  The last member of a group
        stops the runtime's control loops and sources; the group finishes
        retiring once its coordinator has no relocation session in flight
        and the simulator has drained its traffic."""
        handle = self.queries[qid]
        if handle.status != "running":
            raise ValueError(f"query {qid!r} is {handle.status}, not running")
        group = self.groups[handle.group]
        group.detach(qid)
        lat = self.metrics.latency
        if lat is not None and qid in lat.monitors:
            # a drained query's promise retires with it: stop ticking and
            # alerting on its behalf (the sketches stay for the report)
            monitor = lat.monitors.pop(qid)
            coordinator = group.deployment.coordinator
            if monitor in coordinator.slo_monitors:
                coordinator.slo_monitors.remove(monitor)
        self.tenants[handle.tenant].admitted_demand -= handle.demand
        self.metrics.events.record(
            self.sim.now, "query_drain", group.gid,
            query=qid, tenant=handle.tenant, remaining=len(group.members),
        )
        if group.members:
            handle.status = "retired"
        else:
            handle.status = "draining"
            group.retiring = True
            self._fold_index.pop(group.signature, None)
            group.deployment.stop_components()
            self._reap()
        return handle

    def _reap(self) -> None:
        """Finish retiring groups whose coordinator reached quiescence."""
        for group in list(self.groups.values()):
            if not group.retiring:
                continue
            session = group.deployment.coordinator.session
            if session is not None and not session.terminal:
                continue
            self.cluster_used -= group.cluster_charge
            group.cluster_charge = 0
            group.retiring = False
            del self.groups[group.gid]
            for handle in self.queries.values():
                if handle.group == group.gid and handle.status == "draining":
                    handle.status = "retired"
            self.metrics.events.record(
                self.sim.now, "group_retire", group.gid,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_for(self, seconds: float, *, sample_interval: float = 5.0) -> None:
        """Advance the shared simulator ``seconds`` of simulated time,
        sampling every runtime's figure series along the way."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        if sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        end = self.sim.now + seconds
        t = self.sim.now
        while t < end:
            t = min(t + sample_interval, end)
            self.sim.run(until=t)
            self._observe()

    def finish(self) -> None:
        """Quiesce everything: stop the cluster GC and every runtime's
        control loops, drain in-flight traffic, flush checkpoint-buffered
        outputs, take the final sample."""
        if self._finished:
            return
        self.cluster_gc.stop()
        for group in self.groups.values():
            group.deployment.stop_components()
        self.sim.run()
        for group in self.groups.values():
            if group.deployment.config.checkpoint_enabled:
                group.deployment.flush_outputs()
        self.sim.run()
        self._observe()
        self._finished = True

    def _observe(self) -> None:
        for gid in sorted(self.groups):
            self.groups[gid].deployment.sample()
        self.max_fold_state_bytes_saved = max(
            self.max_fold_state_bytes_saved, self.fold_state_bytes_saved()
        )
        self._reap()

    # ------------------------------------------------------------------
    # Accounting views
    # ------------------------------------------------------------------
    def tenant_list(self) -> list[Tenant]:
        return [self.tenants[name] for name in sorted(self.tenants)]

    def active_groups(self) -> list[FoldGroup]:
        return [
            self.groups[gid] for gid in sorted(self.groups)
            if self.groups[gid].active
        ]

    def tenant_state_bytes(self, name: str) -> int:
        """Live state attributed to one tenant: a fold group's resident
        bytes are split evenly across its members (shared state is shared
        cost)."""
        total = 0.0
        for group in self.groups.values():
            if not group.members:
                continue
            share = group.state_bytes() / len(group.members)
            for qid in group.members:
                if self.queries[qid].tenant == name:
                    total += share
        return int(total)

    def tenant_report(self) -> list[dict]:
        """JSON-friendly tenant table for run-file meta (the report
        renders it as the Tenants section)."""
        return [
            {
                "name": tenant.name,
                "budget": tenant.memory_budget,
                "admitted": tenant.admitted_demand,
                "state_bytes": self.tenant_state_bytes(tenant.name),
            }
            for tenant in self.tenant_list()
        ]

    def fold_state_bytes_saved(self) -> int:
        """State bytes folding avoids duplicating right now, summed over
        groups (each member beyond the first would otherwise hold its own
        copy of every resident group)."""
        return sum(g.bytes_saved() for g in self.groups.values())

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _deliver(self, message: Message) -> None:
        if message.kind == "ss_done":
            self.cluster_gc.on_ss_done(message)
            return
        raise ValueError(
            f"server cannot handle message kind {message.kind!r}"
        )

    def _publish_metrics(self, registry) -> None:
        registry.gauge(
            "repro_server_cluster_used_bytes",
            help="Nominal demand of admitted, unretired runtimes",
        ).set(self.cluster_used)
        registry.gauge(
            "repro_fold_state_bytes_saved",
            help="State bytes join folding avoids duplicating",
        ).set(self.fold_state_bytes_saved())
        for verdict in sorted(self._admission_counts):
            registry.counter(
                "repro_admissions_total",
                help="Admission verdicts by kind",
                labels={"verdict": verdict},
            ).set_total(self._admission_counts[verdict])
        for tenant in self.tenant_list():
            labels = {"tenant": tenant.name}
            registry.gauge(
                "repro_tenant_budget_bytes",
                help="Configured tenant memory budget",
                labels=labels,
            ).set(tenant.memory_budget)
            registry.gauge(
                "repro_tenant_admitted_bytes",
                help="Nominal demand of the tenant's running queries",
                labels=labels,
            ).set(tenant.admitted_demand)
            registry.gauge(
                "repro_tenant_state_bytes",
                help="Live state attributed to the tenant (fold shares "
                "split evenly)",
                labels=labels,
            ).set(self.tenant_state_bytes(tenant.name))
        self.cluster_gc.publish_metrics(registry)
