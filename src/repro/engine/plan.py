"""Deployment: wire a partitioned query onto the simulated cluster and run it.

:class:`Deployment` is the top-level object users and benchmarks interact
with.  Given a logical join, a workload specification, a worker list and an
adaptation configuration, it assembles the full distributed system of the
paper (Figure 4): stream sources -> split host -> partitioned join
instances on worker query engines -> output collector, with the global
coordinator supervising, then runs it for a simulated duration while
sampling the series every figure plots, and finally executes the cleanup
phase over whatever state was spilled.

Two parts of the paper's testbed are deliberately not modelled: results
are credited at the producing engine, because no figure depends on what
delivering them costs, and machines have no physical memory cap, because
the adaptations read a memory *threshold*
(:attr:`~repro.core.config.AdaptationConfig.memory_threshold`).

Example
-------
>>> from repro import Deployment, AdaptationConfig, StrategyName
>>> from repro.workloads import WorkloadSpec, three_way_join
>>> dep = Deployment(
...     join=three_way_join(),
...     workload=WorkloadSpec.uniform(n_partitions=24, join_rate=3,
...                                   tuple_range=3000, interarrival=0.01),
...     workers=2,
...     config=AdaptationConfig(strategy=StrategyName.LAZY_DISK,
...                             memory_threshold=200_000),
... )
>>> dep.run(duration=120, sample_interval=10)
>>> dep.collector.total > 0
True
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.cluster.disk import Disk
from repro.cluster.machine import Machine
from repro.cluster.network import Network
from repro.cluster.simulation import Simulator
from repro.obs.hub import ObsHub
from repro.core.cleanup import CleanupExecutor, CleanupReport
from repro.core.config import AdaptationConfig, CostModel
from repro.core.coordinator import GC_NAME, GlobalCoordinator
from repro.core.strategies import trace_strategy
from repro.engine.columns import ColumnarPartitionGroup, FrozenColumnGroup
from repro.engine.operators.base import Operator
from repro.engine.operators.mjoin import MJoin
from repro.engine.operators.split import PartitionMap, Split
from repro.engine.query_engine import QueryEngine, SourceHost
from repro.engine.streams import OutputCollector, StreamSource
from repro.engine.tuples import StreamTuple
from repro.workloads.generator import StreamWorkloadSpec, TupleGenerator, WorkloadSpec

SOURCE_NAME = "source"


class Deployment:
    """A fully wired, runnable instance of the distributed system.

    Parameters
    ----------
    join:
        The logical m-way join.
    workload:
        Shared workload specification for all input streams.
    workers:
        Worker machine names, or an int ``n`` for ``m1..mn``.
    config:
        Adaptation configuration (strategy + tunables).
    cost:
        Simulated-hardware cost model.
    assignment:
        Initial partition placement: ``None`` for round-robin, a
        ``{machine: weight}`` dict for the paper's skewed distributions, or
        an explicit :class:`~repro.engine.operators.split.PartitionMap`.
    batch_size:
        Tuples per source delivery batch (simulation granularity).
    collect_results:
        Materialise and keep join results (correctness/example mode).
    record_inputs:
        Keep every generated input tuple (for reference-join comparisons).
    downstream:
        Operators applied to each materialised result at the collector
        (e.g. Query 1's group-by aggregate); forces materialisation.
    payload_fn:
        Optional payload builder passed to the tuple generators.
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording structured protocol
        traces for this run (``None`` = tracing disabled, zero overhead).
    ledger:
        A :class:`~repro.obs.ledger.DecisionLedger` recording every
        adaptation decision with its rule inputs (``None`` = disabled,
        zero overhead).
    sim / network / metrics:
        Injected substrate for multi-query serving (:mod:`repro.serving`):
        several deployments can share one simulator, network fabric and
        :class:`~repro.obs.hub.ObsHub`.  When omitted the deployment
        builds private ones (the classic standalone mode).  When
        ``metrics`` is injected the ``tracer``/``ledger`` arguments must
        be left unset — the owner of the shared hub configures those.
    namespace:
        Name prefix (e.g. ``"g1:"``) applied to every machine, network
        endpoint, coordinator and sampled series of this deployment so
        that many deployments coexist on one network/registry without
        collisions.  Empty (default) for standalone runs.
    collector:
        Injected output sink (e.g. the serving layer's fan-out collector
        that routes one folded runtime's results to several queries).
        Must honour the :class:`~repro.engine.streams.OutputCollector`
        interface.
    coordinator_factory:
        Callable with the :class:`~repro.core.coordinator.GlobalCoordinator`
        signature used to build the per-deployment coordinator — the
        serving layer passes an arbitrated subclass so concurrent
        relocations across deployments are serialised.
    metric_labels:
        Extra label dimensions (e.g. ``{"tenant": ..., "query": ...}``)
        merged into every metric family this deployment's components
        publish.
    latency:
        Opt into end-to-end latency attribution (:mod:`repro.obs.slo`):
        every engine gets an ``EngineTracker`` recording per-cause latency
        sketches and event-time watermarks.  Off by default — a disabled
        run pays one ``is not None`` test per batch and its outputs,
        traces and run files stay byte-identical.
    slo:
        Optional :class:`~repro.obs.slo.SLOConfig` for this query.
        Requires ``latency=True``; builds an :class:`~repro.obs.slo.SLOMonitor`
        evaluated from the coordinator's own loop, recording replayable
        ``slo_check`` ledger entries and firing ``slo.alert`` events on
        burn-rate breaches.
    """

    def __init__(
        self,
        join: MJoin,
        workload: WorkloadSpec,
        workers: Sequence[str] | int,
        config: AdaptationConfig,
        *,
        cost: CostModel | None = None,
        assignment: dict[str, float] | PartitionMap | None = None,
        batch_size: int = 25,
        collect_results: bool = False,
        record_inputs: bool = False,
        downstream: list[Operator] | None = None,
        payload_fn=None,
        seed: int = 11,
        tracer=None,
        ledger=None,
        sim: Simulator | None = None,
        network: Network | None = None,
        metrics: ObsHub | None = None,
        namespace: str = "",
        collector=None,
        coordinator_factory=None,
        metric_labels: dict[str, str] | None = None,
        latency: bool = False,
        slo=None,
    ) -> None:
        if isinstance(workers, int):
            if workers <= 0:
                raise ValueError("need at least one worker")
            workers = [f"m{i + 1}" for i in range(workers)]
        workers = list(workers)
        if len(set(workers)) != len(workers):
            raise ValueError(f"duplicate worker names {workers!r}")
        reserved = {SOURCE_NAME, GC_NAME}
        clash = reserved & set(workers)
        if clash:
            raise ValueError(f"worker names {sorted(clash)!r} are reserved")
        # Serving mode: everything this deployment registers on the shared
        # network / samples into the shared registry is namespace-prefixed,
        # so concurrent deployments stay fully disjoint.
        self.namespace = namespace
        workers = [namespace + w for w in workers]
        self.source_name = namespace + SOURCE_NAME
        self.coordinator_name = namespace + GC_NAME

        self.join = join
        self.workload = workload
        self.worker_names = workers
        self.config = config
        self.cost = cost or CostModel()
        self.batch_size = batch_size
        self.metric_labels = dict(metric_labels or {})

        if metrics is not None and (tracer is not None or ledger is not None):
            raise ValueError(
                "tracer/ledger must be configured on the injected ObsHub, "
                "not passed alongside it"
            )
        self.sim = sim if sim is not None else Simulator()
        owns_hub = metrics is None
        self.metrics = metrics if metrics is not None else ObsHub()
        if owns_hub:
            self.metrics.registry.bind_clock(lambda: self.sim.now)
            if tracer is not None:
                self.metrics.tracer = tracer
                tracer.bind_clock(lambda: self.sim.now)
                trace_strategy(tracer, config)
            if ledger is not None:
                self.metrics.ledger = ledger
                ledger.bind_clock(lambda: self.sim.now)
        self.network = network if network is not None else Network(
            self.sim,
            latency=self.cost.network_latency,
            bandwidth=self.cost.network_bandwidth,
        )

        # --- machines, disks ------------------------------------------
        self._base_seed = seed
        self.machines: dict[str, Machine] = {}
        self.disks: dict[str, Disk] = {}
        self.instances = {}
        self.engines: dict[str, QueryEngine] = {}
        self.source_machine = Machine(self.sim, self.source_name)

        # --- initial partition placement -------------------------------
        n = workload.n_partitions
        if assignment is None:
            base_map = PartitionMap.round_robin(n, workers)
        elif isinstance(assignment, PartitionMap):
            # an explicit map brings its own partition count
            unknown = set(assignment.machines()) - set(workers)
            if unknown:
                raise ValueError(f"assignment names unknown workers {sorted(unknown)!r}")
            base_map = assignment
            n = base_map.n_partitions
        else:
            # callers name workers without the serving namespace prefix
            assignment = {namespace + w: weight
                          for w, weight in assignment.items()}
            unknown = set(assignment) - set(workers)
            if unknown:
                raise ValueError(f"assignment names unknown workers {sorted(unknown)!r}")
            base_map = PartitionMap.weighted(n, assignment)
        self.initial_map = base_map.copy()
        if self.metrics.tracer.enabled:
            for name in workers:
                self.metrics.tracer.event(
                    "deploy.assignment",
                    machine=name,
                    pids=tuple(sorted(self.initial_map.partitions_of(name))),
                )

        # --- operators ---------------------------------------------------
        self.splits: dict[str, Split] = {
            stream: Split(f"split_{stream}", n, base_map.copy())
            for stream in join.stream_names
        }

        # --- sinks ------------------------------------------------------
        materialize = bool(collect_results or downstream or collector is not None)
        self._materialize = materialize
        if collector is not None:
            self.collector = collector
        else:
            self.collector = OutputCollector(downstream, collect=collect_results)

        # --- what each worker stack attaches to (opt-in) -------------------
        if slo is not None and not latency:
            raise ValueError("an SLO needs latency tracking: pass latency=True")
        self._latency_enabled = latency
        self._lat_labels: dict[str, str] = {}
        if latency:
            self.metrics.enable_latency()
            self._lat_labels = {
                "query": self.metric_labels.get("query") or (
                    namespace.rstrip(":") or "q0"
                ),
                "tenant": self.metric_labels.get("tenant", ""),
            }
        self.registry = None
        if config.checkpoint_enabled:
            from repro.recovery import CheckpointStore

            self.registry = CheckpointStore()

        # --- worker stacks ------------------------------------------------
        for i, name in enumerate(workers):
            self._build_worker(name, i)
        self.source_host = SourceHost(
            self.sim,
            self.network,
            self.source_machine,
            self.splits,
            self.cost,
            self.metrics,
            coordinator_name=self.coordinator_name,
            record_inputs=record_inputs,
            keep_replay_log=config.checkpoint_enabled,
            metric_labels=metric_labels,
        )
        make_coordinator = coordinator_factory or GlobalCoordinator
        self.coordinator = make_coordinator(
            self.sim,
            self.network,
            self.metrics,
            config,
            self.cost,
            workers=workers,
            split_hosts=[self.source_name],
            name=self.coordinator_name,
            n_partitions=n,
        )
        # graceful scale-in: once the coordinator finished relocating a
        # draining machine's state, retire its engine (flush + stop)
        self.coordinator.on_drained = self._on_machine_drained

        # --- SLO burn-rate monitor (repro.obs.slo, opt-in) -----------------
        self.slo = slo
        self.slo_monitor = None
        if slo is not None:
            from repro.obs.slo import SLOMonitor

            lat = self.metrics.latency
            query = self._lat_labels["query"]
            self.slo_monitor = SLOMonitor(
                lat,
                query=query,
                tenant=self._lat_labels["tenant"],
                slo=slo,
                machines=list(self.engines),
                site=self.coordinator_name,
                ledger=self.metrics.ledger,
                tracer=self.metrics.tracer,
                events=self.metrics.events,
            )
            lat.monitors[query] = self.slo_monitor
            self.coordinator.slo_monitors.append(self.slo_monitor)

        # --- crash recovery (repro.recovery, opt-in) -----------------------
        self.recovery = None
        if config.checkpoint_enabled:
            from repro.recovery import RecoveryManager

            self.recovery = RecoveryManager(
                self.sim,
                self.network,
                self.metrics,
                self.registry,
                config,
                self.cost,
                workers=workers,
                split_hosts=[self.source_name],
                name=self.coordinator.name,
            )
            self.coordinator.attach_recovery(self.recovery)

        # --- sources ------------------------------------------------------
        self.sources = [
            StreamSource(
                self.sim,
                TupleGenerator(
                    StreamWorkloadSpec(stream=stream, spec=workload,
                                       payload_fn=payload_fn)
                ),
                self.source_host,
                batch_size=batch_size,
            )
            for stream in join.stream_names
        ]
        self._started = False
        self._finished = False
        self._cleaned = False
        self.run_duration: float | None = None
        self.metrics.registry.register_collector(self._publish_metrics)

    def _publish_metrics(self, registry) -> None:
        """Pull-collector: gather every component's counters on exposition."""
        registry.counter(
            "repro_outputs_total", help="Join results collected",
            labels=self.metric_labels or None,
        ).set_total(self.collector.total)
        self.network.publish_metrics(registry)
        self.coordinator.publish_metrics(registry)
        self.source_host.publish_metrics(registry)
        for engine in self.engines.values():
            engine.publish_metrics(registry)
        if self.registry is not None:
            self.registry.publish_metrics(registry, self.metric_labels or None)
        if self.recovery is not None:
            self.recovery.publish_metrics(registry, self.metric_labels or None)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float, *, sample_interval: float = 30.0,
            drain: bool = True) -> None:
        """Run the query for ``duration`` simulated seconds.

        Sources stop generating at ``duration``; metric series are sampled
        every ``sample_interval``.  With ``drain`` (default) all in-flight
        tuples and protocol sessions are then allowed to finish, so the
        post-run state is quiescent before :meth:`cleanup`.
        """
        if not 0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if not sample_interval > 0:
            raise ValueError("sample_interval must be positive")
        self.launch(duration)
        t = self.sim.now
        end = t + duration
        while t < end:
            t = min(t + sample_interval, end)
            self.sim.run(until=t)
            self.sample()
        # quiesce: stop control loops, drain data and protocol traffic
        self.stop_components()
        if drain:
            self.sim.run()
            if self.config.checkpoint_enabled:
                self.flush_outputs()
            self.sample()  # final quiesced observation (post-drain tail)
        self._finished = True

    # -- serving-layer building blocks ---------------------------------
    # ``run`` is the standalone driver; the multi-query server owns the
    # shared simulator and instead composes these pieces itself.
    def launch(self, duration: float) -> None:
        """Start every component and arm the sources to stop after
        ``duration`` seconds of generated input, without advancing the
        simulator (the caller drives it)."""
        if self._finished:
            raise RuntimeError("deployment already ran; build a fresh one")
        self.run_duration = duration
        # stop_at is in generator-relative time; StreamSource offsets it by
        # its start instant, so mid-run launches behave like t=0 launches.
        for source in self.sources:
            source.stop_at = duration
        if not self._started:
            self._started = True
            for engine in self.engines.values():
                engine.start()
            self.coordinator.start()
            for source in self.sources:
                source.start()
        self.sample()

    def stop_components(self) -> None:
        """Stop the control loops and sources (idempotent).  In-flight
        traffic keeps draining when the simulator next runs."""
        for engine in self.engines.values():
            engine.stop()
        self.coordinator.stop()
        for source in self.sources:
            source.stop()

    def flush_outputs(self) -> None:
        """Release outputs still buffered behind the last checkpoint: a
        clean shutdown is not a crash, so everything produced is safe to
        emit."""
        for engine in self.engines.values():
            engine.flush_outputs()

    def _build_worker(self, name: str, index: int) -> QueryEngine:
        """Wire one worker stack: machine → disk → join instance → engine
        (seeded ``seed + index``) → latency tracker → checkpoint manager.
        The initial workers and :meth:`add_machine` both come through
        here."""
        machine = Machine(self.sim, name)
        disk = Disk(
            write_bandwidth=self.cost.disk_write_bandwidth,
            read_bandwidth=self.cost.disk_read_bandwidth,
            seek_time=self.cost.disk_seek_time,
        )
        instance = self.join.make_instance(machine)
        engine = QueryEngine(
            self.sim,
            self.network,
            machine,
            disk,
            instance,
            self.config,
            self.cost,
            self.metrics,
            self.collector,
            materialize=self._materialize,
            seed=self._base_seed + index,
            coordinator_name=self.coordinator_name,
            metric_labels=self.metric_labels or None,
        )
        self.machines[name] = machine
        self.disks[name] = disk
        self.instances[name] = instance
        self.engines[name] = engine
        if self._latency_enabled:
            engine.attach_latency(
                self.metrics.latency.tracker(name, labels=self._lat_labels)
            )
        if self.registry is not None:
            from repro.recovery import CheckpointManager

            self.registry.disks[name] = disk
            engine.attach_checkpointer(
                CheckpointManager(
                    self.sim,
                    self.network,
                    machine,
                    disk,
                    instance.store,
                    self.registry,
                    self.config,
                    self.cost,
                    self.metrics,
                    source_name=self.source_name,
                    on_flush=engine.flush_outputs,
                )
            )
        return engine

    # ------------------------------------------------------------------
    # Elastic membership (runtime scale-out / scale-in)
    # ------------------------------------------------------------------
    def add_machine(self, name: str) -> QueryEngine:
        """Admit a worker at runtime.

        A brand-new name gets a full machine stack (machine, disk, join
        instance, engine, checkpointer when fault tolerance is on) wired
        exactly like the initial workers; a previously drained name is
        revived under a fresh incarnation, reusing its registered network
        endpoint.  Either way the coordinator admits it into membership
        and — with ``rebalance_on_join`` — lets the next evaluation round
        relocate state onto the (empty) joiner.  Returns the engine.
        """
        if not name.startswith(self.namespace):
            name = self.namespace + name
        if name in self.engines:
            engine = self.engines[name]
            if engine.alive:
                raise ValueError(f"worker {name!r} is already a live member")
            # Rejoin after drain: the network endpoint, disk (possibly
            # holding spilled fragments awaiting cleanup) and empty store
            # are all still in place — revive bumps the incarnation so the
            # failure detector sees a strictly newer lifetime.
            engine.revive()
            if name not in self.worker_names:
                self.worker_names.append(name)
            self.coordinator.admit_worker(name, incarnation=engine.incarnation)
            return engine
        if name in {self.source_name, self.coordinator_name}:
            raise ValueError(f"worker name {name!r} is reserved")
        engine = self._build_worker(name, len(self.engines))
        self.worker_names.append(name)
        for monitor in self.coordinator.slo_monitors:
            monitor.machines = monitor.machines + (name,)
        if self._started:
            engine.start()
        self.coordinator.admit_worker(name, incarnation=engine.incarnation)
        return engine

    def drain_machine(self, name: str):
        """Request a graceful scale-in of ``name``.

        The coordinator relocates every resident partition group away
        (operator-scope cptv + owned-pid sweep + the standard 8-step
        protocol), then retires the machine; :meth:`_on_machine_drained`
        flushes and stops its engine at that point.  Returns the
        coordinator's :class:`~repro.core.coordinator.DrainSession` for
        observation; the drain itself completes asynchronously as the
        simulator advances.
        """
        name = self.namespace + name if not name.startswith(self.namespace) else name
        if name not in self.engines:
            raise ValueError(f"cannot drain unknown worker {name!r}")
        return self.coordinator.drain_worker(name)

    def _on_machine_drained(self, name: str) -> None:
        engine = self.engines.get(name)
        if engine is not None:
            engine.drain()

    def sample(self) -> None:
        now = self.sim.now
        registry = self.metrics.registry
        ns = self.namespace
        registry.sample(now, f"{ns}outputs", self.collector.total)
        for name in self.worker_names:
            store = self.instances[name].store
            registry.sample(now, f"memory:{name}", store.total_bytes)
            registry.sample(now, f"queue:{name}", self.machines[name].queue_depth)
            registry.sample(now, f"disk:{name}", self.disks[name].resident_bytes)

    # ------------------------------------------------------------------
    # Cleanup phase
    # ------------------------------------------------------------------
    def memory_parts(self) -> dict[int, tuple[str, FrozenColumnGroup]]:
        """Final memory-resident group per partition ID (cleanup input)."""
        parts: dict[int, tuple[str, FrozenColumnGroup]] = {}
        for name, instance in self.instances.items():
            for group in instance.store.groups():
                if group.tuple_count > 0:
                    parts[group.pid] = (name, group.freeze())
        return parts

    def cleanup(self, *, materialize: bool = False,
                late: Sequence[StreamTuple] = ()) -> CleanupReport:
        """Run the post-run-time cleanup phase over all spilled state.

        ``late`` holds input tuples that reach the query only after its
        run — a pipeline stage's share of its predecessor's cleanup
        results.  They are routed by the final split into one extra part
        per partition.  Trace events are labelled with the namespace
        (without its colon; ``""`` standalone).  The phase runs once: it
        charges every segment's read, so a second call raises
        ``RuntimeError``.
        """
        if self._cleaned:
            raise RuntimeError("cleanup already ran; build a fresh deployment")
        self._cleaned = True
        streams = self.join.stream_names
        executor = CleanupExecutor(streams, self.cost,
                                   window=self.join.window,
                                   tracer=self.metrics.tracer,
                                   stage=self.namespace.rstrip(":"))
        # Once the run repartitioned, segments spilled under a retired
        # parent pid must be re-bucketed by the final routing table (the
        # splits converge, so any one's route function is authoritative).
        final_split = next(iter(self.splits.values()))
        route = final_split.route if final_split.refinement else None
        late_groups: dict[int, ColumnarPartitionGroup] = {}
        for tup in late:
            pid = final_split.route(tup.key)
            if pid not in late_groups:
                late_groups[pid] = ColumnarPartitionGroup(pid, streams)
            late_groups[pid].insert(tup)
        report = executor.run(
            self.disks, self.memory_parts(), materialize=materialize,
            route=route,
            late={pid: group.freeze() for pid, group in late_groups.items()},
        )
        self.metrics.events.record(
            self.sim.now,
            "cleanup",
            "cluster",
            missing_results=report.missing_results,
            wall_duration=report.wall_duration,
        )
        return report

    # ------------------------------------------------------------------
    # Result access
    # ------------------------------------------------------------------
    @property
    def total_outputs(self) -> int:
        """Join results produced during the run-time phase."""
        return self.collector.total

    @property
    def relocation_count(self) -> int:
        return self.metrics.events.count("relocation")

    @property
    def recovery_count(self) -> int:
        return self.metrics.events.count("recovery")

    @property
    def checkpoint_count(self) -> int:
        return self.metrics.events.count("checkpoint")

    @property
    def spill_count(self) -> int:
        return self.metrics.events.count("spill") + self.metrics.events.count(
            "forced_spill"
        )

    def output_series(self):
        """Cumulative-output time series (the paper's throughput curves)."""
        return self.metrics.registry.timeseries(f"{self.namespace}outputs")

    def memory_series(self, machine: str):
        """One worker's state-volume time series (Figures 6 and 10)."""
        if not machine.startswith(self.namespace):
            machine = self.namespace + machine
        return self.metrics.registry.timeseries(f"memory:{machine}")

    def total_state_bytes(self) -> int:
        return sum(inst.store.total_bytes for inst in self.instances.values())

    def spilled_bytes(self) -> int:
        return sum(d.resident_bytes for d in self.disks.values())
