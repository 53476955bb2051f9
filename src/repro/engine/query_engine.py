"""Query engines: the per-machine processes of the distributed system.

Two engine roles exist in a deployment (paper §2, Figure 4):

* :class:`QueryEngine` — a worker hosting one instance of the partitioned
  m-way join.  It executes the data path (probe-insert of routed tuples),
  runs the Table-1 control loops (``ss_timer`` memory checks, ``sr_timer``
  statistics reports), owns the :class:`~repro.core.local_controller.
  LocalAdaptationController`, and plays the QE side of the relocation
  protocol and of coordinator-forced spills.  Its execution mode
  (``normal`` / ``ss_mode`` / ``sr_mode``, Table 2) gates concurrent
  adaptations exactly as Algorithms 1-2 prescribe — e.g. a ``cptv``
  arriving during a spill is deferred until the spill finishes.
* :class:`SourceHost` — the machine hosting the split operators (the
  paper's stream-generator-side machine).  It routes arriving tuples to
  the partition owners, and during relocation pauses/remaps/flushes the
  affected partitions on the coordinator's orders.

All cross-machine interaction goes through the network as messages; no
component reads another machine's state directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Container, Iterable, Iterator, Mapping

from repro.cluster.disk import Disk
from repro.cluster.machine import PRIORITY_CONTROL, DynamicTask, Machine
from repro.cluster.network import Message, Network
from repro.obs.hub import ObsHub
from repro.cluster.simulation import Simulator, Timer
from repro.core.config import AdaptationConfig, CostModel
from repro.core.coordinator import GC_NAME
from repro.core.local_controller import LocalAdaptationController
from repro.core.policy import decide_overflow
from repro.core.relocation import (
    CptvRequest,
    ForcedSpillDone,
    ForcedSpillRequest,
    InstalledAck,
    Marker,
    PartsList,
    PauseAck,
    PauseRequest,
    RemapRequest,
    ResumeAck,
    StateTransfer,
    StatsReport,
    TransferRequest,
)
from repro.core.repartition import RepartitionAck, RepartitionOrder
from repro.core.spill import SpillExecutor, SpillOutcome
from repro.engine.operators.mjoin import MJoinInstance
from repro.recovery.protocol import (
    AbortTransferRequest,
    OwnedPausedAck,
    PauseOwnedRequest,
    RecoverRouteRequest,
    RerouteAck,
    RestoredAck,
    RestoreRequest,
    TransferAborted,
    TrimRequest,
    TupleIdent,
)
from repro.engine.operators.split import Split
from repro.engine.streams import OutputCollector
from repro.engine.columns import ArrivalSlice, ColumnBatch, concat_results
from repro.engine.tuples import ArrivalBatch, StreamTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.checkpoint import CheckpointManager

MODE_NORMAL = "normal"
MODE_SS = "ss_mode"
MODE_SR = "sr_mode"

class QueryEngine:
    """Worker engine: join instance + local adaptation controller."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: Machine,
        disk: Disk,
        instance: MJoinInstance,
        config: AdaptationConfig,
        cost: CostModel,
        metrics: ObsHub,
        collector: OutputCollector,
        *,
        coordinator_name: str = GC_NAME,
        materialize: bool = False,
        seed: int = 11,
        metric_labels: dict[str, str] | None = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.machine = machine
        self.disk = disk
        self.instance = instance
        self.config = config
        self.cost = cost
        self.metrics = metrics
        self.collector = collector
        self.coordinator_name = coordinator_name
        self.materialize = materialize
        #: EngineTracker once the run opts into latency/SLO attribution
        #: (see attach_latency); ``None`` keeps the hot path at a single
        #: ``is not None`` test per batch — the zero-overhead contract.
        self._lat = None
        self._mode = MODE_NORMAL
        executor = SpillExecutor(
            machine, disk, instance.store, cost,
            tracer=metrics.tracer, ledger=metrics.ledger,
        )
        self.controller = LocalAdaptationController(
            instance.store, executor, config, seed=seed
        )
        self._pending_cptv: CptvRequest | None = None
        #: the move this engine is to make once every split host's marker
        #: has drained: a transfer to ship, or an accepted split/merge order
        self._pending_motion: TransferRequest | RepartitionOrder | None = None
        #: the transfer whose pack task is submitted; an ``abort_transfer``
        #: clears it, turning a queued-but-not-started pack into a no-op
        self._active_transfer: TransferRequest | None = None
        self._markers_seen: set[str] = set()
        self._outputs_reported = 0
        self._ss_timer: Timer | None = None
        self._stats_timer: Timer | None = None
        # --- crash-fault state (repro.recovery) ------------------------
        self.alive = True
        self.incarnation = 0
        self.crashes = 0
        self.messages_dropped = 0
        #: set via attach_checkpointer when checkpointing is enabled;
        #: its presence switches the engine to output-commit-at-checkpoint
        self.checkpointer: "CheckpointManager | None" = None
        #: credited result batches awaiting the output commit, as handed
        #: over by the store (lists or lazy ``ResultBatch``es, not iterated)
        self._output_buffer: list = []
        self._output_buffer_count = 0
        #: the machine that ordered the in-flight forced spill (a per-query
        #: coordinator or the serving layer's cross-query GC); ``ss_done``
        #: goes back to whoever asked
        self._forced_spill_reply_to: str | None = None
        #: extra label dimensions (e.g. ``tenant`` / ``query`` under
        #: multi-tenant serving) merged into every metric family this
        #: engine publishes
        self.metric_labels = dict(metric_labels or {})
        # Per-batch efficiency histograms (satellite of the columnar PR):
        # created once so the data path pays one method call per batch.
        # Observations use simulated time/durations only — wall clock never
        # leaks in, keeping same-seed run files byte-identical.
        labels = {"machine": machine.name, **self.metric_labels}
        registry = metrics.registry
        self._h_batch_tuples = registry.histogram(
            "repro_batch_tuples",
            help="Tuples per delivered data batch",
            buckets=(1, 2, 5, 10, 25, 50, 100, 250, 1000),
            labels=labels,
        )
        self._h_batch_probe = registry.histogram(
            "repro_batch_probe_seconds",
            help="Simulated probe-insert service time per delivered batch",
            buckets=(1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0),
            labels=labels,
        )
        self._h_batch_results = registry.histogram(
            "repro_batch_results",
            help="Join results produced per delivered batch",
            buckets=(1, 10, 100, 1000, 10000),
            labels=labels,
        )
        #: the data task's begin function, bound once: a queued data
        #: message then holds its payload and nothing else of its own
        self._run_columns = self._process_columns
        network.register(machine.name, self.deliver)

    @property
    def name(self) -> str:
        return self.machine.name

    @property
    def mode(self) -> str:
        return self._mode

    @mode.setter
    def mode(self, new_mode: str) -> None:
        # Every protocol already funnels its pause/resume through this
        # assignment, so the latency tracker's cause windows (spilled /
        # relocating / repartitioning) open and close here for free.
        old = self._mode
        self._mode = new_mode
        if self._lat is not None and new_mode != old:
            self._lat.on_mode(
                new_mode,
                isinstance(self._pending_motion, RepartitionOrder),
                self.sim.now,
            )

    def attach_latency(self, tracker) -> None:
        """Opt this engine into end-to-end latency attribution; ``tracker``
        is this machine's :class:`repro.obs.slo.EngineTracker`."""
        self._lat = tracker

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the Table-1 control loops."""
        if self.config.spill_enabled:
            self._ss_timer = Timer(
                self.sim, self.config.ss_interval, self._ss_timer_expired
            )
        self._stats_timer = Timer(
            self.sim, self.config.stats_interval, self._report_stats
        )
        if self.checkpointer is not None:
            self.checkpointer.start()

    def stop(self) -> None:
        for timer in (self._ss_timer, self._stats_timer):
            if timer is not None:
                timer.stop()
        self._ss_timer = None
        self._stats_timer = None
        if self.checkpointer is not None:
            self.checkpointer.stop()

    def attach_checkpointer(self, checkpointer: "CheckpointManager") -> None:
        """Enable durable commits: outputs are buffered and released only
        when the state that produced them has been checkpointed."""
        self.checkpointer = checkpointer

    # ------------------------------------------------------------------
    # Crash faults (repro.recovery)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: lose in-memory state, in-flight work, and buffered
        outputs; ignore the network until :meth:`restart`."""
        if not self.alive:
            return
        self.alive = False
        self.incarnation += 1
        self.crashes += 1
        self.stop()
        self.machine.crash()
        bytes_lost = self.instance.store.crash_reset()
        outputs_lost = self._output_buffer_count
        self._output_buffer = []
        self._output_buffer_count = 0
        self._pending_cptv = None
        self._pending_motion = None
        self._active_transfer = None
        self._forced_spill_reply_to = None
        self._markers_seen.clear()
        self.mode = MODE_NORMAL
        if self._lat is not None:
            # buffered-result latencies die with the buffer; watermarks
            # reset under the bumped incarnation (invariant check 11's
            # crash-recovery adoption exemption)
            self._lat.on_crash(self.sim.now)
        self.metrics.events.record(
            self.sim.now,
            "crash",
            self.name,
            bytes_lost=bytes_lost,
            outputs_lost=outputs_lost,
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "engine.crash", machine=self.name,
                bytes_lost=bytes_lost, outputs_lost=outputs_lost,
                incarnation=self.incarnation,
            )

    def restart(self) -> None:
        """Rejoin the cluster empty.  Must happen *during* the run (timers
        re-arm) and — for exactly-once — after the coordinator finished
        recovering this machine's partitions (see DESIGN.md)."""
        if self.alive:
            return
        self.alive = True
        if self.checkpointer is not None:
            self.checkpointer.reset()
        self.start()
        self.metrics.events.record(self.sim.now, "restart", self.name)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "engine.restart", machine=self.name, incarnation=self.incarnation
            )

    # ------------------------------------------------------------------
    # Elastic membership (graceful scale-in / rejoin)
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Retire gracefully after the coordinator relocated all state away.

        Unlike :meth:`crash`, buffered outputs are flushed (nothing is
        lost) and the incarnation is *not* bumped — the bump happens on
        :meth:`revive`, so a drained-then-rejoined machine presents a
        strictly greater incarnation to the failure detector.
        """
        if not self.alive:
            return
        self.flush_outputs()
        self.stop()
        self.alive = False
        self.metrics.events.record(self.sim.now, "engine_drained", self.name)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "engine.drained", machine=self.name, incarnation=self.incarnation
            )

    def revive(self) -> None:
        """Rejoin after :meth:`drain`, empty, under a fresh incarnation."""
        if self.alive:
            return
        self.alive = True
        self.incarnation += 1
        if self.checkpointer is not None:
            self.checkpointer.reset()
        self.start()
        self.metrics.events.record(self.sim.now, "engine_revived", self.name)
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "engine.revive", machine=self.name, incarnation=self.incarnation
            )

    # ------------------------------------------------------------------
    # Network dispatch
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        if not self.alive:
            self.messages_dropped += 1
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ValueError(
                f"query engine {self.name!r} cannot handle kind {message.kind!r}"
            )
        handler(self, message)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def _on_column_batch(self, message: Message) -> None:
        self.machine.submit(
            DynamicTask(self._run_columns, message.payload, label="column_batch")
        )

    def _process_columns(self, payload):
        # a slice of an arrival batch (the hot path) builds its columns
        # now, not while it waits; a batch built from rows is its own
        cb = payload.columns()
        total, collected = self.instance.process_columns(
            cb, now=self.sim.now, materialize=self.materialize
        )
        n = len(cb)
        duration = n * self.cost.probe_cost + total * self.cost.result_cost
        self._observe_batch(n, total, duration)
        lat_ctx = None
        if self._lat is not None:
            # Watermark frontier = each stream's *last arrival* in the
            # batch.  Sources emit in event order, so this is the batch
            # max; replayed segments only make it momentarily
            # conservative (max-merge keeps the watermark monotone).
            # Storage order is segmented by partition, so walk *arrival*
            # order backwards through ``perm`` and stop once every stream
            # has been seen — interleaved sources make this O(#streams),
            # not O(batch), which keeps the enabled-mode overhead inside
            # the 5% budget of ``benchmarks/bench_latency_overhead.py``.
            sids, tss, perm = cb.sids, cb.ts, cb.perm
            names = cb.streams
            if sids is None:
                # one stream (the batch says so: every arrival batch is
                # one stream's): the frontier is the arrival-order last row
                row = perm[-1] if perm is not None else -1
                lat_ctx = (
                    self.sim.now,
                    self._lat.advance_one(names[cb.usid], tss[row]),
                )
            else:
                n_present = len(set(sids))
                seen: dict[int, float] = {}
                rows = (
                    range(len(sids) - 1, -1, -1)
                    if perm is None
                    else (perm[i] for i in range(len(perm) - 1, -1, -1))
                )
                for row in rows:
                    sid = sids[row]
                    if sid not in seen:
                        seen[sid] = tss[row]
                        if len(seen) == n_present:
                            break
                wm = {names[sid]: ts for sid, ts in seen.items()}
                lat_ctx = (self.sim.now, self._lat.advance_watermarks(wm))
        return duration, self._finisher(total, collected, lat_ctx)

    def _observe_batch(self, batch_len: int, total: int, duration: float) -> None:
        now = self.sim.now
        self._h_batch_tuples.observe(batch_len, ts=now)
        self._h_batch_probe.observe(duration, ts=now)
        self._h_batch_results.observe(total, ts=now)

    def _finisher(self, total: int, collected: list, lat_ctx=None):
        def finish() -> None:
            lat = self._lat
            if lat is not None and lat_ctx is not None and total:
                # finish() runs at the credit instant; checkpointed
                # engines hold the observation until the output commit
                # (flush_outputs) so e2e covers the buffering delay.
                t_run, ts_rep = lat_ctx
                now = self.sim.now
                res = collected if (lat.hub.materialize and collected) else None
                if self.checkpointer is not None:
                    lat.hold(t_run, now, res, total, ts_rep)
                else:
                    lat.observe(
                        t_run, now, now, results=res, count=total, ts_rep=ts_rep
                    )
            if self.checkpointer is not None:
                # Output-commit-at-checkpoint: results stay buffered until
                # the state that produced them is durable, so a crash can
                # never have released results it cannot regenerate.
                self._output_buffer_count += total
                if collected:
                    self._output_buffer.append(collected)
            else:
                self.collector.add(total, collected, self.sim.now,
                                   source=self.name)

        return finish

    def flush_outputs(self) -> None:
        """Release buffered results downstream (runs at durable commits
        and once at end of run)."""
        total = self._output_buffer_count
        if not total:
            return
        if self._lat is not None:
            self._lat.flush_pending(self.sim.now)
        collected = concat_results(self._output_buffer)
        self._output_buffer = []
        self._output_buffer_count = 0
        self.collector.add(total, collected, self.sim.now, source=self.name)

    # ------------------------------------------------------------------
    # ss_timer: local spill check (Algorithm 1 lines 24-32)
    # ------------------------------------------------------------------
    def _ss_timer_expired(self) -> None:
        inputs = {
            "machine": self.name,
            "state_bytes": self.instance.store.total_bytes,
            "memory_threshold": self.config.memory_threshold,
            "spill_fraction": self.config.spill_fraction,
            "mode": self.mode,
            "forced": False,
            "requested_amount": None,
        }
        ledger = self.metrics.ledger
        action, rule, _, alts = decide_overflow(inputs, ledger.enabled)
        entry = 0
        if ledger.enabled:
            entry = ledger.record(
                self.name, "overflow_check", action, rule, inputs, alts
            )
        if action == "spill":
            self._start_spill(amount=None, forced=False, ledger_entry=entry)

    def _start_spill(
        self, amount: int | None, forced: bool, ledger_entry: int = 0
    ) -> None:
        self.mode = MODE_SS
        outcome = self.controller.run_spill(
            now=self.sim.now, amount=amount, forced=forced,
            on_done=self._spill_done, ledger_entry=ledger_entry,
        )
        if outcome is None:
            if self.metrics.ledger.enabled:
                self.metrics.ledger.realize(
                    ledger_entry, executed=False, reason="no_victims"
                )
            self.mode = MODE_NORMAL
            if forced:
                self._send_ss_done(0)
            self._resume_pending_cptv()

    def _spill_done(self, outcome: SpillOutcome) -> None:
        self.mode = MODE_NORMAL
        self.metrics.events.record(
            self.sim.now,
            "forced_spill" if outcome.forced else "spill",
            self.name,
            bytes=outcome.bytes_spilled,
            partition_ids=outcome.partition_ids,
            duration=outcome.duration,
        )
        if outcome.forced:
            self._send_ss_done(outcome.bytes_spilled)
        if self.checkpointer is not None and outcome.bytes_spilled:
            # The disk segment is now the durable copy of the evicted
            # groups: commit so the registry drops their stale snapshots
            # and the source log is trimmed of the segment's tuples.
            self.checkpointer.commit("spill")
        self._resume_pending_cptv()

    # ------------------------------------------------------------------
    # Coordinator-forced spill (active-disk, Algorithm 2)
    # ------------------------------------------------------------------
    def _on_start_ss(self, message: Message) -> None:
        request: ForcedSpillRequest = message.payload
        # The order may come from this query's coordinator or from the
        # serving layer's cross-query GC: the completion ack goes back to
        # whoever sent the request.
        self._forced_spill_reply_to = message.src
        if self.mode != MODE_NORMAL:
            if self.metrics.ledger.enabled:
                self.metrics.ledger.realize(
                    request.ledger_entry,
                    executed=False,
                    reason="engine_busy",
                    mode=self.mode,
                )
            self._send_ss_done(0)
            return
        self._start_spill(
            amount=request.amount, forced=True, ledger_entry=request.ledger_entry
        )

    def _send_ss_done(self, bytes_spilled: int) -> None:
        target = self._forced_spill_reply_to or self.coordinator_name
        self._forced_spill_reply_to = None
        self.network.send(
            self.name, target, "ss_done",
            ForcedSpillDone(self.name, bytes_spilled),
            self.cost.control_message_bytes,
        )

    # ------------------------------------------------------------------
    # Relocation protocol, sender side
    # ------------------------------------------------------------------
    def _on_cptv(self, message: Message) -> None:
        request: CptvRequest = message.payload
        if self.mode == MODE_SS:
            # Algorithm 1 line 19: wait until the spill completes.
            self._pending_cptv = request
            return
        self._start_cptv(request)

    def _resume_pending_cptv(self) -> None:
        if self._pending_cptv is not None and self.mode == MODE_NORMAL:
            request, self._pending_cptv = self._pending_cptv, None
            self._start_cptv(request)

    def _start_cptv(self, request: CptvRequest) -> None:
        self.mode = MODE_SR
        pids, total = self.controller.compute_parts_to_move(
            request.amount, request.scope
        )
        ledger = self.metrics.ledger
        if ledger.enabled and request.ledger_entry:
            # annotate the GC's decision with the concrete groups the local
            # controller picked, scored by the productivity it ranked on
            store = self.instance.store
            ledger.annotate(
                request.ledger_entry,
                victims=[
                    {
                        "pid": pid,
                        "bytes": store.peek(pid).size_bytes,
                        "score": store.peek(pid).productivity,
                    }
                    for pid in pids
                ],
            )
        if not pids:
            self.mode = MODE_NORMAL
        self._send_gc("ptv", PartsList(self.name, pids, total))

    def _on_marker(self, message: Message) -> None:
        marker: Marker = message.payload
        # The marker drains through the data queue: only once every tuple
        # forwarded before the pause has been processed does it count.
        def begin():
            def finish() -> None:
                self._markers_seen.add(marker.host)
                self._maybe_move()

            return 0.0, finish

        self.machine.submit(DynamicTask(begin, label="marker"))

    def _on_transfer(self, message: Message) -> None:
        self._pending_motion = message.payload
        self._maybe_move()

    def _maybe_move(self) -> None:
        """The marker gate: start the pending move once the marker of every
        split host has drained through the data queue."""
        motion = self._pending_motion
        if motion is None or not set(motion.marker_hosts) <= self._markers_seen:
            return
        self._pending_motion = None
        self._markers_seen.clear()
        if isinstance(motion, TransferRequest):
            self._pack_state(motion)
        else:
            self._execute_repartition(motion)

    def _pack_state(self, transfer: TransferRequest) -> None:
        self._active_transfer = transfer

        def begin():
            if self._active_transfer is not transfer:
                # the transfer was aborted (receiver died) while this pack
                # waited in the queue: leave the state untouched
                return 0.0, (lambda: None)
            frozen = self.instance.store.evict(transfer.partition_ids)
            total = sum(f.size_bytes for f in frozen)
            duration = total * self.cost.serialize_cost_per_byte
            tracer = self.metrics.tracer
            if tracer.enabled and transfer.trace_span:
                tracer.event(
                    "relocation.pack",
                    machine=self.name,
                    span=transfer.trace_span,
                    pids=tuple(f.pid for f in frozen),
                    bytes=total,
                    receiver=transfer.receiver,
                )

            def send_state() -> None:
                self._active_transfer = None
                self.network.send(
                    self.name,
                    transfer.receiver,
                    "state",
                    StateTransfer(
                        partition_ids=tuple(f.pid for f in frozen),
                        groups=tuple(frozen),
                        total_bytes=total,
                        trace_span=transfer.trace_span,
                    ),
                    total,
                )
                self.mode = MODE_NORMAL

            if self.checkpointer is not None and frozen:
                # Hand-off commit: the evicted groups are written durably
                # and this machine's buffered results released *before*
                # the state may leave.  The transfer ships from the
                # commit's tail — otherwise a crash here after the
                # receiver installed (and trimmed the replay log) would
                # strand the pre-eviction results that still sat in our
                # output buffer, with the replayable suffix gone.
                self.checkpointer.commit(
                    "handoff", handoff=frozen, on_committed=send_state
                )
                return duration, (lambda: None)
            return duration, send_state

        # Data priority: queues behind every already-delivered tuple batch,
        # so pre-pause tuples are probed against the state before it leaves.
        self.machine.submit(DynamicTask(begin, label="pack_state"))

    def _on_abort_transfer(self, message: Message) -> None:
        """The receiver of an in-flight relocation died: cancel any
        hand-off that has not evicted yet and leave relocation mode.

        Runs as a control-priority machine task so it serialises with the
        pack: a queued pack is cancelled before it evicts, while a pack
        already in service finishes first — including its hand-off commit,
        which registers the durable entries the recovery planner will
        restore from before the ack below can reach the coordinator.
        """
        request: AbortTransferRequest = message.payload
        del request  # routing only; the abort applies to whatever is pending

        def begin():
            def finish() -> None:
                cancelled = (
                    self._pending_motion is not None
                    or self._active_transfer is not None
                    or bool(self._markers_seen)
                )
                self._pending_motion = None
                self._active_transfer = None
                self._pending_cptv = None
                self._markers_seen.clear()
                if self.mode == MODE_SR:
                    self.mode = MODE_NORMAL
                self._send_gc(
                    "transfer_aborted",
                    TransferAborted(machine=self.name, cancelled=cancelled),
                )

            return 0.0, finish

        self.machine.submit(
            DynamicTask(begin, priority=PRIORITY_CONTROL, label="abort_transfer")
        )

    # ------------------------------------------------------------------
    # Relocation protocol, receiver side
    # ------------------------------------------------------------------
    def _on_state(self, message: Message) -> None:
        transfer: StateTransfer = message.payload

        def begin():
            duration = transfer.total_bytes * self.cost.serialize_cost_per_byte

            def finish() -> None:
                for frozen in transfer.groups:
                    self.instance.store.install(frozen, now=self.sim.now)
                tracer = self.metrics.tracer
                if tracer.enabled and transfer.trace_span:
                    tracer.event(
                        "relocation.install",
                        machine=self.name,
                        span=transfer.trace_span,
                        pids=transfer.partition_ids,
                        bytes=transfer.total_bytes,
                    )
                if self.checkpointer is not None:
                    # Install commit: make the received state durable at its
                    # new home (supersedes the sender's hand-off entries).
                    self.checkpointer.commit("install")
                self._send_gc(
                    "installed",
                    InstalledAck(
                        receiver=self.name,
                        partition_ids=transfer.partition_ids,
                        total_bytes=transfer.total_bytes,
                    ),
                )

            return duration, finish

        self.machine.submit(
            DynamicTask(begin, priority=PRIORITY_CONTROL, label="install_state")
        )

    # ------------------------------------------------------------------
    # Repartition protocol (split/merge), owner side
    # ------------------------------------------------------------------
    def _on_repartition(self, message: Message) -> None:
        """Validate a split/merge order against the live store and mode.

        The GC decides from statistics reports that may be a beat stale: a
        group can have relocated away, or the engine can be mid-spill.
        Rejects are cheap — nothing was paused yet."""
        order: RepartitionOrder = message.payload
        store = self.instance.store
        if self.mode != MODE_NORMAL:
            self._send_gc(
                "repartition_ack",
                RepartitionAck(self.name, False, reason="engine_busy"),
            )
            return
        if any(pid not in store for pid in order.affected_pids):
            self._send_gc(
                "repartition_ack",
                RepartitionAck(self.name, False, reason="stale_target"),
            )
            return
        # pending set before the mode flips so the latency tracker's mode
        # hook classifies the pause as "repartitioning", not "relocating"
        self._pending_motion = order
        self.mode = MODE_SR
        self._markers_seen.clear()
        self._send_gc("repartition_ack", RepartitionAck(self.name, True))

    def _execute_repartition(self, order: RepartitionOrder) -> None:
        def begin():
            store = self.instance.store
            now = self.sim.now
            reason = order.kind
            if reason == "split":
                modulus, depth = order.modulus, order.depth
                new_groups = store.split_group(
                    order.parent,
                    order.children,
                    lambda key: (key // modulus >> depth) & 1,
                    now=now,
                )
            else:
                merged = store.merge_groups(order.children, order.parent, now=now)
                new_groups = (merged,)
            total = sum(f.size_bytes for f in new_groups)
            # the rebuild re-serialises the state once through the
            # evict/install funnel
            duration = total * self.cost.serialize_cost_per_byte
            tracer = self.metrics.tracer
            if tracer.enabled and order.trace_span:
                for f in new_groups:
                    tracer.event(
                        "repartition.install",
                        machine=self.name,
                        span=order.trace_span,
                        pid=f.pid,
                        bytes=f.size_bytes,
                        tuples=f.tuple_count,
                    )

            def committed() -> None:
                if self.checkpointer is not None:
                    # the routing topology flips durably with the commit
                    # that registered the new pids and dropped the old
                    if reason == "split":
                        self.checkpointer.registry.note_split(
                            order.parent, order.children
                        )
                    else:
                        self.checkpointer.registry.note_merge(order.parent)
                self.mode = MODE_NORMAL
                self._send_gc(
                    "installed",
                    InstalledAck(
                        receiver=self.name,
                        partition_ids=tuple(f.pid for f in new_groups),
                        total_bytes=total,
                    ),
                )
                self._resume_pending_cptv()

            if self.checkpointer is not None:
                # Commit before acking: receipt of ``installed`` at the GC
                # then *implies* the registry flip is durable, which is the
                # witness its crash handling relies on.
                self.checkpointer.commit(reason, on_committed=committed)
                return duration, (lambda: None)
            return duration, committed

        # Data priority: queues behind every already-delivered tuple batch,
        # so pre-pause tuples probe the parent before it is rebuilt.
        self.machine.submit(DynamicTask(begin, label="repartition"))

    # ------------------------------------------------------------------
    # Recovery protocol, restore-target side
    # ------------------------------------------------------------------
    def _on_restore(self, message: Message) -> None:
        request: RestoreRequest = message.payload

        def begin():
            duration = 0.0
            for entry in request.entries:
                if self.checkpointer is not None:
                    duration += self.checkpointer.registry.restore_read_duration(
                        entry
                    )
                duration += entry.size_bytes * self.cost.serialize_cost_per_byte

            def finish() -> None:
                for entry in request.entries:
                    self.instance.store.install(entry.frozen, now=self.sim.now)
                tracer = self.metrics.tracer
                if tracer.enabled and request.trace_span:
                    tracer.event(
                        "recovery.restore",
                        machine=self.name,
                        span=request.trace_span,
                        pids=request.partition_ids,
                        installed=tuple(e.pid for e in request.entries),
                        bytes=request.total_bytes,
                    )
                if self.checkpointer is not None:
                    # the restored groups are durable again at their new home
                    self.checkpointer.commit("restore")
                self._send_gc(
                    "restored",
                    RestoredAck(
                        machine=self.name,
                        partition_ids=request.partition_ids,
                        total_bytes=request.total_bytes,
                    ),
                )

            return duration, finish

        self.machine.submit(
            DynamicTask(begin, priority=PRIORITY_CONTROL, label="restore_state")
        )

    # ------------------------------------------------------------------
    # Statistics reporting (sr_timer at the QE)
    # ------------------------------------------------------------------
    def _report_stats(self) -> None:
        store = self.instance.store
        outputs = store.outputs_total
        delta = outputs - self._outputs_reported
        self._outputs_reported = outputs
        max_bytes, max_pid = 0, -1
        small: tuple[tuple[int, int], ...] = ()
        if self.config.repartition_enabled:
            # Still only aggregates: the single largest group (split
            # candidate) and a bounded tail of the smallest (merge
            # candidates) — never the full per-partition detail.
            sizes = sorted(
                (store.peek(pid).size_bytes, pid)
                for pid in store.partition_ids()
            )
            if sizes:
                max_bytes, max_pid = max(sizes, key=lambda x: (x[0], -x[1]))
                small = tuple((pid, size) for size, pid in sizes[:8])
        report = StatsReport(
            machine=self.name,
            state_bytes=store.total_bytes,
            outputs_delta=delta,
            group_count=store.group_count,
            queue_depth=self.machine.queue_depth,
            sent_at=self.sim.now,
            incarnation=self.incarnation,
            max_group_bytes=max_bytes,
            max_group_pid=max_pid,
            small_groups=small,
        )
        self._send_gc("stats", report)
        lat = self._lat
        if lat is not None and lat.watermarks:
            tracer = self.metrics.tracer
            if tracer.enabled:
                tracer.event(
                    "engine.watermark",
                    machine=self.name,
                    watermarks=dict(sorted(lat.watermarks.items())),
                    incarnation=self.incarnation,
                )

    def _send_gc(self, kind: str, payload) -> None:
        self.network.send(
            self.name, self.coordinator_name, kind, payload,
            self.cost.control_message_bytes,
        )

    # ------------------------------------------------------------------
    # Metrics exposition
    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        """Pull-collector: this engine's store, disk, spill and checkpoint
        counters, labeled by machine."""
        labels = {"machine": self.name, **self.metric_labels}
        store = self.instance.store
        registry.gauge(
            "repro_state_bytes", help="Resident join state", labels=labels,
        ).set(store.total_bytes)
        registry.gauge(
            "repro_partition_groups", help="Live partition groups",
            labels=labels,
        ).set(store.group_count)
        registry.counter(
            "repro_outputs_produced_total", help="Join results produced",
            labels=labels,
        ).set_total(store.outputs_total)
        registry.counter(
            "repro_tuples_processed_total", help="Input tuples probe-inserted",
            labels=labels,
        ).set_total(store.tuples_processed)
        registry.counter(
            "repro_engine_crashes_total", help="Fail-stop crashes",
            labels=labels,
        ).set_total(self.crashes)
        registry.counter(
            "repro_engine_messages_dropped_total",
            help="Messages dropped while crashed", labels=labels,
        ).set_total(self.messages_dropped)
        executor = self.controller.executor
        registry.counter(
            "repro_spills_total", help="Spills executed", labels=labels,
        ).set_total(executor.spill_count)
        registry.counter(
            "repro_spilled_bytes_total", help="Bytes spilled to disk",
            labels=labels,
        ).set_total(executor.total_spilled_bytes)
        registry.gauge(
            "repro_disk_resident_bytes", help="Spilled state parked on disk",
            labels=labels,
        ).set(self.disk.resident_bytes)
        registry.counter(
            "repro_disk_bytes_written_total", labels=labels,
        ).set_total(self.disk.stats.bytes_written)
        registry.counter(
            "repro_disk_bytes_read_total", labels=labels,
        ).set_total(self.disk.stats.bytes_read)
        if self.checkpointer is not None:
            registry.counter(
                "repro_checkpoints_total", help="Checkpoint commits",
                labels=labels,
            ).set_total(self.checkpointer.checkpoints)
            registry.counter(
                "repro_checkpoint_bytes_total",
                help="Bytes written by checkpoint commits", labels=labels,
            ).set_total(self.checkpointer.bytes_checkpointed)

    #: wire kind -> ``_on_<kind>`` function; :meth:`deliver` looks handlers
    #: up here instead of building a method name per message
    _handlers = {name[len("_on_"):]: handler
                 for name, handler in list(vars().items())
                 if name.startswith("_on_")}


class ReplayLog:
    """Upstream backup (repro.recovery): the forwarded input not yet covered
    by durable state, filed per partition ID in forwarding order.

    The class owns the entry format.  The column route files one
    ``(ArrivalBatch, rows)`` reference per routed group — no row object;
    the cold paths file the ``StreamTuple`` rows they already hold.
    Identities are read off either form; rows are boxed only where they
    have to travel as rows again: a recovery's replay, a split's
    re-bucketing, a merge's sort.
    """

    def __init__(self) -> None:
        self._entries: dict[int, list] = {}

    def record_columns(self, pid: int, batch: ArrivalBatch, rows: list[int]
                       ) -> None:
        """File rows ``rows`` of ``batch`` under ``pid`` (both kept by
        reference, neither ever edited: the same ``rows`` list travels in
        the data message's :class:`~repro.engine.columns.ArrivalSlice`, so
        a trim files a new list instead)."""
        self._entries.setdefault(pid, []).append((batch, rows))

    def record_row(self, pid: int, tup: StreamTuple) -> None:
        self._entries.setdefault(pid, []).append(tup)

    def idents(self, pid: int) -> Iterator[TupleIdent]:
        """``(stream, seq)`` of every row filed under ``pid``, in order."""
        for entry in self._entries.get(pid, ()):
            if type(entry) is tuple:
                batch, rows = entry
                stream = batch.stream
                seq0 = batch.seq0
                for r in rows:
                    yield stream, seq0 + r
            else:
                yield entry.ident

    def rows(self, pid: int, exclude: Container[TupleIdent] = ()
             ) -> list[StreamTuple]:
        """The rows filed under ``pid`` as tuples, in order, minus those
        whose identity is in ``exclude``."""
        out: list[StreamTuple] = []
        for entry in self._entries.get(pid, ()):
            if type(entry) is tuple:
                batch, rows = entry
                stream = batch.stream
                seq0 = batch.seq0
                out.extend(
                    batch.row(r) for r in rows
                    if (stream, seq0 + r) not in exclude
                )
            elif entry.ident not in exclude:
                out.append(entry)
        return out

    def items(self) -> list[tuple[int, list[StreamTuple]]]:
        """The whole log boxed: ``(pid, rows)`` in filing order."""
        return [(pid, self.rows(pid)) for pid in self._entries]

    def trim(self, covered: Mapping[int, Container[TupleIdent]]) -> int:
        """Drop the rows whose identity is covered; returns how many.

        A covered set is applied to the log of its pid — or, when nothing
        is filed under that pid, to the rows wherever they are filed now:
        the owner of a split or merge trims the *new* pids in the commit
        that precedes the remap re-bucketing this log, and every trim has
        to take effect on arrival because none is ever repeated.
        """
        dropped = 0
        for pid, idents in covered.items():
            if not idents:
                continue
            for filed in (pid,) if pid in self._entries else list(self._entries):
                dropped += self._trim_pid(filed, idents)
        return dropped

    def _trim_pid(self, pid: int, covered: Container[TupleIdent]) -> int:
        kept: list = []
        dropped = 0
        for entry in self._entries[pid]:
            if type(entry) is tuple:
                batch, rows = entry
                stream = batch.stream
                seq0 = batch.seq0
                # a new list, never an edit: ``rows`` may still be the
                # payload of a data message waiting at its owner
                left = [r for r in rows if (stream, seq0 + r) not in covered]
                if len(left) != len(rows):
                    dropped += len(rows) - len(left)
                    if not left:
                        continue
                    entry = (batch, left)
            elif entry.ident in covered:
                dropped += 1
                continue
            kept.append(entry)
        if kept:
            self._entries[pid] = kept
        else:
            del self._entries[pid]
        return dropped

    def split(self, parent: int, route) -> None:
        """Re-file ``parent``'s rows under ``route(key)`` (arrival order
        preserved per child)."""
        rows = self.rows(parent)
        self._entries.pop(parent, None)
        for tup in rows:
            self.record_row(route(tup.key), tup)

    def merge(self, children: Iterable[int], parent: int) -> None:
        """Re-file the children's rows under ``parent``, interleaved by
        ``(ts, stream, seq)`` — the order the buffer flush uses."""
        merged: list[StreamTuple] = []
        for child in children:
            merged.extend(self.rows(child))
            self._entries.pop(child, None)
        if merged:
            merged.sort(key=lambda t: (t.ts, t.stream, t.seq))
            self._entries.setdefault(parent, []).extend(merged)


class SourceHost:
    """The machine hosting the split operators of every input stream.

    Receives raw tuples from the stream sources, routes them through the
    splits (buffering partitions under relocation), and forwards batches to
    the owning workers.  Handles the coordinator's ``pause``/``remap``
    protocol steps on behalf of all its splits.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        machine: Machine,
        splits: dict[str, Split],
        cost: CostModel,
        metrics: ObsHub,
        *,
        coordinator_name: str = GC_NAME,
        record_inputs: bool = False,
        keep_replay_log: bool = False,
        metric_labels: dict[str, str] | None = None,
    ) -> None:
        if not splits:
            raise ValueError("source host needs at least one split")
        self.sim = sim
        self.network = network
        self.machine = machine
        self.splits = splits
        self.cost = cost
        self.metrics = metrics
        self.metric_labels = dict(metric_labels or {})
        self.coordinator_name = coordinator_name
        self.record_inputs = record_inputs
        #: join input order — the stream-index space of column batches
        self._stream_order = tuple(splits)
        self.inputs: list[StreamTuple] = []
        self.tuples_routed = 0
        #: upstream backup (repro.recovery): per-partition log of forwarded
        #: tuples, trimmed as workers report durable coverage — at any
        #: instant it holds exactly the input suffix a recovery must replay
        self.keep_replay_log = keep_replay_log
        self._replay_log = ReplayLog()
        self.replayed_total = 0
        self.trimmed_total = 0
        network.register(machine.name, self.deliver)

    @property
    def name(self) -> str:
        return self.machine.name

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def inject(self, stream: str, batch) -> None:
        """Entry point for the stream sources (local call on this machine).

        ``batch`` is a sized iterable of tuples — a stream source's
        :class:`~repro.engine.tuples.ArrivalBatch` or a plain list.  An
        arrival batch is routed and segmented as columns (no
        ``StreamTuple`` is built for a row unless it is buffered, logged
        for replay or recorded); a list (an upstream pipeline stage's
        results) is routed row by row.  Either way the owners receive
        :class:`~repro.engine.columns.ColumnBatch` messages, and simulated
        cost and messages are the same.
        """
        split = self.splits[stream]
        columns = isinstance(batch, ArrivalBatch)

        def begin():
            if self.record_inputs:
                self.inputs.extend(batch)
            self.tuples_routed += len(batch)
            if columns:
                groups = split.process_columns(batch)

                def finish() -> None:
                    self._forward_columns(batch, groups)

            else:
                routed = [(owner, pid, t) for tup in batch
                          for pid, owner, t in split.process(tup)]

                def finish() -> None:
                    self._forward(routed)

            return len(batch) * self.cost.route_cost, finish

        self.machine.submit(DynamicTask(begin, label=f"split:{stream}"))

    def _on_ingest(self, message: Message) -> None:
        """Rows shipped over the network (an upstream pipeline stage's
        results) enter the same path as a stream source's batches."""
        payload = message.payload
        self.inject(payload["stream"], payload["tuples"])

    def _forward_columns(
        self, batch: ArrivalBatch, groups: list[tuple[int, str, list[int]]]
    ) -> None:
        """Forward the routed rows of an arrival batch, one
        :class:`~repro.engine.columns.ArrivalSlice` per owner —
        :meth:`_forward` without the rows, and without a copy: the slice
        and the replay log share the batch and the split's ``rows`` lists,
        and the owner builds the column batch when its task begins.  The
        message is charged the bytes of the rows it stands for."""
        if self.keep_replay_log:
            for pid, __, rows in groups:
                self._replay_log.record_columns(pid, batch, rows)
        streams = self._stream_order
        sid = streams.index(batch.stream)
        by_owner: dict[str, ArrivalSlice] = {}
        for pid, owner, rows in groups:
            payload = by_owner.get(owner)
            if payload is None:
                by_owner[owner] = ArrivalSlice(batch, sid, streams, pid, rows)
            else:
                payload.add(pid, rows)
        size = batch.size
        for owner, payload in by_owner.items():
            self.network.send(self.name, owner, "column_batch", payload,
                              len(payload) * size)

    def _forward(
        self, routed: list[tuple[str, int, StreamTuple]], *, record: bool = True
    ) -> None:
        if self.keep_replay_log and record:
            for __, pid, tup in routed:
                self._replay_log.record_row(pid, tup)
        by_owner: dict[str, list[tuple[int, StreamTuple]]] = {}
        for owner, pid, tup in routed:
            by_owner.setdefault(owner, []).append((pid, tup))
        for owner, batch in by_owner.items():
            cb = ColumnBatch.from_routed(batch, self._stream_order)
            self.network.send(self.name, owner, "column_batch", cb, cb.total_size)

    # ------------------------------------------------------------------
    # State motion: pause / remap (split-host side)
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        handler = getattr(self, f"_on_{message.kind}", None)
        if handler is None:
            raise ValueError(
                f"source host {self.name!r} cannot handle kind {message.kind!r}"
            )
        handler(message)

    def _on_pause(self, message: Message) -> None:
        """Buffer the request's partitions at every split, drain a marker
        to ``request.sender`` and ack the coordinator."""
        request: PauseRequest = message.payload
        for split in self.splits.values():
            split.pause(request.partition_ids)
        tracer = self.metrics.tracer
        if tracer.enabled and request.trace_span:
            tracer.event(
                request.event,
                machine=self.name,
                span=request.trace_span,
                pids=request.partition_ids,
            )
        # Drain marker down the data link to the sender (FIFO behind all
        # previously forwarded batches), then ack the coordinator.
        self.network.send(
            self.name, request.sender, "marker", Marker(host=self.name),
            self.cost.control_message_bytes,
        )
        self._send_gc("paused", PauseAck(host=self.name))

    def _flush(self, released, event: str = "", span: int = 0, **fields) -> None:
        """Forward the buffered rows a routing change released — the
        ``(pid, owner, tuple)`` triples of ``Split.resume`` /
        ``apply_split`` / ``apply_merge`` — tracing ``event`` with their
        count first: the flush half of the relocation remap, the
        repartition remap and the recovery re-route."""
        flushed = [(owner, pid, tup) for pid, owner, tup in released]
        tracer = self.metrics.tracer
        if tracer.enabled and span:
            tracer.event(
                event, machine=self.name, span=span, **fields,
                flushed=len(flushed),
            )
        if flushed:
            self._forward(flushed)

    def _on_remap(self, message: Message) -> None:
        """Route the request's partitions to their new owner and flush.

        A split/merge remap first flips the routing table: the refinement
        entry, the partition-map edit and the buffer re-route happen inside
        one ``apply_split``/``apply_merge`` call — no tuple can observe a
        half-flipped table.  Re-delivery (the GC re-sends after losing an
        ack) is detected via the refinement state and degrades to a bare
        ack."""
        request: RemapRequest = message.payload
        if request.refinement is None:
            self._flush(
                (
                    row
                    for split in self.splits.values()
                    for row in split.resume(request.partition_ids, request.new_owner)
                ),
                "split.flush",
                request.trace_span,
                pids=request.partition_ids,
                new_owner=request.new_owner,
            )
        else:
            self._refine(request, *request.refinement)
        self._send_gc("resumed", ResumeAck(host=self.name))

    def _refine(
        self, request: RemapRequest, kind: str, parent: int,
        children: tuple[int, int],
    ) -> None:
        """Apply a split/merge refinement at every split and flush what it
        released; a refinement already applied is left alone."""
        first = next(iter(self.splits.values()))
        if kind == "split":
            fresh = parent not in first.refinement
        else:
            fresh = first.refinement.get(parent) == children
        if not fresh:
            return
        released: list[tuple[int, str, StreamTuple]] = []
        for split in self.splits.values():
            apply = split.apply_split if kind == "split" else split.apply_merge
            released += apply(parent, children, request.new_owner)
        self._rebucket_replay_log(kind, parent, children)
        tracer = self.metrics.tracer
        if tracer.enabled and request.trace_span:
            tracer.event(
                "repartition.route",
                machine=self.name,
                span=request.trace_span,
                kind=kind,
                parent=parent,
                children=children,
                version=first.routing_version,
            )
            # the request pauses exactly the pids the flip retires
            for pid in request.partition_ids:
                tracer.event(
                    "repartition.retire",
                    machine=self.name,
                    span=request.trace_span,
                    pid=pid,
                )
        self._flush(
            released,
            "repartition.flush",
            request.trace_span,
            pids=children if kind == "split" else (parent,),
        )

    def _rebucket_replay_log(
        self, kind: str, parent: int, children: tuple[int, int]
    ) -> None:
        """Move replay-log entries of retired pids under their successors.

        The log must always be keyed by the *current* routing function:
        recovery replays per-pid suffixes, and a suffix parked under a
        retired pid would never be replayed.  Split re-routes the parent's
        entries through the refined table; merge interleaves the
        children's entries deterministically."""
        if not self.keep_replay_log:
            return
        if kind == "split":
            route = next(iter(self.splits.values())).route
            self._replay_log.split(parent, route)
        else:
            self._replay_log.merge(children, parent)

    # ------------------------------------------------------------------
    # Recovery protocol (split-host side, repro.recovery)
    # ------------------------------------------------------------------
    def _on_trim(self, message: Message) -> None:
        """Drop replay-log entries now covered by a worker's durable state."""
        request: TrimRequest = message.payload
        self.trimmed_total += self._replay_log.trim(request.covered)

    def _on_pause_owned(self, message: Message) -> None:
        """Buffer every partition routed to the (presumed dead) machine."""
        request: PauseOwnedRequest = message.payload
        pids: set[int] = set()
        for split in self.splits.values():
            pids.update(split.partition_map.partitions_of(request.machine))
        for split in self.splits.values():
            split.pause(pids)
        tracer = self.metrics.tracer
        if tracer.enabled and request.trace_span:
            tracer.event(
                "recovery.pause_owned",
                machine=self.name,
                span=request.trace_span,
                lost=request.machine,
                pids=tuple(sorted(pids)),
            )
        self._send_gc(
            "owned_paused",
            OwnedPausedAck(
                host=self.name,
                machine=request.machine,
                partition_ids=tuple(sorted(pids)),
            ),
        )

    def _on_recover_route(self, message: Message) -> None:
        """Remap lost partitions to their new owners, flush the buffered
        tuples, and replay the input suffix not covered by the restored
        snapshots."""
        request: RecoverRouteRequest = message.payload
        # Read the log *before* flushing: buffered tuples enter the log on
        # forward and must not also be treated as replayable history.
        log = self._replay_log
        resident = set(request.resident)
        replay: list[tuple[str, int, StreamTuple]] = []
        tracer = self.metrics.tracer
        trace_on = tracer.enabled and bool(request.trace_span)
        detail: dict[str, dict] = {}
        for pid, owner in request.assignments:
            covered = request.restored.get(pid, frozenset())
            replayed = 0
            if pid not in resident:
                # The owner of a *resident* partition already holds the live
                # group and processed every forwarded tuple — replay would
                # duplicate results.
                rows = log.rows(pid, exclude=covered)
                replay.extend((owner, pid, tup) for tup in rows)
                replayed = len(rows)
            if trace_on:
                suffix = list(log.idents(pid))
                detail[str(pid)] = {
                    "suffix": len(suffix),
                    "covered": sum(1 for ident in suffix if ident in covered),
                    "replayed": replayed,
                    "resident": pid in resident,
                    "owner": owner,
                }
        self._flush(
            row
            for pid, owner in request.assignments
            for split in self.splits.values()
            for row in split.resume([pid], owner)
        )
        if replay:
            # Replayed tuples are already in the log — do not re-record.
            self._forward(replay, record=False)
        if trace_on:
            tracer.event(
                "recovery.replay",
                machine=self.name,
                span=request.trace_span,
                detail=detail,
            )
        self.replayed_total += len(replay)
        self._send_gc(
            "rerouted", RerouteAck(host=self.name, tuples_replayed=len(replay))
        )

    def _send_gc(self, kind: str, payload) -> None:
        self.network.send(
            self.name, self.coordinator_name, kind, payload,
            self.cost.control_message_bytes,
        )

    def publish_metrics(self, registry) -> None:
        """Pull-collector: split-host routing and replay-log counters.

        Labelled by host machine so pipelines (one split host per stage)
        can publish into one registry without colliding.
        """
        labels = {"host": self.machine.name, **self.metric_labels}
        registry.counter(
            "repro_source_tuples_routed_total",
            help="Tuples routed through the splits",
            labels=labels,
        ).set_total(self.tuples_routed)
        registry.counter(
            "repro_source_tuples_replayed_total",
            help="Replay-log tuples re-forwarded during recovery",
            labels=labels,
        ).set_total(self.replayed_total)
        registry.counter(
            "repro_source_replay_log_trimmed_total",
            help="Replay-log tuples dropped as durably covered",
            labels=labels,
        ).set_total(self.trimmed_total)
