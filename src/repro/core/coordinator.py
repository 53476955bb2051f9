"""Global coordinator (GC): the cluster-level adaptation agent.

The GC (paper §2, Figure 4) monitors light-weight statistics from every
query engine and makes the *coarse-grained* adaptation decisions:

* **relocation** (all integrated strategies): when the reported state
  volumes satisfy ``M_least / M_max < θ_r`` — and at least ``τ_m`` seconds
  have passed since the previous relocation — move ``(M_max − M_least)/2``
  bytes from the fullest machine (*sender*) to the emptiest (*receiver*);
* **forced spill** (active-disk only, Algorithm 2): when memory is balanced
  but the machines' average productivity rates ``R`` differ by more than
  ``λ``, order the least productive machine to spill, within the cumulative
  cap that guarantees data fitting in cluster memory stays there;
* **split / merge** (:mod:`repro.core.repartition`) and **drain** (elastic
  scale-in) — beyond the paper.

The rules themselves are the pure functions of :mod:`repro.core.policy`;
this class gathers their inputs from the latest reports, records the
decision in the ledger and drives the protocol that carries it out.

Every decision that moves state — relocate, drain, split, merge — runs
through one session slot (:attr:`GlobalCoordinator.session`) and one
bracket: ``_begin_pause`` → ``_on_paused`` → (``transfer``, where the GC
orders the move) → ``_on_installed`` → ``_on_resumed``, with one
``_abort_session`` for a participant dying in any phase.  A kind supplies
only its *select* step (what to pause, ending in ``_begin_pause``), its
labels (:class:`~repro.core.relocation.MotionKind`) and the bookkeeping of
how a session landed (``self._landed``).  Crash recovery
(:mod:`repro.recovery.manager`) keeps its own driver.

The GC never sees per-partition statistics — choosing concrete partition
groups is the sender's local controller's job — which is what keeps it
scalable (paper §4: "the global coordinator only requires to collect very
light-weight running statistics").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.obs.hub import ObsHub
from repro.cluster.network import Message, Network
from repro.cluster.simulation import Simulator, Timer
from repro.core.config import AdaptationConfig, CostModel
from repro.core.policy import (
    decide_gc,
    decide_membership,
    machine_productivity_rate,
    with_choice,
)
from repro.core.repartition import RepartitionAck, RepartitionManager
from repro.recovery.protocol import AbortTransferRequest, PauseOwnedRequest
from repro.core.relocation import (
    STEP_NAMES,
    CptvRequest,
    ForcedSpillDone,
    ForcedSpillRequest,
    InstalledAck,
    MotionSession,
    PartsList,
    PauseAck,
    PauseRequest,
    RemapRequest,
    ResumeAck,
    Session,
    StatsReport,
    TransferRequest,
)

GC_NAME = "gc"

#: Upper bound in seconds on a graceful drain's select phases: a drain
#: that has not started moving state by then is aborted (its groups stay
#: where they are) rather than blocking membership forever behind a
#: receiver that never frees up.
DRAIN_TIMEOUT = 120.0


@dataclass
class CoordinatorStats:
    """Counters summarising the GC's activity over a run."""

    relocations_completed: int = 0
    relocations_aborted: int = 0
    protocol_ignored: int = 0
    forced_spills: int = 0
    forced_spill_bytes: int = 0
    evaluations: int = 0
    joins: int = 0
    drains_completed: int = 0
    drains_aborted: int = 0


#: Drain phases, in protocol order.
DRAIN_PHASES = (
    "queued", "cptv_sent", "collecting", "relocating", "done", "aborted",
)


@dataclass
class DrainSession(Session):
    """GC-side state of one graceful scale-in.

    A drain is a long *select* step in front of the shared state-motion
    bracket: an operator-scope ``cptv`` asks the leaving machine for
    everything its store holds (and parks it in relocation mode, gated
    against concurrent spills), a ``pause_owned`` sweep collects *every*
    partition the routing tables still point at it (including empty
    never-touched ones), and the union then runs the ordinary
    pause/transfer/remap flow to the chosen receiver as a ``drain``
    :class:`~repro.core.relocation.MotionSession`.  Only after its last
    step is the machine retired from the failure detector — so a drain is
    never misclassified as a crash, and a crash mid-drain simply aborts
    the drain and falls back to recovery.
    """

    noun = "drain"
    phases = DRAIN_PHASES

    machine: str
    requested_at: float
    deadline: float
    phase: str = "queued"
    target: str | None = None
    started_at: float | None = None
    store_pids: tuple[int, ...] = ()
    owned_pids: tuple[int, ...] = ()
    pending_collect_acks: set[str] = field(default_factory=set)
    ledger_entry: int = 0
    #: the motion session the collected pid union was handed to
    reloc: MotionSession | None = None
    completed_at: float | None = None


class _Landing(NamedTuple):
    """What the state-motion bracket calls when a session of one kind has
    landed: events row, ledger ``realize``, counters, spacing clocks."""

    done: Callable[[MotionSession], None]
    #: ``(session, phase_reached, outcome)``, the outcome one of
    #: ``remapped_back`` / ``adopted`` / ``left_paused``
    aborted: Callable[[MotionSession, str, str], None]


class GlobalCoordinator:
    """The coordinator process.

    Parameters
    ----------
    sim / network / metrics:
        Shared substrate objects.
    config:
        Adaptation tunables (strategy, θ_r, τ_m, λ, caps, timers).
    workers:
        Names of the query-engine machines under management.
    split_hosts:
        Names of the machines hosting split operators (targets of the
        pause/remap protocol steps).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        metrics: ObsHub,
        config: AdaptationConfig,
        cost: CostModel,
        workers: list[str],
        split_hosts: list[str],
        *,
        name: str = GC_NAME,
        n_partitions: int = 0,
    ) -> None:
        if len(set(workers)) != len(workers):
            raise ValueError(f"duplicate worker names {workers!r}")
        if config.repartition_enabled and n_partitions <= 0:
            raise ValueError(
                "repartition_enabled requires the coordinator to know "
                "n_partitions (the routing modulus child pids start from)"
            )
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.config = config
        self.cost = cost
        self.workers = list(workers)
        self.split_hosts = list(split_hosts)
        self.name = name
        self.latest: dict[str, StatsReport] = {}
        #: the one state motion in flight (relocate, drain, split or merge)
        self.session: MotionSession | None = None
        self.last_relocation_time = -float("inf")
        self.stats = CoordinatorStats()
        self._timer: Timer | None = None
        #: graceful scale-ins in flight or queued, keyed by machine
        self.draining: dict[str, DrainSession] = {}
        #: machines retired by a completed drain (membership check 10:
        #: routing anything here afterwards is a protocol violation)
        self.drained: set[str] = set()
        self.drain_history: list[DrainSession] = []
        #: optional deployment hooks fired when membership changes land
        self.on_drained = None
        self.on_drain_aborted = None
        #: optional crash-recovery driver (repro.recovery.RecoveryManager)
        self.recovery = None
        #: SLO burn-rate evaluators (repro.obs.slo.SLOMonitor) ticked from
        #: the same deterministic evaluation loop — one per query with an
        #: SLO served by this runtime (folded members each get their own)
        self.slo_monitors: list = []
        #: split/merge policy (inert unless repartition_enabled)
        self.repartition = RepartitionManager(self, n_partitions)
        #: per-kind bookkeeping of how a motion session landed
        repartitioned = _Landing(self.repartition.done, self.repartition.aborted)
        self._landed = {
            "relocate": _Landing(self._relocation_done, self._relocation_aborted),
            "drain": _Landing(self._drain_done, self._drain_aborted),
            "split": repartitioned,
            "merge": repartitioned,
        }
        network.register(name, self.deliver)

    def attach_recovery(self, recovery) -> None:
        """Plug in a :class:`~repro.recovery.RecoveryManager`; the GC then
        runs its failure detector each evaluation pass and forwards the
        recovery-protocol acks to it."""
        self.recovery = recovery

    # ------------------------------------------------------------------
    # Elastic membership (join / drain)
    # ------------------------------------------------------------------
    def admit_worker(self, machine: str, *, incarnation: int = 0) -> None:
        """Admit a worker at runtime (scale-out, or rejoin after a drain).

        The joiner starts empty; with ``rebalance_on_join`` the relocation
        spacing clock is reset so the θ_r imbalance rule may target it on
        the first tick that sees its statistics report, instead of waiting
        out the remainder of a τ_m window.
        """
        if machine in self.workers:
            raise ValueError(f"worker {machine!r} is already a member")
        if machine in self.draining:
            raise ValueError(f"worker {machine!r} is mid-drain")
        self.workers.append(machine)
        self.drained.discard(machine)
        self.stats.joins += 1
        if self.recovery is not None:
            self.recovery.add_worker(machine, self.sim.now, incarnation)
        rebalance = self.config.rebalance_on_join
        if rebalance:
            self.last_relocation_time = -float("inf")
        self.metrics.events.record(
            self.sim.now, "join", machine, incarnation=incarnation
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "membership.join", machine=self.name,
                worker=machine, incarnation=incarnation,
            )
        ledger = self.metrics.ledger
        if ledger.enabled:
            inputs = {
                "event": "join",
                "machine": machine,
                "now": self.sim.now,
                "incarnation": incarnation,
                "rebalance_on_join": rebalance,
                "workers": list(self.workers),
            }
            action, rule, _, alts = decide_membership(inputs)
            ledger.record(self.name, "membership", action, rule, inputs, alts)

    def drain_worker(self, machine: str) -> DrainSession:
        """Request a graceful scale-in of ``machine``.

        Returns the queued :class:`DrainSession`; the evaluation loop
        starts it once no other adaptation session is in flight.  The
        machine keeps serving (and heartbeating) until the final remap
        lands — only then is it retired.
        """
        if machine not in self.workers:
            raise ValueError(f"cannot drain unknown worker {machine!r}")
        if machine in self.draining:
            raise ValueError(f"worker {machine!r} is already draining")
        if self.recovery is not None and machine in self.recovery.dead:
            raise ValueError(f"cannot drain dead worker {machine!r}")
        session = DrainSession(
            machine=machine,
            requested_at=self.sim.now,
            deadline=self.sim.now + DRAIN_TIMEOUT,
        )
        self.draining[machine] = session
        if self.recovery is not None:
            # recovery must not re-home a crashed peer's state onto a
            # machine that is on its way out
            self.recovery.draining.add(machine)
        self.metrics.events.record(
            self.sim.now, "drain_requested", machine, deadline=session.deadline
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "membership.drain", machine=self.name,
                worker=machine, deadline=session.deadline,
            )
        return session

    def _active_drain(self, *phases: str) -> DrainSession | None:
        """The single non-terminal drain currently in one of ``phases``."""
        for session in self.draining.values():
            if session.phase in phases:
                return session
        return None

    def _start_drain(self, session: DrainSession) -> bool:
        """Choose the drain's receiver and kick off the operator-scope
        ``cptv``; returns False (drain stays queued) when no live receiver
        candidate has reported statistics yet."""
        candidates = [
            self.latest[w]
            for w in self.workers
            if w != session.machine
            and w in self.latest
            and w not in self.draining
            and not (self.recovery is not None and w in self.recovery.dead)
        ]
        inputs = {
            "event": "drain",
            "machine": session.machine,
            "now": self.sim.now,
            "deadline": session.deadline,
            "reports": [
                {
                    "machine": r.machine,
                    "state_bytes": r.state_bytes,
                    "group_count": r.group_count,
                }
                for r in candidates
            ],
        }
        ledger = self.metrics.ledger
        action, rule, choice, alts = decide_membership(inputs, ledger.enabled)
        if action == "none":
            return False
        session.target = choice["receiver"]
        session.started_at = self.sim.now
        if ledger.enabled:
            session.ledger_entry = ledger.record(
                self.name, "membership", action, rule,
                with_choice(inputs, choice), alts,
            )
        session.advance("cptv_sent")
        self._send(
            session.machine,
            "cptv",
            CptvRequest(
                amount=0,
                ledger_entry=session.ledger_entry,
                scope="operator",
            ),
        )
        return True

    def _drain_collect(self, session: DrainSession) -> None:
        """Sweep the routing tables for everything still owned by the
        leaving machine (empty partitions included)."""
        session.advance("collecting")
        session.pending_collect_acks = set(self.split_hosts)
        for host in self.split_hosts:
            self._send(
                host,
                "pause_owned",
                PauseOwnedRequest(machine=session.machine, trace_span=0),
            )

    def _drain_relocate(self, session: DrainSession) -> None:
        """Hand the collected pid union to the shared bracket (markers and
        all), or finish immediately when the machine owns nothing."""
        pids = tuple(sorted(set(session.store_pids) | set(session.owned_pids)))
        if not pids:
            if self.metrics.ledger.enabled:
                self.metrics.ledger.realize(
                    session.ledger_entry,
                    status="done", executed=False, reason="nothing_owned",
                )
            self._finish_drain(session)
            return
        reloc = session.reloc = self.session = MotionSession(
            kind="drain",
            sender=session.machine,
            receiver=session.target,
            split_hosts=tuple(self.split_hosts),
            started_at=self.sim.now,
            ledger_entry=session.ledger_entry,
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            reloc.trace_span = tracer.begin_span(
                "relocation",
                machine=self.name,
                src=session.machine,
                dst=session.target,
                amount=0,
                drain=True,
            )
            if self.metrics.ledger.enabled:
                self.metrics.ledger.annotate(
                    session.ledger_entry, trace_span=reloc.trace_span
                )
        session.advance("relocating")
        # steps 1-2 (operator-scope cptv / ptv) ran before the span could
        # exist — the pid union needed the owned-pid sweep too — so they
        # are recorded here, preserving the checker's step-order contract
        self._trace_step(reloc, 1, sender=session.machine, scope="operator")
        self._trace_step(reloc, 2, sender=session.machine, pids=len(pids))
        self._begin_pause(reloc, pids)

    def _finish_drain(self, session: DrainSession) -> None:
        """The motion landed (or the machine owned nothing): retire it."""
        session.advance("done")
        session.completed_at = self.sim.now
        machine = session.machine
        self.workers.remove(machine)
        self.latest.pop(machine, None)
        self.draining.pop(machine, None)
        self.drained.add(machine)
        self.drain_history.append(session)
        self.stats.drains_completed += 1
        if self.recovery is not None:
            self.recovery.draining.discard(machine)
            self.recovery.retire_worker(machine)
        pids = session.reloc.partition_ids if session.reloc else ()
        self.metrics.events.record(
            self.sim.now,
            "drain",
            machine,
            receiver=session.target,
            partitions=len(pids),
            duration=self.sim.now - session.requested_at,
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            tracer.event(
                "membership.retire", machine=self.name,
                worker=machine, receiver=session.target,
                partitions=len(pids),
            )
        if self.on_drained is not None:
            self.on_drained(machine)

    def _abort_drain(self, session: DrainSession, reason: str) -> None:
        """Cancel a drain (crash of the leaving machine, or timeout).

        ``collecting``-phase pauses are rolled back by remapping the
        collected pids to their current owner — unless the machine died,
        in which case the pids stay paused for recovery's own
        ``pause_owned`` sweep to re-home (flushing them at a dead machine
        would lose tuples).
        """
        machine_dead = (
            self.recovery is not None and session.machine in self.recovery.dead
        )
        phase_reached = session.phase
        if phase_reached == "collecting" and not machine_dead and session.owned_pids:
            for host in self.split_hosts:
                self._send(
                    host,
                    "remap",
                    RemapRequest(
                        partition_ids=session.owned_pids,
                        new_owner=session.machine,
                        trace_span=0,
                    ),
                )
        if phase_reached in ("cptv_sent", "collecting") and not machine_dead:
            # clears a parked operator-scope cptv and leaves relocation mode
            self._send(
                session.machine,
                "abort_transfer",
                AbortTransferRequest(
                    partition_ids=(), receiver=session.target or ""
                ),
            )
        session.advance("aborted")
        session.completed_at = self.sim.now
        self.draining.pop(session.machine, None)
        if self.recovery is not None:
            self.recovery.draining.discard(session.machine)
        self.drain_history.append(session)
        self.stats.drains_aborted += 1
        if self.metrics.ledger.enabled and session.ledger_entry:
            realized = {
                "status": "aborted",
                "reason": reason,
                "phase_reached": phase_reached,
            }
            if session.reloc is None:
                # no relocation span was ever begun, so the entry is exempt
                # from the span<->entry bijection; with a span in the trace
                # the entry must keep claiming it (executed stays truthy)
                realized["executed"] = False
            self.metrics.ledger.realize(session.ledger_entry, **realized)
        self.metrics.events.record(
            self.sim.now,
            "drain_aborted",
            session.machine,
            reason=reason,
            phase_reached=phase_reached,
        )
        if self.on_drain_aborted is not None:
            self.on_drain_aborted(session.machine, reason)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the evaluation timer (``sr_timer``/``lb_timer`` at the GC)."""
        self._timer = Timer(self.sim, self.config.coordinator_interval, self.evaluate)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        handler = getattr(self, f"_on_{message.kind}", None)
        if handler is None and self.recovery is not None:
            handler = getattr(self.recovery, f"_on_{message.kind}", None)
        if handler is None:
            raise ValueError(f"coordinator cannot handle message kind {message.kind!r}")
        handler(message)

    def _on_stats(self, message: Message) -> None:
        report: StatsReport = message.payload
        if report.machine not in self.workers:
            # a drained (retired) machine's last in-flight heartbeat, or a
            # report racing its own retirement: membership says it is gone
            self.stats.protocol_ignored += 1
            return
        self.latest[report.machine] = report
        if self.recovery is not None:
            self.recovery.note_report(
                report.machine, self.sim.now, report.incarnation
            )

    # ------------------------------------------------------------------
    # Periodic evaluation (Algorithms 1-2, "events at GC")
    # ------------------------------------------------------------------
    def evaluate(self) -> None:
        """``process_stats(); calculate_cluster_load(); ...`` — one pass of
        the GC decision loop."""
        self.stats.evaluations += 1
        ledger = self.metrics.ledger
        for monitor in self.slo_monitors:
            monitor.evaluate(self.sim.now)
        if self.recovery is not None:
            self.recovery.tick(self.sim.now, self.latest)
            for machine in self.recovery.dead:
                self.latest.pop(machine, None)
            # A drain racing a crash of the same machine: the crash wins —
            # the drain aborts here (its select phases) or with its motion
            # session below (relocating), and recovery re-homes.
            for drain in list(self.draining.values()):
                if (
                    drain.machine in self.recovery.dead
                    and not drain.terminal
                    and drain.phase != "relocating"
                ):
                    self._abort_drain(drain, "crashed")
            if (
                self.session is not None
                and not self.session.terminal
                and {self.session.sender, self.session.receiver} & self.recovery.dead
            ):
                self._abort_session()
            if self.recovery.active:
                # all other adaptations are deferred while a recovery runs
                if ledger.enabled:
                    self._ledger_deferred("recovery_active")
                return
        for drain in list(self.draining.values()):
            # DRAIN_TIMEOUT guards the select phases; once the motion is
            # in flight it is allowed to land (the machine is provably
            # empty at its last step, so finishing is correct even past
            # the deadline).
            if (
                drain.phase in ("queued", "cptv_sent", "collecting")
                and self.sim.now > drain.deadline
            ):
                self._abort_drain(drain, "timeout")
        if self.session is not None and not self.session.terminal:
            if ledger.enabled:
                self._ledger_deferred(
                    f"{self.session.noun}_in_flight", phase=self.session.phase
                )
            return
        drain = self._active_drain("cptv_sent", "collecting")
        if drain is not None:
            if ledger.enabled:
                self._ledger_deferred("drain_in_flight", phase=drain.phase)
            return
        queued = self._active_drain("queued")
        if queued is not None:
            if not self._start_drain(queued) and ledger.enabled:
                self._ledger_deferred("drain_no_target", machine=queued.machine)
            return
        reports = [self.latest.get(w) for w in self.workers]
        known = [r for r in reports if r is not None]
        if len(known) < 2:
            if ledger.enabled:
                self._ledger_deferred("insufficient_reports", known=len(known))
            return
        inputs = self._gc_inputs(known)
        action, rule, choice, alts = self._decide_gc(inputs, ledger.enabled)
        if action == "relocate":
            self._start_relocation(rule, choice, inputs, alts)
        elif action == "forced_spill":
            self._order_forced_spill(rule, choice, inputs, alts)
        elif self.config.repartition_enabled and self.repartition.maybe_adapt(
            known, alts
        ):
            pass  # the split/merge session recorded its own entry
        elif ledger.enabled:
            ledger.record(self.name, "gc_tick", action, rule, inputs, alts)

    def _ledger_deferred(self, reason: str, **extra) -> None:
        """Record a GC tick on which no rule was even evaluated."""
        inputs = {"deferred": True, "reason": reason, "now": self.sim.now, **extra}
        action, rule, _, alts = decide_gc(inputs)
        self.metrics.ledger.record(
            self.name, "gc_tick", action, rule, inputs, alts
        )

    def _decide_gc(self, inputs: dict, explain: bool):
        """The tick's rule cascade; subclasses may gate a branch (the
        serving layer's relocation arbiter) before the rules run."""
        return decide_gc(inputs, explain)

    def _gc_inputs(self, reports: list[StatsReport]) -> dict:
        """Everything :func:`repro.core.policy.decide_gc` reads — live and
        when :func:`repro.obs.ledger.replay_decision` re-runs the tick
        offline — in the exact report order the coordinator saw."""
        cfg = self.config
        return {
            "now": self.sim.now,
            "last_relocation_time": self.last_relocation_time,
            "reports": [
                {
                    "machine": r.machine,
                    "state_bytes": r.state_bytes,
                    "outputs_delta": r.outputs_delta,
                    "group_count": r.group_count,
                    "rate": machine_productivity_rate(r.outputs_delta, r.group_count),
                }
                for r in reports
            ],
            "theta_r": cfg.theta_r,
            "tau_m": cfg.tau_m,
            "min_relocation_bytes": cfg.min_relocation_bytes,
            "lambda_productivity": cfg.lambda_productivity,
            "memory_threshold": cfg.memory_threshold,
            "relocation_enabled": cfg.relocation_enabled,
            "forced_spill_enabled": cfg.forced_spill_enabled,
            "forced_spill_cap": cfg.forced_spill_cap,
            "forced_spill_bytes_used": self.stats.forced_spill_bytes,
            "forced_spill_fraction": cfg.forced_spill_fraction,
            "forced_spill_pressure_floor": cfg.forced_spill_pressure
            * cfg.memory_threshold,
        }

    def _start_relocation(
        self, rule: str, choice: dict, inputs: dict, alts: list[dict]
    ) -> None:
        self.session = MotionSession(
            kind="relocate",
            sender=choice["sender"],
            receiver=choice["receiver"],
            amount=choice["amount"],
            split_hosts=tuple(self.split_hosts),
            started_at=self.sim.now,
        )
        tracer = self.metrics.tracer
        if tracer.enabled:
            self.session.trace_span = tracer.begin_span(
                "relocation",
                machine=self.name,
                src=choice["sender"],
                dst=choice["receiver"],
                amount=choice["amount"],
            )
        ledger = self.metrics.ledger
        if ledger.enabled:
            self.session.ledger_entry = ledger.record(
                self.name, "gc_tick", "relocate", rule,
                with_choice(inputs, choice), alts,
                trace_span=self.session.trace_span,
            )
        self._trace_step(self.session, 1)
        self._send(
            choice["sender"],
            "cptv",
            CptvRequest(
                amount=choice["amount"], ledger_entry=self.session.ledger_entry
            ),
        )

    def _trace_step(self, session: MotionSession, step: int, **fields) -> None:
        tracer = self.metrics.tracer
        if tracer.enabled and session.trace_span and session.spec.traces_steps:
            tracer.event(
                "relocation.step",
                machine=self.name,
                span=session.trace_span,
                step=step,
                step_name=STEP_NAMES[step],
                **fields,
            )

    def _trace_end(self, session: MotionSession, status: str, **fields) -> None:
        tracer = self.metrics.tracer
        if tracer.enabled and session.trace_span:
            tracer.end_span(session.trace_span, status=status, **fields)

    def _order_forced_spill(
        self, rule: str, choice: dict, inputs: dict, alts: list[dict]
    ) -> None:
        self.stats.forced_spills += 1
        entry = 0
        ledger = self.metrics.ledger
        if ledger.enabled:
            entry = ledger.record(
                self.name, "gc_tick", "forced_spill", rule,
                with_choice(inputs, choice), alts,
            )
        self._send(
            choice["machine"],
            "start_ss",
            ForcedSpillRequest(amount=choice["amount"], ledger_entry=entry),
        )

    # ------------------------------------------------------------------
    # Select steps: each ends by handing its pids to the bracket
    # ------------------------------------------------------------------
    def _on_ptv(self, message: Message) -> None:
        parts: PartsList = message.payload
        drain = self._active_drain("cptv_sent")
        if drain is not None and parts.sender == drain.machine:
            drain.store_pids = parts.partition_ids
            self._drain_collect(drain)
            return
        session = self._session_in_phase("cptv_sent")
        if session is None:
            return
        if not parts.partition_ids:
            self._close(session, "aborted")
            self.stats.relocations_aborted += 1
            self._trace_end(session, "aborted", reason="no_parts")
            if self.metrics.ledger.enabled:
                self.metrics.ledger.realize(
                    session.ledger_entry,
                    status="aborted",
                    reason="no_parts",
                    bytes_moved=0,
                )
            return
        session.state_bytes = parts.total_bytes
        self._trace_step(
            session, 2, pids=parts.partition_ids, bytes=parts.total_bytes
        )
        self._begin_pause(session, parts.partition_ids)

    def _on_repartition_ack(self, message: Message) -> None:
        ack: RepartitionAck = message.payload
        session = self._session_in_phase("ordered")
        if session is None:
            return
        if not ack.accepted:
            self._close(session, "aborted")
            self.repartition.rejected(session, ack.reason or "rejected")
            return
        self._begin_pause(session, session.partition_ids)

    def _on_owned_paused(self, message: Message) -> None:
        """Drain collect acks take this kind when a drain is collecting;
        everything else belongs to the recovery manager's sweep."""
        ack = message.payload
        drain = self._active_drain("collecting")
        if drain is not None and ack.machine == drain.machine:
            drain.pending_collect_acks.discard(ack.host)
            drain.owned_pids = tuple(
                sorted(set(drain.owned_pids) | set(ack.partition_ids))
            )
            if not drain.pending_collect_acks:
                self._drain_relocate(drain)
            return
        if self.recovery is not None:
            self.recovery._on_owned_paused(message)
            return
        self.stats.protocol_ignored += 1

    # ------------------------------------------------------------------
    # The state-motion bracket: pause → marker → install → remap → resume
    # ------------------------------------------------------------------
    def _begin_pause(self, session: MotionSession, pids: tuple[int, ...]) -> None:
        """Buffer ``pids`` at every split host; each drains a marker to the
        sender, so whatever was forwarded before the pause is processed
        before the state moves."""
        session.partition_ids = pids
        session.step()
        session.pending = set(session.split_hosts)
        self._trace_step(session, 3, hosts=session.split_hosts)
        for host in session.split_hosts:
            self._send(
                host,
                "pause",
                PauseRequest(
                    partition_ids=pids,
                    sender=session.sender,
                    trace_span=session.trace_span,
                    event=session.spec.pause_event,
                ),
            )

    def _on_paused(self, message: Message) -> None:
        ack: PauseAck = message.payload
        session = self._session_in_phase("pausing")
        if session is None:
            return
        session.pending.discard(ack.host)
        if session.pending:
            return
        session.paused_at = self.sim.now
        self._trace_step(session, 4)
        session.step()
        self._trace_step(session, 5, receiver=session.receiver)
        if session.spec.orders_transfer:
            self._send(
                session.sender,
                "transfer",
                TransferRequest(
                    partition_ids=session.partition_ids,
                    receiver=session.receiver,
                    marker_hosts=session.split_hosts,
                    trace_span=session.trace_span,
                ),
            )

    def _on_installed(self, message: Message) -> None:
        ack: InstalledAck = message.payload
        session = self._session_in_phase("transferring", "installing")
        if session is None:
            return
        session.state_bytes = ack.total_bytes
        self._trace_step(session, 6, bytes=ack.total_bytes)
        session.step()
        session.pending = set(session.split_hosts)
        self._trace_step(session, 7, new_owner=session.receiver)
        for host in session.split_hosts:
            self._send(
                host,
                "remap",
                RemapRequest(
                    partition_ids=session.partition_ids,
                    new_owner=session.receiver,
                    trace_span=session.trace_span,
                    refinement=session.refinement,
                ),
            )

    def _on_resumed(self, message: Message) -> None:
        ack: ResumeAck = message.payload
        session = self._session_in_phase("remapping")
        if session is None:
            return
        session.pending.discard(ack.host)
        if session.pending:
            return
        self._trace_step(session, 8)
        self._close(session, "done")
        self._landed[session.kind].done(session)

    def _abort_session(self) -> None:
        """Abort the in-flight session because a participant died.

        What happens to the paused partitions depends on how far the
        bracket got and on who died.  With the *sender* alive (so the
        receiver died — never the case for a split or merge, whose owner
        is both):

        * select / pausing — the move is only ordered once every split
          acked the pause, so the state never left the sender: ``remap``
          the paused partitions straight back and send ``abort_transfer``
          so the sender drops its marker/cptv bookkeeping instead of
          idling in relocation mode forever.
        * moving — the sender may already have evicted the groups towards
          the dead receiver; fold them into the active recovery session
          (:meth:`RecoveryManager.adopt_relocation`), which cancels a
          still-pending pack and otherwise restores them from the hand-off
          checkpoint entries.
        * remapping — the partitions already route to the dead receiver,
          so the recovery session's own ``pause_owned`` sweep picks them
          up; remapping them back to the sender would resume tuple flow
          into state the sender no longer holds.

        If the *sender* died, the partitions are left paused in every
        phase: they route to the dead machine, so recovery re-homes and
        resumes them — flushing them here would forward tuples to a dead
        machine and lose them.
        """
        session = self.session
        assert session is not None
        phase_reached = session.phase
        reached = session.phases.index(phase_reached)
        outcome = "left_paused"
        if session.sender not in self.recovery.dead:
            if reached <= 1:
                if session.partition_ids:
                    outcome = "remapped_back"
                    for host in session.split_hosts:
                        self._send(
                            host,
                            "remap",
                            RemapRequest(
                                partition_ids=session.partition_ids,
                                new_owner=session.sender,
                                trace_span=session.trace_span,
                            ),
                        )
                # fire-and-forget: nothing gates on this ack
                self._send(
                    session.sender,
                    "abort_transfer",
                    AbortTransferRequest(
                        partition_ids=session.partition_ids,
                        receiver=session.receiver,
                    ),
                )
            elif reached == 2 and self.recovery.adopt_relocation(
                sender=session.sender,
                receiver=session.receiver,
                partition_ids=session.partition_ids,
            ):
                outcome = "adopted"
        self._close(session, "aborted")
        self._landed[session.kind].aborted(session, phase_reached, outcome)

    def _close(self, session: MotionSession, phase: str) -> None:
        session.advance(phase)
        session.completed_at = self.sim.now
        self.session = None

    # ------------------------------------------------------------------
    # How a relocation or drain landed
    # ------------------------------------------------------------------
    def _relocation_done(self, session: MotionSession) -> None:
        self.last_relocation_time = self.sim.now
        self.stats.relocations_completed += 1
        self.metrics.events.record(
            self.sim.now,
            "relocation",
            session.sender,
            receiver=session.receiver,
            bytes=session.state_bytes,
            partition_ids=session.partition_ids,
            duration=session.duration,
        )
        self._trace_end(session, "done", bytes=session.state_bytes)
        if self.metrics.ledger.enabled:
            self.metrics.ledger.realize(
                session.ledger_entry,
                status="done",
                bytes_moved=session.state_bytes,
                duration=session.duration,
                pause_duration=self.sim.now - session.paused_at,
            )

    def _relocation_aborted(
        self, session: MotionSession, phase_reached: str, outcome: str
    ) -> None:
        adopted = outcome == "adopted"
        self.stats.relocations_aborted += 1
        self.metrics.events.record(
            self.sim.now,
            "relocation_aborted",
            session.sender,
            receiver=session.receiver,
            phase_reached=phase_reached,
            partition_ids=session.partition_ids,
            adopted=adopted,
        )
        self._trace_end(
            session,
            "aborted",
            phase_reached=phase_reached,
            adopted=adopted,
            # splits stay paused for the recovery session to resume: the
            # pause/flush invariant is discharged there, not here
            pause_handoff=(
                phase_reached in ("pausing", "transferring")
                and outcome != "remapped_back"
            ),
        )
        if self.metrics.ledger.enabled:
            self.metrics.ledger.realize(
                session.ledger_entry,
                status="aborted",
                reason="participant_died",
                phase_reached=phase_reached,
                adopted=adopted,
            )

    def _drain_done(self, session: MotionSession) -> None:
        self._relocation_done(session)
        self._finish_drain(self.draining[session.sender])

    def _drain_aborted(
        self, session: MotionSession, phase_reached: str, outcome: str
    ) -> None:
        self._relocation_aborted(session, phase_reached, outcome)
        self._abort_drain(self.draining[session.sender], "participant_died")

    def _on_ss_done(self, message: Message) -> None:
        done: ForcedSpillDone = message.payload
        self.stats.forced_spill_bytes += done.bytes_spilled

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        """Pull-collector: copy the GC's counters into the registry.

        Labelled by coordinator name so pipelines (one GC per stage) can
        publish into one registry without colliding.
        """
        gc = {"coordinator": self.name}
        registry.counter(
            "repro_gc_evaluations_total",
            help="GC decision-loop passes",
            labels=gc,
        ).set_total(self.stats.evaluations)
        registry.counter(
            "repro_gc_relocations_total",
            help="Relocation sessions by final status",
            labels={**gc, "status": "completed"},
        ).set_total(self.stats.relocations_completed)
        registry.counter(
            "repro_gc_relocations_total",
            labels={**gc, "status": "aborted"},
        ).set_total(self.stats.relocations_aborted)
        registry.counter(
            "repro_gc_forced_spills_total",
            help="Coordinator-forced spill orders sent",
            labels=gc,
        ).set_total(self.stats.forced_spills)
        registry.counter(
            "repro_gc_forced_spill_bytes_total",
            help="Bytes acknowledged spilled under forced-spill orders",
            labels=gc,
        ).set_total(self.stats.forced_spill_bytes)
        registry.counter(
            "repro_gc_protocol_ignored_total",
            help="Stale/unsolicited protocol messages dropped",
            labels=gc,
        ).set_total(self.stats.protocol_ignored)
        registry.counter(
            "repro_gc_joins_total",
            help="Workers admitted at runtime",
            labels=gc,
        ).set_total(self.stats.joins)
        registry.counter(
            "repro_gc_drains_total",
            help="Graceful scale-ins by final status",
            labels={**gc, "status": "completed"},
        ).set_total(self.stats.drains_completed)
        registry.counter(
            "repro_gc_drains_total",
            labels={**gc, "status": "aborted"},
        ).set_total(self.stats.drains_aborted)
        if self.config.repartition_enabled:
            self.repartition.publish_metrics(registry)

    def _session_in_phase(self, *phases: str) -> MotionSession | None:
        """The active session if it is in one of ``phases``, else ``None``.

        A distributed coordinator must tolerate unsolicited or stale
        protocol messages (a QE answering after its session aborted, a
        duplicate ack): they are counted and dropped, never fatal.
        """
        if self.session is None or self.session.phase not in phases:
            self.stats.protocol_ignored += 1
            return None
        return self.session

    def _send(self, dst: str, kind: str, payload) -> None:
        self.network.send(
            self.name, dst, kind, payload, self.cost.control_message_bytes
        )
