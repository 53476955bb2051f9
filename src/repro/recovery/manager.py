"""RecoveryManager: the coordinator's failure detector + recovery driver.

Plugged into the :class:`~repro.core.coordinator.GlobalCoordinator` via
``attach_recovery``; the coordinator forwards unknown protocol messages
here and calls :meth:`tick` from its evaluation loop.  Detection is purely
observational — a worker whose statistics heartbeats stop for
``failure_timeout`` seconds is declared lost — so the detector needs no new
message kinds and inherits the paper's light-weight-statistics scalability
argument.

One recovery session runs at a time, and all other adaptations (relocation,
forced spill) are deferred while it is active; additional failures are
picked up by subsequent ticks.  See :mod:`repro.recovery.protocol` for the
session's protocol steps and the exactly-once argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.recovery.checkpoint import CheckpointStore
from repro.recovery.protocol import (
    AbortTransferRequest,
    OwnedPausedAck,
    PauseOwnedRequest,
    RecoverRouteRequest,
    RecoverySession,
    RerouteAck,
    RestoredAck,
    RestoreRequest,
    TransferAborted,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.hub import ObsHub
    from repro.cluster.network import Message, Network
    from repro.cluster.simulation import Simulator
    from repro.core.config import AdaptationConfig, CostModel
    from repro.core.relocation import StatsReport


class RecoveryManager:
    """Failure detection and crash recovery, GC side."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        metrics: "ObsHub",
        registry: CheckpointStore,
        config: "AdaptationConfig",
        cost: "CostModel",
        workers: list[str],
        split_hosts: list[str],
        *,
        name: str = "gc",
    ) -> None:
        self.sim = sim
        self.network = network
        self.metrics = metrics
        self.registry = registry
        self.config = config
        self.cost = cost
        self.workers = list(workers)
        self.split_hosts = list(split_hosts)
        self.name = name
        #: workers currently considered failed (excluded from adaptations)
        self.dead: set[str] = set()
        #: workers mid-drain (maintained by the coordinator) — alive, but
        #: about to retire, so recovery must not re-home state onto them
        self.draining: set[str] = set()
        self.session: RecoverySession | None = None
        self.history: list[RecoverySession] = []
        self._last_seen: dict[str, float] = {}
        self._incarnations: dict[str, int] = {}
        self._latest: Mapping[str, "StatsReport"] = {}
        self.crashes_detected = 0
        self.recoveries_completed = 0
        self.partitions_recovered = 0
        self.bytes_restored_total = 0
        self.tuples_replayed_total = 0
        self.protocol_ignored = 0

    def publish_metrics(self, registry, labels: dict | None = None) -> None:
        """Pull-collector: recovery-protocol counters.  ``labels`` keeps
        concurrent deployments' counters apart on a shared registry."""
        registry.counter(
            "repro_recovery_crashes_detected_total",
            help="Machine failures declared by the detector",
            labels=labels,
        ).set_total(self.crashes_detected)
        registry.counter(
            "repro_recovery_sessions_total",
            help="Recovery sessions completed",
            labels=labels,
        ).set_total(self.recoveries_completed)
        registry.counter(
            "repro_recovery_partitions_total",
            help="Partitions re-homed by recovery",
            labels=labels,
        ).set_total(self.partitions_recovered)
        registry.counter(
            "repro_recovery_bytes_restored_total",
            help="Snapshot bytes restored",
            labels=labels,
        ).set_total(self.bytes_restored_total)
        registry.counter(
            "repro_recovery_tuples_replayed_total",
            help="Input tuples replayed from the source log",
            labels=labels,
        ).set_total(self.tuples_replayed_total)
        registry.counter(
            "repro_recovery_protocol_ignored_total",
            help="Stale recovery-protocol messages dropped",
            labels=labels,
        ).set_total(self.protocol_ignored)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return self.session is not None and not self.session.terminal

    def note_report(self, machine: str, now: float, incarnation: int = 0) -> None:
        """Called by the coordinator for every statistics heartbeat."""
        self._last_seen[machine] = now
        known = self._incarnations.get(machine, 0)
        if machine in self.dead:
            if self.active and self.session.machine == machine:
                return
            if incarnation > known:
                # the machine restarted after its recovery: rejoin, empty.
                # Only a *strictly newer* incarnation counts — a pre-crash
                # heartbeat delayed in the network still carries the old
                # incarnation and must not resurrect the dead entry (its
                # state was already re-homed; routing to it would drop and
                # duplicate results).
                self.dead.discard(machine)
                self._incarnations[machine] = incarnation
                self.metrics.events.record(
                    now, "rejoin", machine, incarnation=incarnation
                )
            else:
                self.metrics.events.record(
                    now, "stale_heartbeat", machine, incarnation=incarnation
                )
        elif incarnation > known:
            # It crashed and restarted faster than the failure detector's
            # timeout: its state silently vanished and was never recovered.
            # Surfaced loudly — exactly-once does not hold for this run
            # (see DESIGN.md on supported crash/restart timings).
            self._incarnations[machine] = incarnation
            self.metrics.events.record(
                now, "recovery_missed", machine, incarnation=incarnation
            )

    # ------------------------------------------------------------------
    # Membership (elastic clusters)
    # ------------------------------------------------------------------
    def add_worker(self, machine: str, now: float, incarnation: int = 0) -> None:
        """Admit ``machine`` to the monitored set (scale-out / rejoin).

        Seeds ``_last_seen`` so the joiner gets a full ``failure_timeout``
        grace period before its (not yet flowing) heartbeats could declare
        it lost, and records its incarnation so stale heartbeats from a
        previous life stay rejected.
        """
        if machine not in self.workers:
            self.workers.append(machine)
        self.dead.discard(machine)
        self._last_seen[machine] = now
        if incarnation > self._incarnations.get(machine, 0):
            self._incarnations[machine] = incarnation

    def retire_worker(self, machine: str) -> None:
        """Remove ``machine`` from the monitored set (graceful scale-in).

        A drained worker stops heartbeating by design; retiring it first
        is what keeps the silence from being misclassified as a crash.
        Its incarnation record is kept so a later rejoin must present a
        strictly newer one.
        """
        if machine in self.workers:
            self.workers.remove(machine)
        self._last_seen.pop(machine, None)
        self.dead.discard(machine)

    def tick(self, now: float, latest: Mapping[str, "StatsReport"]) -> None:
        """One failure-detector pass (from the coordinator's evaluate)."""
        self._latest = latest
        if self.active:
            return
        for worker in self.workers:
            if worker in self.dead:
                continue
            seen = self._last_seen.setdefault(worker, now)
            if now - seen > self.config.failure_timeout:
                self._declare_lost(worker, now, silent_for=now - seen)
                return  # one recovery at a time

    def _declare_lost(self, machine: str, now: float, *, silent_for: float) -> None:
        self.dead.add(machine)
        self.crashes_detected += 1
        self.metrics.events.record(
            now, "machine_lost", machine, silent_for=silent_for
        )
        session = RecoverySession(machine=machine, started_at=now)
        session.pending_pause_acks = set(self.split_hosts)
        self.session = session
        lat = getattr(self.metrics, "latency", None)
        if lat is not None:
            # One query-level recovering window over every worker: the
            # engine-side restore path records nothing, so a recovery is
            # attributed exactly once.
            lat.recovering_begin(self.workers, now)
        tracer = self.metrics.tracer
        if tracer.enabled:
            session.trace_span = tracer.begin_span(
                "recovery", machine=self.name,
                lost=machine, silent_for=silent_for,
            )
        self._trace_phase(session, "pausing")
        for host in self.split_hosts:
            self._send(
                host,
                "pause_owned",
                PauseOwnedRequest(machine=machine, trace_span=session.trace_span),
            )

    def _trace_phase(self, session: RecoverySession, phase: str, **fields) -> None:
        tracer = self.metrics.tracer
        if tracer.enabled and session.trace_span:
            tracer.event(
                "recovery.phase",
                machine=self.name,
                span=session.trace_span,
                phase=phase,
                **fields,
            )

    def adopt_relocation(
        self, *, sender: str, receiver: str, partition_ids: tuple[int, ...]
    ) -> bool:
        """Fold an aborted relocation's in-flight partitions into the
        active recovery session.

        Called by the coordinator when it aborts a *transferring*
        relocation whose receiver just died.  The moving partitions still
        route to the (live) sender and are already paused at the splits,
        but the sender may have evicted them for the hand-off — the only
        durable copies are then the hand-off checkpoint entries, so
        recovery must re-home them like the dead machine's own
        partitions.  An ``abort_transfer`` is sent to the sender to
        cancel a still-pending pack; its ack gates :meth:`_plan_restore`
        so the planner never reads the registry mid-hand-off.
        """
        session = self.session
        if (
            session is None
            or session.phase != "pausing"
            or session.machine != receiver
        ):
            self.protocol_ignored += 1
            return False
        session.partition_ids = tuple(
            sorted(set(session.partition_ids) | set(partition_ids))
        )
        session.pending_abort_acks.add(sender)
        self._send(
            sender,
            "abort_transfer",
            AbortTransferRequest(
                partition_ids=tuple(partition_ids), receiver=receiver
            ),
        )
        return True

    # ------------------------------------------------------------------
    # Protocol steps (messages forwarded by the coordinator)
    # ------------------------------------------------------------------
    def _on_owned_paused(self, message: "Message") -> None:
        ack: OwnedPausedAck = message.payload
        session = self._session_in_phase("pausing")
        if session is None or ack.machine != session.machine:
            return
        session.pending_pause_acks.discard(ack.host)
        session.partition_ids = tuple(
            sorted(set(session.partition_ids) | set(ack.partition_ids))
        )
        if session.pending_pause_acks or session.pending_abort_acks:
            return
        self._plan_restore(session)

    def _on_transfer_aborted(self, message: "Message") -> None:
        ack: TransferAborted = message.payload
        self.metrics.events.record(
            self.sim.now, "transfer_aborted", ack.machine, cancelled=ack.cancelled
        )
        session = self.session
        if (
            session is None
            or session.phase != "pausing"
            or ack.machine not in session.pending_abort_acks
        ):
            # fire-and-forget abort (receiver died before any transfer was
            # requested): nothing gates on the ack
            return
        session.pending_abort_acks.discard(ack.machine)
        if session.pending_pause_acks or session.pending_abort_acks:
            return
        self._plan_restore(session)

    def _plan_restore(self, session: RecoverySession) -> None:
        survivors = [
            w for w in self.workers if w not in self.dead and w not in self.draining
        ]
        if not survivors:
            # every live worker is mid-drain: better to strand the state on
            # a draining machine (its drain will move it again) than lose it
            survivors = [w for w in self.workers if w not in self.dead]
        session.advance("restoring")
        if not session.partition_ids:
            # the dead machine owned nothing — just finish the bookkeeping
            self._trace_phase(session, "restoring")
            self._reroute(session)
            return
        if not survivors:
            self._trace_phase(session, "restoring", failed="no survivors")
            self.metrics.events.record(
                self.sim.now,
                "recovery_failed",
                session.machine,
                partitions=len(session.partition_ids),
                reason="no survivors",
            )
            self._complete(session)
            return
        # Least-loaded-first placement using the survivors' last reports.
        loads = {
            w: (self._latest[w].state_bytes if w in self._latest else 0)
            for w in survivors
        }
        entries = {
            pid: self.registry.latest(pid) for pid in session.partition_ids
        }
        # A partition whose latest entry is a *live* snapshot owned by a
        # survivor needs neither restore nor replay: that owner's store is
        # already current.  This happens when an aborted relocation's
        # hand-off was cancelled in time (owner = the sender), or when a
        # sender crashed after shipping its state and the receiver's
        # install committed (owner = the receiver).  Restoring a second
        # copy elsewhere — or replaying input the owner already processed
        # but has not yet released — would duplicate results.
        resident = {
            pid: entry.owner
            for pid, entry in entries.items()
            if entry is not None and entry.live and entry.owner in survivors
        }
        session.resident = tuple(sorted(resident))
        restorable = [p for p in session.partition_ids if p not in resident]
        sized = sorted(
            restorable,
            key=lambda pid: -(entries[pid].size_bytes if entries[pid] else 0),
        )
        assignments: dict[int, str] = dict(resident)
        for pid in sized:
            target = min(survivors, key=lambda w: (loads[w], w))
            assignments[pid] = target
            loads[target] += entries[pid].size_bytes if entries[pid] else 0
        session.assignments = tuple(sorted(assignments.items()))
        session.restored_idents = {
            pid: entries[pid].frozen.idents()
            for pid in restorable
            if entries[pid] is not None
        }
        self._trace_phase(
            session,
            "restoring",
            assignments={str(pid): owner for pid, owner in session.assignments},
            resident=session.resident,
        )
        per_target: dict[str, list[int]] = {}
        for pid in restorable:
            per_target.setdefault(assignments[pid], []).append(pid)
        for target, pids in sorted(per_target.items()):
            chosen = [entries[pid] for pid in sorted(pids) if entries[pid]]
            if not chosen:
                continue  # nothing durable: state rebuilds from replay alone
            total = sum(e.size_bytes for e in chosen)
            session.pending_restore_acks.add(target)
            self.network.send(
                self.name,
                target,
                "restore",
                RestoreRequest(
                    machine=session.machine,
                    partition_ids=tuple(sorted(pids)),
                    entries=tuple(chosen),
                    total_bytes=total,
                    trace_span=session.trace_span,
                ),
                total,
            )
        if not session.pending_restore_acks:
            self._reroute(session)

    def _on_restored(self, message: "Message") -> None:
        ack: RestoredAck = message.payload
        session = self._session_in_phase("restoring")
        if session is None:
            return
        session.pending_restore_acks.discard(ack.machine)
        session.bytes_restored += ack.total_bytes
        if session.pending_restore_acks:
            return
        self._reroute(session)

    def _reroute(self, session: RecoverySession) -> None:
        session.advance("rerouting")
        self._trace_phase(session, "rerouting")
        if not session.assignments:
            self._complete(session)
            return
        session.pending_route_acks = set(self.split_hosts)
        for host in self.split_hosts:
            self._send(
                host,
                "recover_route",
                RecoverRouteRequest(
                    machine=session.machine,
                    assignments=session.assignments,
                    restored=dict(session.restored_idents),
                    resident=session.resident,
                    trace_span=session.trace_span,
                ),
            )
        # every request carries its own copy: the finished session, kept in
        # ``history`` for the rest of the run, holds no identity
        session.restored_idents = {}

    def _on_rerouted(self, message: "Message") -> None:
        ack: RerouteAck = message.payload
        session = self._session_in_phase("rerouting")
        if session is None:
            return
        session.pending_route_acks.discard(ack.host)
        session.tuples_replayed += ack.tuples_replayed
        if session.pending_route_acks:
            return
        self._complete(session)

    def _complete(self, session: RecoverySession) -> None:
        session.advance("done")
        session.completed_at = self.sim.now
        self.recoveries_completed += 1
        self.partitions_recovered += len(session.partition_ids)
        self.bytes_restored_total += session.bytes_restored
        self.tuples_replayed_total += session.tuples_replayed
        self.metrics.events.record(
            self.sim.now,
            "recovery",
            session.machine,
            duration=session.duration,
            partitions=len(session.partition_ids),
            bytes_restored=session.bytes_restored,
            tuples_replayed=session.tuples_replayed,
            resident=len(session.resident),
            targets=tuple(sorted({owner for _, owner in session.assignments})),
        )
        tracer = self.metrics.tracer
        if tracer.enabled and session.trace_span:
            tracer.end_span(
                session.trace_span,
                status="done",
                partitions=len(session.partition_ids),
                bytes_restored=session.bytes_restored,
                tuples_replayed=session.tuples_replayed,
            )
        lat = getattr(self.metrics, "latency", None)
        if lat is not None:
            lat.recovering_end(self.workers, self.sim.now)
        self.history.append(session)
        self.session = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _session_in_phase(self, phase: str) -> RecoverySession | None:
        if self.session is None or self.session.phase != phase:
            self.protocol_ignored += 1
            return None
        return self.session

    def _send(self, dst: str, kind: str, payload) -> None:
        self.network.send(
            self.name, dst, kind, payload, self.cost.control_message_bytes
        )
