"""Runtime partition-group repartitioning: split/merge protocol + policy.

Relocation (``repro.core.relocation``) moves whole partition groups between
machines, but cannot help when a *single* group grows so large that no
machine can absorb it — the paper's partition granularity is fixed at plan
time.  This module adds the missing adaptation: when the coordinator sees a
group dominating its machine's state (skew), it **splits** the hot group
into two child groups by consuming one more bit of the join key's hash
(``key // n_partitions``), and symmetrically **merges** a pair of cold
sibling groups back into their parent.  The existing 8-step relocation
protocol is reused as the state-motion pattern:

1. **GC → owner** ``csplit``/``cmerge`` — order the owner to repartition
   (the GC already knows the concrete group: the owner reported it as its
   ``max_group_pid`` / in its ``small_groups``).  The owner validates the
   order against its live store and mode and acks ``repartition_ack``;
   on accept it enters relocation mode, gating concurrent adaptations.
2. **GC → split hosts** ``rpause`` — buffer arriving tuples of the affected
   groups; each host drains a :class:`~repro.core.relocation.Marker` down
   its data link to the owner and acks ``rpaused``.
3. **owner** — once every marker has drained through its data queue (so
   every pre-pause tuple has probed the state), the owner rebuilds the
   group(s) through the store's evict/install funnel
   (:meth:`~repro.engine.state_store.StateStore.split_group` /
   :meth:`~repro.engine.state_store.StateStore.merge_groups`), commits the
   new groups durably (reason ``"split"``/``"merge"``, which atomically
   retires the old pids from the checkpoint registry), and acks
   ``rinstalled``.
4. **GC → split hosts** ``rremap`` — install the routing refinement and the
   partition-map edit *atomically* (one ``routing_version`` bump), re-route
   the buffered tuples through the new table, and flush them; hosts ack
   ``rresumed`` and the GC stamps ``last_repartition_time`` (``τ_p``
   spacing, the repartition analogue of the paper's ``τ_m``).

Safety: tuples of the affected groups are buffered from step 2 until step
4, so no tuple can observe a half-split state; all other groups flow
throughout.  Exactly-once under crashes needs **no new recovery code**: the
owner's commit and its ``rinstalled`` ack happen in one atomic simulation
step, so the GC's session phase tells it whether the routing flip is
durable — if the owner dies before ``rinstalled`` the routing never flips
and recovery restores the old pids; if it dies after, the ``rremap`` is
already on the wire, the sources flip and log the flushed tuples under the
new pids, and recovery restores the *children* from their committed
snapshots, replaying the uncovered suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.policy import decide_repartition, with_choice

#: A refinement trie deeper than this stops splitting: beyond it a hot
#: group is dominated by duplicate key values, which no hash refinement
#: can separate.
MAX_SPLIT_DEPTH = 16


# ----------------------------------------------------------------------
# Protocol payloads (network message bodies, keyed by Message.kind)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SplitOrder:
    """``csplit``: GC orders the owner to split ``parent`` into
    ``children``.  ``modulus`` and ``depth`` parameterise the chooser the
    owner must apply — ``(key // modulus >> depth) & 1`` — so the store
    split and the sources' routing refinement agree bit-for-bit."""

    parent: int
    children: tuple[int, int]
    depth: int
    modulus: int
    marker_hosts: tuple[str, ...]
    trace_span: int = 0
    ledger_entry: int = 0


@dataclass(frozen=True)
class MergeOrder:
    """``cmerge``: GC orders the owner to fold ``children`` back into
    ``parent``."""

    parent: int
    children: tuple[int, int]
    marker_hosts: tuple[str, ...]
    trace_span: int = 0
    ledger_entry: int = 0


@dataclass(frozen=True)
class RepartitionAck:
    """``repartition_ack``: the owner accepts or rejects the order.  A
    reject (stale target: the group relocated away, or the engine is
    mid-adaptation) aborts the session before any pause is sent."""

    machine: str
    accepted: bool
    reason: str = ""


@dataclass(frozen=True)
class RepartitionPause:
    """``rpause``: buffer tuples of these pids; drain a marker to
    ``sender`` (the owner) on the data link."""

    partition_ids: tuple[int, ...]
    sender: str
    trace_span: int = 0


@dataclass(frozen=True)
class RepartitionPaused:
    """``rpaused``: one split host confirms buffering is active."""

    host: str


@dataclass(frozen=True)
class RepartitionInstalled:
    """``rinstalled``: the owner rebuilt and durably committed the new
    group(s).  Sent from the commit's tail, so receipt implies the
    registry flip (children registered, parent dropped) happened."""

    machine: str
    parent: int
    children: tuple[int, int]
    total_bytes: int


@dataclass(frozen=True)
class RepartitionRemap:
    """``rremap``: flip the routing table (refinement + partition map, one
    atomic version bump) and flush the buffered tuples through it."""

    kind: str  # "split" | "merge"
    parent: int
    children: tuple[int, int]
    owner: str
    trace_span: int = 0


@dataclass(frozen=True)
class RepartitionResumed:
    """``rresumed``: one split host flipped, flushed and resumed."""

    host: str


# ----------------------------------------------------------------------
# Session state machine (lives at the GC)
# ----------------------------------------------------------------------

#: Session phases, in protocol order.
REPARTITION_PHASES = (
    "ordered", "pausing", "installing", "remapping", "done", "aborted",
)


@dataclass
class RepartitionSession:
    """GC-side state of one in-flight split or merge.

    One repartition session exists at a time, serialised against
    relocation and recovery sessions by the coordinator's evaluate loop.
    """

    kind: str  # "split" | "merge"
    owner: str
    parent: int
    children: tuple[int, int]
    depth: int
    split_hosts: tuple[str, ...]
    started_at: float
    phase: str = "ordered"
    state_bytes: int = 0
    pending_pause_acks: set[str] = field(default_factory=set)
    pending_resume_acks: set[str] = field(default_factory=set)
    completed_at: float | None = None
    #: id of this session's "repartition" trace span (0 = tracing disabled)
    trace_span: int = 0
    #: id of the GC's decision-ledger entry (0 = ledger disabled)
    ledger_entry: int = 0
    paused_at: float | None = None

    def advance(self, phase: str) -> None:
        if phase not in REPARTITION_PHASES:
            raise ValueError(f"unknown repartition phase {phase!r}")
        if (
            REPARTITION_PHASES.index(phase) < REPARTITION_PHASES.index(self.phase)
            and phase != "aborted"
        ):
            raise ValueError(f"cannot regress from {self.phase!r} to {phase!r}")
        self.phase = phase

    @property
    def terminal(self) -> bool:
        return self.phase in ("done", "aborted")

    @property
    def duration(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def affected_pids(self) -> tuple[int, ...]:
        """The pids paused at the sources for this session."""
        if self.kind == "split":
            return (self.parent,)
        return tuple(self.children)


class RepartitionManager:
    """GC-side driver of the split/merge protocol.

    Owns the coordinator's view of the refinement trie (which mirrors the
    sources' tables after every completed session), allocates child pids
    monotonically from ``n_partitions`` upward (ids are never reused, so a
    late message for a retired pid can never alias a new group), and runs
    the session state machine.  Plugged into
    :class:`~repro.core.coordinator.GlobalCoordinator`, which forwards
    protocol messages and calls :meth:`maybe_adapt` from its evaluate
    cascade.
    """

    def __init__(self, coordinator, n_partitions: int) -> None:
        self.gc = coordinator
        self.n_partitions = n_partitions
        self._next_pid = n_partitions
        #: GC mirror of the sources' refinement trie: parent -> (c0, c1)
        self.refinement: dict[int, tuple[int, int]] = {}
        #: trie depth per child pid (base pids have depth 0)
        self._depth: dict[int, int] = {}
        self.session: RepartitionSession | None = None
        self.last_repartition_time = -float("inf")
        self.splits_completed = 0
        self.merges_completed = 0
        self.sessions_aborted = 0

    @property
    def active(self) -> bool:
        return self.session is not None and not self.session.terminal

    # ------------------------------------------------------------------
    # Decision (called from the coordinator's evaluate cascade)
    # ------------------------------------------------------------------
    def decision_inputs(self, reports) -> dict:
        """Everything :func:`repro.core.policy.decide_repartition` reads,
        live and when the ledger entry is replayed offline."""
        cfg = self.gc.config
        return {
            "now": self.gc.sim.now,
            "last_repartition_time": self.last_repartition_time,
            "tau_p": cfg.tau_p,
            "split_skew_factor": cfg.split_skew_factor,
            "split_min_bytes": cfg.split_min_bytes,
            "merge_max_bytes": cfg.merge_max_bytes,
            "max_depth": MAX_SPLIT_DEPTH,
            "next_child_pid": self._next_pid,
            "reports": [
                {
                    "machine": r.machine,
                    "state_bytes": r.state_bytes,
                    "group_count": r.group_count,
                    "max_group_bytes": r.max_group_bytes,
                    "max_group_pid": r.max_group_pid,
                    "small_groups": [list(pair) for pair in r.small_groups],
                }
                for r in reports
            ],
            "refinement": [
                [parent, c0, c1]
                for parent, (c0, c1) in sorted(self.refinement.items())
            ],
            "depths": {str(pid): d for pid, d in sorted(self._depth.items())},
        }

    def maybe_adapt(self, reports, alts: list[dict]) -> bool:
        """Evaluate the split/merge rules; start a session if one fires.
        ``alts`` is the GC tick's list of alternatives so far: this
        cascade's own are appended to it."""
        ledger = self.gc.metrics.ledger
        inputs = self.decision_inputs(reports)
        action, rule, choice, considered = decide_repartition(
            inputs, ledger.enabled
        )
        alts.extend(considered)
        if action == "none":
            return False
        owner, parent = choice["machine"], choice["parent"]
        children = (choice["children"][0], choice["children"][1])
        if action == "split":
            depth = self._depth.get(parent, 0)
            self._next_pid += 2
        else:
            depth = self._depth.get(children[0], 1) - 1
        self.session = RepartitionSession(
            kind=action,
            owner=owner,
            parent=parent,
            children=children,
            depth=depth,
            split_hosts=tuple(self.gc.split_hosts),
            started_at=self.gc.sim.now,
        )
        tracer = self.gc.metrics.tracer
        if tracer.enabled:
            # "parent" is begin_span's span-hierarchy kwarg, so the pid
            # travels as parent_pid
            self.session.trace_span = tracer.begin_span(
                "repartition",
                machine=self.gc.name,
                kind=action,
                owner=owner,
                parent_pid=parent,
                children=children,
                depth=depth,
            )
        if ledger.enabled:
            self.session.ledger_entry = ledger.record(
                self.gc.name, "repartition", action, rule,
                with_choice(inputs, choice), alts,
                trace_span=self.session.trace_span,
            )
        if action == "split":
            order = SplitOrder(
                parent=parent,
                children=children,
                depth=depth,
                modulus=self.n_partitions,
                marker_hosts=tuple(self.gc.split_hosts),
                trace_span=self.session.trace_span,
                ledger_entry=self.session.ledger_entry,
            )
            self.gc._send(owner, "csplit", order)
        else:
            order = MergeOrder(
                parent=parent,
                children=children,
                marker_hosts=tuple(self.gc.split_hosts),
                trace_span=self.session.trace_span,
                ledger_entry=self.session.ledger_entry,
            )
            self.gc._send(owner, "cmerge", order)
        return True

    # ------------------------------------------------------------------
    # Protocol steps (messages forwarded by the coordinator)
    # ------------------------------------------------------------------
    def _on_repartition_ack(self, message) -> None:
        ack: RepartitionAck = message.payload
        session = self._session_in_phase("ordered")
        if session is None:
            return
        if not ack.accepted:
            # Stale target: the group moved or the engine is busy.  Nothing
            # was paused yet, so aborting is pure bookkeeping.
            self._finish_aborted(session, reason=ack.reason or "rejected")
            return
        session.advance("pausing")
        session.pending_pause_acks = set(session.split_hosts)
        for host in session.split_hosts:
            self.gc._send(
                host,
                "rpause",
                RepartitionPause(
                    partition_ids=session.affected_pids,
                    sender=session.owner,
                    trace_span=session.trace_span,
                ),
            )

    def _on_rpaused(self, message) -> None:
        ack: RepartitionPaused = message.payload
        session = self._session_in_phase("pausing")
        if session is None:
            return
        session.pending_pause_acks.discard(ack.host)
        if session.pending_pause_acks:
            return
        session.paused_at = self.gc.sim.now
        # Nothing to send: the owner already holds the order and executes
        # once the markers drain through its data queue.
        session.advance("installing")

    def _on_rinstalled(self, message) -> None:
        ack: RepartitionInstalled = message.payload
        session = self._session_in_phase("installing")
        if session is None:
            return
        session.state_bytes = ack.total_bytes
        session.advance("remapping")
        session.pending_resume_acks = set(session.split_hosts)
        for host in session.split_hosts:
            self.gc._send(
                host,
                "rremap",
                RepartitionRemap(
                    kind=session.kind,
                    parent=session.parent,
                    children=session.children,
                    owner=session.owner,
                    trace_span=session.trace_span,
                ),
            )

    def _on_rresumed(self, message) -> None:
        ack: RepartitionResumed = message.payload
        session = self._session_in_phase("remapping")
        if session is None:
            return
        session.pending_resume_acks.discard(ack.host)
        if session.pending_resume_acks:
            return
        session.advance("done")
        session.completed_at = self.gc.sim.now
        self._commit_trie(session)
        self.last_repartition_time = self.gc.sim.now
        if session.kind == "split":
            self.splits_completed += 1
        else:
            self.merges_completed += 1
        self.gc.metrics.events.record(
            self.gc.sim.now,
            "repartition",
            session.owner,
            action=session.kind,
            parent=session.parent,
            children=session.children,
            bytes=session.state_bytes,
            duration=session.duration,
        )
        tracer = self.gc.metrics.tracer
        if tracer.enabled and session.trace_span:
            tracer.end_span(
                session.trace_span, status="done", bytes=session.state_bytes
            )
        if self.gc.metrics.ledger.enabled:
            self.gc.metrics.ledger.realize(
                session.ledger_entry,
                status="done",
                bytes_rebuilt=session.state_bytes,
                duration=session.duration,
                pause_duration=(
                    self.gc.sim.now - session.paused_at
                    if session.paused_at is not None
                    else None
                ),
            )
        self.session = None

    # ------------------------------------------------------------------
    # Failure handling (called from the coordinator's evaluate loop)
    # ------------------------------------------------------------------
    def abort_dead(self) -> None:
        """The owner died mid-session.

        The owner's durable commit and its ``rinstalled`` ack happen in one
        atomic step, so the session phase is a reliable witness of whether
        the registry flipped:

        * before ``remapping`` — the commit never landed (or its ack died
          with the machine *before* being sent, which cannot happen: the
          send is in the commit's tail).  Routing still names the old
          pids, which map to the dead owner, so the recovery session's own
          ``pause_owned`` sweep picks them up and restores them from their
          (old-pid) snapshots.  The trie is left untouched.
        * ``remapping`` — the registry flipped and the ``rremap`` is
          already on the wire: the sources will flip, log the flushed
          tuples under the new pids (forwarded to the dead owner and
          dropped, but covered by the replay log), and recovery restores
          the *new* pids.  The GC trie must flip too.
        """
        session = self.session
        assert session is not None
        phase_reached = session.phase
        if phase_reached == "remapping":
            self._commit_trie(session)
            self.last_repartition_time = self.gc.sim.now
        self._finish_aborted(
            session,
            reason="owner_died",
            phase_reached=phase_reached,
            # pauses are discharged by the recovery session's resume, not
            # by this session's own flush
            pause_handoff=phase_reached in ("pausing", "installing", "remapping"),
        )

    def _finish_aborted(
        self,
        session: RepartitionSession,
        *,
        reason: str,
        phase_reached: str | None = None,
        pause_handoff: bool = False,
    ) -> None:
        phase_reached = phase_reached or session.phase
        session.advance("aborted")
        session.completed_at = self.gc.sim.now
        self.sessions_aborted += 1
        self.gc.metrics.events.record(
            self.gc.sim.now,
            "repartition_aborted",
            session.owner,
            action=session.kind,
            parent=session.parent,
            children=session.children,
            reason=reason,
            phase_reached=phase_reached,
        )
        tracer = self.gc.metrics.tracer
        if tracer.enabled and session.trace_span:
            tracer.end_span(
                session.trace_span,
                status="aborted",
                reason=reason,
                phase_reached=phase_reached,
                pause_handoff=pause_handoff,
            )
        if self.gc.metrics.ledger.enabled:
            self.gc.metrics.ledger.realize(
                session.ledger_entry,
                status="aborted",
                reason=reason,
                phase_reached=phase_reached,
            )
        self.session = None

    def _commit_trie(self, session: RepartitionSession) -> None:
        """Mirror a routing flip that is now cluster-visible."""
        if session.kind == "split":
            self.refinement[session.parent] = session.children
            for child in session.children:
                self._depth[child] = session.depth + 1
        else:
            self.refinement.pop(session.parent, None)
            for child in session.children:
                self._depth.pop(child, None)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        gc = {"coordinator": self.gc.name}
        registry.counter(
            "repro_gc_repartitions_total",
            help="Repartition sessions by kind",
            labels={**gc, "kind": "split"},
        ).set_total(self.splits_completed)
        registry.counter(
            "repro_gc_repartitions_total",
            labels={**gc, "kind": "merge"},
        ).set_total(self.merges_completed)
        registry.counter(
            "repro_gc_repartitions_aborted_total",
            help="Repartition sessions aborted or rejected",
            labels=gc,
        ).set_total(self.sessions_aborted)
        registry.gauge(
            "repro_gc_refinement_nodes",
            help="Active refinement-trie nodes (split parents)",
            labels=gc,
        ).set(len(self.refinement))

    def _session_in_phase(self, expected_phase: str) -> RepartitionSession | None:
        if self.session is None or self.session.phase != expected_phase:
            self.gc.stats.protocol_ignored += 1
            return None
        return self.session

