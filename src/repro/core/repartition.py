"""Runtime partition-group repartitioning: the split/merge policy.

Relocation moves whole partition groups between machines, but cannot help
when a *single* group grows so large that no machine can absorb it — the
paper's partition granularity is fixed at plan time.  This module adds the
missing adaptation: when the coordinator sees a group dominating its
machine's state (skew), it **splits** the hot group into two child groups
by consuming one more bit of the join key's hash (``key // n_partitions``),
and symmetrically **merges** a pair of cold sibling groups back into their
parent.

A split or merge is one more kind of state motion: it runs through the
coordinator's shared pause → marker → install → remap → resume bracket
(:mod:`repro.core.relocation`, DESIGN.md "State motion") with the owner as
both sender and receiver.  What is specific to it lives here:

* the *select* step — the GC already knows the concrete group (the owner
  reported it as its ``max_group_pid`` / in its ``small_groups``), so it
  sends the owner a ``repartition`` order; the owner validates it against
  its live store and mode and acks ``repartition_ack``; on accept it
  enters relocation mode, gating concurrent adaptations, and executes once
  every marker has drained through its data queue: it rebuilds the
  group(s) through the store's evict/install funnel
  (:meth:`~repro.engine.state_store.StateStore.split_group` /
  :meth:`~repro.engine.state_store.StateStore.merge_groups`), commits them
  durably (reason ``"split"``/``"merge"``, which atomically retires the old
  pids from the checkpoint registry) and acks ``installed``;
* the policy (:meth:`RepartitionManager.maybe_adapt`, ``τ_p`` spacing — the
  repartition analogue of the paper's ``τ_m``), child-pid allocation and the
  GC's mirror of the sources' refinement trie;
* the bookkeeping of a landed session (:meth:`RepartitionManager.done` /
  :meth:`RepartitionManager.aborted`).

Exactly-once under crashes needs **no new recovery code**: the owner's
commit and its ``installed`` ack happen in one atomic simulation step, so
the GC's session phase tells it whether the routing flip is durable — if
the owner dies before ``installed`` the routing never flips and recovery
restores the old pids; if it dies after, the ``remap`` is already on the
wire, the sources flip and log the flushed tuples under the new pids, and
recovery restores the *children* from their committed snapshots, replaying
the uncovered suffix.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policy import decide_repartition, with_choice
from repro.core.relocation import MotionSession

#: A refinement trie deeper than this stops splitting: beyond it a hot
#: group is dominated by duplicate key values, which no hash refinement
#: can separate.
MAX_SPLIT_DEPTH = 16


# ----------------------------------------------------------------------
# Protocol payloads (network message bodies, keyed by Message.kind)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RepartitionOrder:
    """``repartition``: GC orders the owner to split ``parent`` into
    ``children`` or to fold ``children`` back into ``parent``.  For a
    split, ``modulus`` and ``depth`` parameterise the chooser the owner
    must apply — ``(key // modulus >> depth) & 1`` — so the store split and
    the sources' routing refinement agree bit-for-bit."""

    kind: str  # "split" | "merge"
    parent: int
    children: tuple[int, int]
    depth: int
    modulus: int
    marker_hosts: tuple[str, ...]
    trace_span: int = 0
    ledger_entry: int = 0

    @property
    def affected_pids(self) -> tuple[int, ...]:
        """The pids the order replaces — paused at the sources meanwhile."""
        return (self.parent,) if self.kind == "split" else self.children


@dataclass(frozen=True)
class RepartitionAck:
    """``repartition_ack``: the owner accepts or rejects the order.  A
    reject (stale target: the group relocated away, or the engine is
    mid-adaptation) aborts the session before any pause is sent."""

    machine: str
    accepted: bool
    reason: str = ""


class RepartitionManager:
    """The split/merge policy and its GC-side bookkeeping.

    Owns the coordinator's view of the refinement trie (which mirrors the
    sources' tables after every completed session), allocates child pids
    monotonically from ``n_partitions`` upward (ids are never reused, so a
    late message for a retired pid can never alias a new group), and opens
    a split or merge session in the coordinator's single session slot when
    a rule fires.  :class:`~repro.core.coordinator.GlobalCoordinator` calls
    :meth:`maybe_adapt` from its evaluate cascade, drives the session
    through the shared bracket and reports how it landed (:meth:`done`,
    :meth:`rejected`, :meth:`aborted`).
    """

    def __init__(self, coordinator, n_partitions: int) -> None:
        self.gc = coordinator
        self.n_partitions = n_partitions
        self._next_pid = n_partitions
        #: GC mirror of the sources' refinement trie: parent -> (c0, c1)
        self.refinement: dict[int, tuple[int, int]] = {}
        #: trie depth per child pid (base pids have depth 0)
        self._depth: dict[int, int] = {}
        self.last_repartition_time = -float("inf")
        self.splits_completed = 0
        self.merges_completed = 0
        self.sessions_aborted = 0

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
        """Evaluate the split/merge rules; open a session if one fires.
        ``alts`` is the GC tick's list of alternatives so far: this
        cascade's own are appended to it."""
        gc = self.gc
        ledger = gc.metrics.ledger
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
        session = gc.session = MotionSession(
            kind=action,
            sender=owner,
            receiver=owner,
            split_hosts=tuple(gc.split_hosts),
            started_at=gc.sim.now,
            refinement=(action, parent, children),
            depth=depth,
        )
        tracer = gc.metrics.tracer
        if tracer.enabled:
            # "parent" is begin_span's span-hierarchy kwarg, so the pid
            # travels as parent_pid
            session.trace_span = tracer.begin_span(
                "repartition",
                machine=gc.name,
                kind=action,
                owner=owner,
                parent_pid=parent,
                children=children,
                depth=depth,
            )
        if ledger.enabled:
            session.ledger_entry = ledger.record(
                gc.name, "repartition", action, rule,
                with_choice(inputs, choice), alts,
                trace_span=session.trace_span,
            )
        order = RepartitionOrder(
            kind=action,
            parent=parent,
            children=children,
            depth=depth,
            modulus=self.n_partitions,
            marker_hosts=session.split_hosts,
            trace_span=session.trace_span,
            ledger_entry=session.ledger_entry,
        )
        session.partition_ids = order.affected_pids
        gc._send(owner, "repartition", order)
        return True

    # ------------------------------------------------------------------
    # How a session landed (called by the coordinator's bracket)
    # ------------------------------------------------------------------
    def done(self, session: MotionSession) -> None:
        gc = self.gc
        kind, parent, children = session.refinement
        self._commit_trie(session)
        self.last_repartition_time = gc.sim.now
        if kind == "split":
            self.splits_completed += 1
        else:
            self.merges_completed += 1
        gc.metrics.events.record(
            gc.sim.now,
            "repartition",
            session.sender,
            action=kind,
            parent=parent,
            children=children,
            bytes=session.state_bytes,
            duration=session.duration,
        )
        gc._trace_end(session, "done", bytes=session.state_bytes)
        if gc.metrics.ledger.enabled:
            gc.metrics.ledger.realize(
                session.ledger_entry,
                status="done",
                bytes_rebuilt=session.state_bytes,
                duration=session.duration,
                pause_duration=gc.sim.now - session.paused_at,
            )

    def rejected(self, session: MotionSession, reason: str) -> None:
        """The owner refused the order (stale target: the group moved, or
        the engine is busy).  Nothing was paused yet, so this is pure
        bookkeeping."""
        self._record_aborted(session, reason, session.phases[0], False)

    def aborted(self, session: MotionSession, phase_reached: str, outcome: str) -> None:
        """The owner died mid-session (it is the sender, so the bracket's
        ``outcome`` is always ``left_paused``).

        The owner's durable commit and its ``installed`` ack happen in one
        atomic step, so the session phase is a reliable witness of whether
        the registry flipped:

        * before ``remapping`` — the commit never landed (or its ack died
          with the machine *before* being sent, which cannot happen: the
          send is in the commit's tail).  Routing still names the old
          pids, which map to the dead owner, so the recovery session's own
          ``pause_owned`` sweep picks them up and restores them from their
          (old-pid) snapshots.  The trie is left untouched.
        * ``remapping`` — the registry flipped and the ``remap`` is
          already on the wire: the sources will flip, log the flushed
          tuples under the new pids (forwarded to the dead owner and
          dropped, but covered by the replay log), and recovery restores
          the *new* pids.  The GC trie must flip too.
        """
        if phase_reached == "remapping":
            self._commit_trie(session)
            self.last_repartition_time = self.gc.sim.now
        # pauses are discharged by the recovery session's resume, not by
        # this session's own flush
        self._record_aborted(
            session, "owner_died", phase_reached,
            phase_reached in ("pausing", "installing", "remapping"),
        )

    def _record_aborted(
        self, session: MotionSession, reason: str, phase_reached: str,
        pause_handoff: bool,
    ) -> None:
        gc = self.gc
        kind, parent, children = session.refinement
        self.sessions_aborted += 1
        gc.metrics.events.record(
            gc.sim.now,
            "repartition_aborted",
            session.sender,
            action=kind,
            parent=parent,
            children=children,
            reason=reason,
            phase_reached=phase_reached,
        )
        gc._trace_end(
            session,
            "aborted",
            reason=reason,
            phase_reached=phase_reached,
            pause_handoff=pause_handoff,
        )
        if gc.metrics.ledger.enabled:
            gc.metrics.ledger.realize(
                session.ledger_entry,
                status="aborted",
                reason=reason,
                phase_reached=phase_reached,
            )

    def _commit_trie(self, session: MotionSession) -> None:
        """Mirror a routing flip that is now cluster-visible."""
        kind, parent, children = session.refinement
        if kind == "split":
            self.refinement[parent] = children
            for child in children:
                self._depth[child] = session.depth + 1
        else:
            self.refinement.pop(parent, None)
            for child in children:
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
