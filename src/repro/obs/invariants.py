"""Trace-driven protocol invariant checking.

The tracer (:mod:`repro.obs.trace`) records *what happened*; this module
replays a finished trace and asserts *what must always hold* about the
adaptation protocols, independent of any particular workload:

1. **Relocation step order** — every relocation session's steps 1–8
   (cptv → ptv → pause → paused → transfer → installed → remap →
   resumed) occur in strictly increasing order; a session that completes
   saw all eight exactly once.
2. **Pause/flush discipline** — tuples buffered at a paused split are
   flushed exactly once per session (on remap for a completed hand-off,
   on remap-back for an aborted one); never zero times, never twice.
3. **Single residency** — no partition's state is live on two machines
   at once (within one namespace: every namespaced runtime — a serving
   fold group or a pipeline stage — numbers its partitions from 0, so
   ``q1:m2`` and ``q2:m2`` may both hold pid 5).  Packing evicts it from
   the sender (it is *in flight* until the receiver installs), a crash
   evicts everything on the dead machine, and a recovery restore may
   only re-materialise state whose owner is gone.
4. **Spill ↔ cleanup matching** — when a namespace's cleanup phase
   runs, every partition of that namespace that ever spilled to disk is
   either merged exactly once or explicitly skipped (fewer than two
   parts); nothing parked on disk is silently forgotten, and nothing is
   merged twice.
5. **Checkpoint / crash-epoch atomicity** — a machine emits no trace
   activity (in particular no checkpoint commits) between its crash and
   its restart; commits happen entirely before a crash or not at all.
6. **Recovery replay arithmetic** — recovery replays exactly the
   uncovered suffix of the replay log: per partition,
   ``replayed == suffix − covered`` when the state was restored from a
   checkpoint, and ``replayed == 0`` when it was already resident on a
   survivor.
7. **Recovery phase order** — every recovery session walks
   pausing → restoring → rerouting without skipping backwards.
8. **Ledger ↔ trace bijection** (when a decision ledger was recorded) —
   every ``spill``/``relocation``/``repartition`` span is justified by
   exactly one executed ledger entry and vice versa, and every entry's
   recorded rule inputs reproduce its decision when re-evaluated offline
   (:meth:`InvariantChecker.check_ledger`).
9. **Single residency under split/merge** — a repartition session's new
   group(s) install on exactly one live machine; every source host's
   routing flip names the same parent → children refinement (no key can
   route to two live groups); the old pid(s) retire only *after* every
   new group installed; a completed session installed exactly its
   ordered children (split) or parent (merge), retired exactly the
   replaced pid(s), and flushed each host's pause buffer exactly once.
10. **Elastic membership** — ownership is only ever acquired by a
    *member*: a machine seen in the initial ``deploy.assignment`` or
    admitted by a later ``membership.join``.  After ``membership.retire``
    (a completed graceful drain) no state may be installed, restored or
    assigned on the retired machine until a fresh ``membership.join``
    re-admits it; and a drained engine (``engine.drained``) emits no
    trace activity until ``engine.revive`` — the only exception is the
    post-run ``cleanup.*`` phase, which merges spilled fragments left on
    the retired machine's disk by design.
11. **Watermark monotonicity** — an engine's per-stream low-watermark
    (``engine.watermark`` events, emitted with its statistics reports
    when latency tracking is on) never regresses within one incarnation.
    Only crash-recovery adoption may lower it: the restarted engine
    reports under a strictly larger incarnation while it rebuilds event
    time from the replayed suffix.

``check_trace(events)`` returns a list of :class:`Violation`; an empty
list means the trace upholds every contract.  The checker needs only the
event stream — it can run on a live :class:`~repro.obs.trace.Tracer`'s
``events`` or on records loaded back from JSONL.  Pass the run's ledger
entries as ``check_trace(events, ledger_entries=...)`` to include
check 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trace import PHASE_BEGIN, PHASE_END, PHASE_INSTANT, TraceEvent

__all__ = ["InvariantChecker", "Violation", "check_trace"]

#: Step numbers of the 8-step relocation protocol, in contract order.
RELOCATION_STEPS = (1, 2, 3, 4, 5, 6, 7, 8)

#: Legal forward order of recovery session phases.
RECOVERY_PHASE_ORDER = ("pausing", "restoring", "rerouting", "done")

#: Every span-bound instant event: the session family whose span it must
#: sit inside, and the check a stray one (no span, or another family's
#: span) violates.  A family is the name of the span that opens it; a
#: drain runs as a ``relocation`` span.
_SPAN_EVENTS: dict[str, tuple[str, str]] = {
    "relocation.step": ("relocation", "relocation-steps"),
    "split.pause": ("relocation", "relocation-steps"),
    "split.flush": ("relocation", "relocation-steps"),
    "repartition.pause": ("repartition", "repartition-protocol"),
    "repartition.install": ("repartition", "repartition-protocol"),
    "repartition.route": ("repartition", "repartition-protocol"),
    "repartition.retire": ("repartition", "repartition-protocol"),
    "repartition.flush": ("repartition", "repartition-protocol"),
    "recovery.phase": ("recovery", "recovery-phases"),
    "recovery.replay": ("recovery", "recovery-phases"),
}


@dataclass(frozen=True)
class Violation:
    """One broken contract, anchored to the trace event that exposed it."""

    check: str
    message: str
    seq: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        anchor = f" (seq={self.seq})" if self.seq is not None else ""
        return f"[{self.check}] {self.message}{anchor}"


@dataclass
class _Session:
    """One protocol span: a ``relocation`` (drains included), a
    ``repartition`` or a ``recovery``.  The pause/flush counters serve the
    first two; ``steps`` is read for relocations only, ``phases`` for
    recoveries only, and the ordered refinement (``kind`` … ``retires``)
    for repartitions only."""

    span: int
    family: str
    status: str | None = None
    #: aborted with splits left paused for a recovery session to resume
    pause_handoff: bool = False
    pauses: int = 0
    flushes: int = 0
    last_pause_seq: int = -1
    steps: list[int] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    kind: str = ""  # "split" | "merge"
    parent: int = -1
    children: tuple[int, ...] = ()
    installs: set[int] = field(default_factory=set)
    retires: set[int] = field(default_factory=set)

    @property
    def expected_installs(self) -> set[int]:
        return set(self.children) if self.kind == "split" else {self.parent}

    @property
    def expected_retires(self) -> set[int]:
        return {self.parent} if self.kind == "split" else set(self.children)


def _namespace(machine: str) -> str:
    """What a pid is unique within: the machine's namespace (``q1:`` of
    ``q1:m2``, ``""`` standalone) — every namespaced runtime numbers its
    partitions from 0."""
    namespace, colon, _ = machine.rpartition(":")
    return namespace + colon


def _cleanup_label(machine: str) -> str:
    """The ``stage`` label the cleanup of the machine's namespace carries:
    the namespace without its colon."""
    return _namespace(machine).rstrip(":")


class InvariantChecker:
    """Replays a trace event stream and accumulates violations."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        # (scope, pid) -> machine currently holding live state; the scope
        # is the machine's namespace (see _namespace)
        self._resident: dict[tuple[str, int], str] = {}
        self._dead: set[str] = set()
        # check 10: cluster membership as seen by the trace
        self._members: set[str] = set()
        self._retired_members: set[str] = set()
        self._drained_engines: set[str] = set()
        # span -> the relocation / repartition / recovery it opened
        self._sessions: dict[int, _Session] = {}
        # (cleanup label, pid) -> spill count / merge count / skip count
        self._spilled: dict[tuple[str, int], int] = {}
        self._merged: dict[tuple[str, int], int] = {}
        self._skipped: dict[tuple[str, int], int] = {}
        # final routing refinement: (cleanup label, parent) -> children.
        # A segment spilled under a later-split pid re-buckets to the
        # refinement's leaves during cleanup, so spill/cleanup matching
        # resolves pids through this trie.
        self._refinement: dict[tuple[str, int], tuple[int, ...]] = {}
        # (cleanup label, child) -> parent for merged-away groups: a
        # child's disk bytes route to the surviving parent after the merge
        self._merge_redirect: dict[tuple[str, int], int] = {}
        # labels of the namespaces whose cleanup ran
        self._cleaned: set[str] = set()
        # check 11: (machine, stream) -> (incarnation, watermark) last seen
        self._watermarks: dict[tuple[str, str], tuple[int, float]] = {}
        # spill/relocation/repartition begin events + slo.alert instants,
        # kept for check_ledger (check 8)
        self._adaptation_spans: list[TraceEvent] = []
        self._on_begin = {
            "relocation": self._open_session,
            "repartition": self._open_session,
            "recovery": self._open_session,
            "spill": self._on_spill,
            "cleanup": self._on_cleanup,
        }
        self._on_instant = {
            "deploy.assignment": self._on_assignment,
            "relocation.step": self._on_step,
            "split.pause": self._on_pause,
            "split.flush": self._on_flush,
            "relocation.pack": self._on_pack,
            "relocation.install": self._on_install,
            "cleanup.merge": self._on_merge,
            "cleanup.skip": self._on_skip,
            "engine.crash": self._on_crash,
            "engine.restart": self._on_restart,
            "recovery.phase": self._on_recovery_phase,
            "recovery.restore": self._on_restore,
            "recovery.replay": self._on_replay,
            "repartition.pause": self._on_pause,
            "repartition.install": self._on_repartition_install,
            "repartition.route": self._on_repartition_route,
            "repartition.retire": self._on_repartition_retire,
            "repartition.flush": self._on_flush,
            "membership.join": self._on_member_join,
            "membership.retire": self._on_member_retire,
            "engine.drained": self._on_engine_drained,
            "engine.revive": self._on_engine_revive,
            "engine.watermark": self._on_watermark,
            # kept for the ledger bijection: every alert event must name
            # exactly one breaching slo_check entry (check_ledger_trace)
            "slo.alert": self._adaptation_spans.append,
        }

    # ------------------------------------------------------------------
    def _fail(self, check: str, message: str, event: TraceEvent | None = None) -> None:
        self.violations.append(
            Violation(check, message, event.seq if event is not None else None)
        )

    # ------------------------------------------------------------------
    def feed(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self._feed_one(event)

    def _feed_one(self, e: TraceEvent) -> None:
        self._check_dead_epoch(e)

        if e.phase == PHASE_BEGIN:
            if e.name in ("relocation", "spill", "repartition"):
                self._adaptation_spans.append(e)
            handler = self._on_begin.get(e.name)
        elif e.phase == PHASE_END:
            session = self._sessions.get(e.span)
            if session is not None and session.family == e.name:
                session.status = str(e.get("status", ""))
                session.pause_handoff = bool(e.get("pause_handoff", False))
            return
        elif e.phase == PHASE_INSTANT:
            handler = self._on_instant.get(e.name)
        else:
            return
        if handler is not None:
            handler(e)

    # ------------------------------------------------------------------
    # Check 5: no activity from a crashed machine until it restarts.
    # ------------------------------------------------------------------
    def _check_dead_epoch(self, e: TraceEvent) -> None:
        if e.machine in self._dead and e.name not in ("engine.restart", "engine.crash"):
            self._fail(
                "crash-epoch",
                f"machine {e.machine!r} emitted {e.name!r} while crashed",
                e,
            )
        # check 10: a gracefully drained engine is equally silent until it
        # is revived — only post-run cleanup may touch its leftover disk
        if (
            e.machine in self._drained_engines
            and e.name not in ("engine.revive", "engine.drained")
            and not e.name.startswith("cleanup")
        ):
            self._fail(
                "membership",
                f"machine {e.machine!r} emitted {e.name!r} while drained",
                e,
            )

    # ------------------------------------------------------------------
    # Residency bookkeeping (check 3)
    # ------------------------------------------------------------------
    def _on_assignment(self, e: TraceEvent) -> None:
        scope = _namespace(e.machine)
        # the initial placement doubles as the founding membership roster
        self._members.add(e.machine)
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            holder = self._resident.get(key)
            if holder is not None and holder != e.machine:
                self._fail(
                    "single-residency",
                    f"partition {key} initially assigned to both {holder!r} "
                    f"and {e.machine!r}",
                    e,
                )
            self._resident[key] = e.machine

    def _on_pack(self, e: TraceEvent) -> None:
        # packed state is in flight: resident nowhere until it lands
        scope = _namespace(e.machine)
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            if self._resident.get(key) == e.machine:
                del self._resident[key]

    def _land(self, e: TraceEvent, pids: Iterable, verb: str) -> None:
        """State of ``pids`` lands on ``e.machine``, which must be a member
        (check 10) while no live machine still holds it (check 3)."""
        self._check_ownership_target(e.machine, verb, e)
        scope = _namespace(e.machine)
        for pid in pids:
            key = (scope, int(pid))
            holder = self._resident.get(key)
            if holder is not None and holder != e.machine and holder not in self._dead:
                self._fail(
                    "single-residency",
                    f"{e.name!r} {verb} partition {key} on {e.machine!r} "
                    f"while still live on {holder!r}",
                    e,
                )
            self._resident[key] = e.machine

    def _on_install(self, e: TraceEvent) -> None:
        self._land(e, e.get("pids", ()), "installed")

    def _on_restore(self, e: TraceEvent) -> None:
        self._land(e, e.get("installed", ()), "restored")

    def _on_crash(self, e: TraceEvent) -> None:
        self._dead.add(e.machine)
        for key, holder in list(self._resident.items()):
            if holder == e.machine:
                del self._resident[key]

    def _on_restart(self, e: TraceEvent) -> None:
        self._dead.discard(e.machine)

    # ------------------------------------------------------------------
    # Elastic membership (check 10)
    # ------------------------------------------------------------------
    def _on_member_join(self, e: TraceEvent) -> None:
        worker = str(e.get("worker", ""))
        self._members.add(worker)
        self._retired_members.discard(worker)

    def _on_member_retire(self, e: TraceEvent) -> None:
        worker = str(e.get("worker", ""))
        self._retired_members.add(worker)
        self._members.discard(worker)

    def _on_engine_drained(self, e: TraceEvent) -> None:
        self._drained_engines.add(e.machine)

    def _on_engine_revive(self, e: TraceEvent) -> None:
        self._drained_engines.discard(e.machine)

    def _check_ownership_target(self, machine: str, verb: str,
                                e: TraceEvent) -> None:
        """State may only land on a current member (check 10)."""
        if machine in self._retired_members:
            self._fail(
                "membership",
                f"state {verb} on {machine!r} after its graceful retirement",
                e,
            )
        elif self._members and machine not in self._members:
            self._fail(
                "membership",
                f"state {verb} on {machine!r}, which never joined the cluster",
                e,
            )

    # ------------------------------------------------------------------
    # State-motion sessions (checks 1, 2, 6, 7 and 9)
    # ------------------------------------------------------------------
    def _open_session(self, e: TraceEvent) -> None:
        # a repartition's replaced pid travels as "parent_pid" ("parent"
        # is the tracer's span-hierarchy field)
        self._sessions[e.span] = _Session(
            e.span,
            e.name,
            kind=str(e.get("kind", "")),
            parent=int(e.get("parent_pid", -1)),
            children=tuple(int(c) for c in e.get("children", ())),
        )

    def _session(self, e: TraceEvent) -> _Session | None:
        """The open session of the family ``e`` belongs to, or None after
        flagging ``e`` as a stray event."""
        family, check = _SPAN_EVENTS[e.name]
        session = self._sessions.get(e.span)
        if session is None or session.family != family:
            self._fail(check, f"{e.name!r} event outside any {family} span", e)
            return None
        return session

    def _on_pause(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is not None:
            session.pauses += 1
            session.last_pause_seq = e.seq

    def _on_flush(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        session.flushes += 1
        label = f"{session.family} span {session.span}"
        if session.flushes > session.pauses:
            self._fail(
                "pause-flush",
                f"{label}: flushed more times than paused "
                f"({session.flushes} > {session.pauses})",
                e,
            )
        if e.seq < session.last_pause_seq:
            self._fail("pause-flush", f"{label}: flush before pause", e)

    def _on_step(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        step = int(e.get("step", -1))
        if step not in RELOCATION_STEPS:
            self._fail("relocation-steps", f"step number {step} out of range", e)
            return
        if session.steps and step <= session.steps[-1]:
            self._fail(
                "relocation-steps",
                f"relocation span {session.span}: step {step} after step "
                f"{session.steps[-1]}",
                e,
            )
        session.steps.append(step)

    def _on_recovery_phase(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        phase = str(e.get("phase", ""))
        if phase not in RECOVERY_PHASE_ORDER:
            self._fail("recovery-phases", f"unknown recovery phase {phase!r}", e)
            return
        if session.phases:
            prev = RECOVERY_PHASE_ORDER.index(session.phases[-1])
            if RECOVERY_PHASE_ORDER.index(phase) < prev:
                self._fail(
                    "recovery-phases",
                    f"recovery span {session.span}: phase {phase!r} after "
                    f"{session.phases[-1]!r}",
                    e,
                )
        session.phases.append(phase)

    def _on_replay(self, e: TraceEvent) -> None:
        self._session(e)
        detail = e.get("detail", {})
        for pid, row in detail.items():
            suffix = int(row.get("suffix", 0))
            covered = int(row.get("covered", 0))
            replayed = int(row.get("replayed", 0))
            resident = bool(row.get("resident", False))
            if resident:
                if replayed != 0:
                    self._fail(
                        "recovery-replay",
                        f"partition {pid}: replayed {replayed} tuples although "
                        f"state was already resident",
                        e,
                    )
            elif replayed != suffix - covered:
                self._fail(
                    "recovery-replay",
                    f"partition {pid}: replayed {replayed}, expected uncovered "
                    f"suffix {suffix} - {covered} = {suffix - covered}",
                    e,
                )

    def _on_repartition_install(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        pid = int(e.get("pid", -1))
        if pid not in session.expected_installs:
            self._fail(
                "repartition-protocol",
                f"repartition span {session.span} installed pid {pid}, which "
                f"is not among its new group(s) "
                f"{sorted(session.expected_installs)}",
                e,
            )
        self._land(e, (pid,), "installed")
        session.installs.add(pid)
        # the replaced group(s) dissolve with the rebuild on the owner
        scope = _namespace(e.machine)
        for old in session.expected_retires:
            if self._resident.get((scope, old)) == e.machine:
                del self._resident[(scope, old)]

    def _on_repartition_route(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        kind = str(e.get("kind", ""))
        parent = int(e.get("parent", -1))
        children = tuple(int(c) for c in e.get("children", ()))
        ordered = (session.kind, session.parent, session.children)
        if (kind, parent, children) != ordered:
            self._fail(
                "repartition-routing",
                f"repartition span {session.span}: host {e.machine!r} flipped "
                f"routing to {kind} {parent} -> {children}, session ordered "
                f"{session.kind} {session.parent} -> {session.children} (a "
                f"key could route to two live groups)",
                e,
            )
            return
        scope = _cleanup_label(e.machine)
        if kind == "split":
            self._refinement[(scope, parent)] = children
            self._merge_redirect.pop((scope, parent), None)
        else:
            self._refinement.pop((scope, parent), None)
            for child in children:
                self._merge_redirect[(scope, child)] = parent

    def _on_repartition_retire(self, e: TraceEvent) -> None:
        session = self._session(e)
        if session is None:
            return
        pid = int(e.get("pid", -1))
        if pid not in session.expected_retires:
            self._fail(
                "repartition-protocol",
                f"repartition span {session.span} retired pid {pid}, which is "
                f"not among its replaced group(s) "
                f"{sorted(session.expected_retires)}",
                e,
            )
            return
        if not session.installs >= session.expected_installs:
            self._fail(
                "repartition-protocol",
                f"repartition span {session.span}: pid {pid} retired before "
                f"the new group(s) installed ({sorted(session.installs)} of "
                f"{sorted(session.expected_installs)})",
                e,
            )
        session.retires.add(pid)

    # ------------------------------------------------------------------
    # Spill / cleanup matching (check 4)
    # ------------------------------------------------------------------
    def _on_spill(self, e: TraceEvent) -> None:
        scope = _cleanup_label(e.machine)
        for pid in e.get("pids", ()):
            key = (scope, int(pid))
            self._spilled[key] = self._spilled.get(key, 0) + 1

    def _on_cleanup(self, e: TraceEvent) -> None:
        self._cleaned.add(str(e.get("stage", "")))

    def _on_merge(self, e: TraceEvent) -> None:
        key = (str(e.get("stage", "")), int(e.get("pid", -1)))
        self._merged[key] = self._merged.get(key, 0) + 1
        if self._merged[key] > 1:
            self._fail(
                "spill-cleanup",
                f"partition {key} merged {self._merged[key]} times during cleanup",
                e,
            )

    def _on_skip(self, e: TraceEvent) -> None:
        key = (str(e.get("stage", "")), int(e.get("pid", -1)))
        self._skipped[key] = self._skipped.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Watermarks (check 11)
    # ------------------------------------------------------------------
    def _on_watermark(self, e: TraceEvent) -> None:
        incarnation = int(e.get("incarnation", 0))
        for sid, wm in sorted((e.get("watermarks", {}) or {}).items()):
            key = (e.machine, str(sid))
            wm = float(wm)
            prev = self._watermarks.get(key)
            if prev is not None:
                prev_inc, prev_wm = prev
                if incarnation < prev_inc:
                    self._fail(
                        "watermark-monotonic",
                        f"machine {e.machine!r} stream {sid!r} reported under "
                        f"stale incarnation {incarnation} < {prev_inc}",
                        e,
                    )
                    continue
                if incarnation == prev_inc and wm < prev_wm:
                    self._fail(
                        "watermark-monotonic",
                        f"machine {e.machine!r} stream {sid!r} watermark "
                        f"regressed {prev_wm!r} -> {wm!r} within incarnation "
                        f"{incarnation} (only crash-recovery adoption may "
                        f"lower a watermark)",
                        e,
                    )
                    continue
            self._watermarks[key] = (incarnation, wm)

    # ------------------------------------------------------------------
    # End-of-trace checks
    # ------------------------------------------------------------------
    def finish(self) -> list[Violation]:
        for session in self._sessions.values():
            self._finish_session(session)
        self._finish_spill_cleanup()
        return self.violations

    def _finish_session(self, s: _Session) -> None:
        done = s.status == "done"
        label = f"{s.family} span {s.span}"
        if s.family == "recovery":
            if done and not s.phases:
                self._fail("recovery-phases", f"{label} completed without phase events")
            return
        if s.family == "relocation":
            if done and s.steps != list(RELOCATION_STEPS):
                self._fail(
                    "relocation-steps",
                    f"{label} completed with step sequence {s.steps}, "
                    f"expected {list(RELOCATION_STEPS)}",
                )
        elif done:
            for what, got, expected in (
                ("installs", s.installs, s.expected_installs),
                ("retires", s.retires, s.expected_retires),
            ):
                if got != expected:
                    self._fail(
                        "repartition-protocol",
                        f"{label} ({s.kind}) completed with {what} "
                        f"{sorted(got)}, expected {sorted(expected)}",
                    )
        # pause/flush (check 2): one flush per pause; a completed session
        # paused at least one host, and one that handed its paused splits
        # to a recovery session is discharged by that session's reroute
        if done:
            if s.pauses < 1 or s.pauses != s.flushes:
                self._fail(
                    "pause-flush",
                    f"{label} completed with {s.pauses} pauses / {s.flushes} "
                    f"flushes (expected one flush per pause, at least one host)",
                )
        elif not s.pause_handoff and s.pauses != s.flushes:
            # an aborted session must still release buffered tuples exactly
            # once per pause (remap-back), or the split leaks its buffer
            self._fail(
                "pause-flush",
                f"{label} ({s.status or 'unclosed'}) paused {s.pauses}x but "
                f"flushed {s.flushes}x",
            )

    # ------------------------------------------------------------------
    # Check 8: ledger ↔ trace bijection (call after feed())
    # ------------------------------------------------------------------
    def check_ledger(self, entries) -> list[Violation]:
        """Every spill/relocation/repartition span ↔ exactly one executed
        ledger entry,
        and every entry replays to its recorded decision.  ``entries`` are
        :class:`~repro.obs.ledger.DecisionLedger` entries (live or loaded
        from JSONL).  Returns the new violations (also accumulated)."""
        from repro.obs.ledger import check_ledger_trace, verify_replay

        entries = list(entries)
        found = check_ledger_trace(self._adaptation_spans, entries)
        found.extend(verify_replay(entries))
        self.violations.extend(found)
        return found

    def _routing_leaves(self, scope: str, pid: int) -> list[int]:
        """Pids a partition's disk bytes resolve to under the final
        routing: itself when unrefined, otherwise the refinement leaves
        its keys re-bucket into during cleanup."""
        while (scope, pid) in self._merge_redirect:
            pid = self._merge_redirect[(scope, pid)]
        children = self._refinement.get((scope, pid))
        if children is None:
            return [pid]
        leaves: list[int] = []
        for child in children:
            leaves.extend(self._routing_leaves(scope, child))
        return leaves

    def _finish_spill_cleanup(self) -> None:
        if not self._cleaned:
            return  # cleanup never ran; nothing to match against
        for key in sorted(self._spilled):
            scope, pid = key
            if scope not in self._cleaned:
                continue
            # an unrefined pid must itself be merged or skipped; a refined
            # one re-buckets into its leaves, and only leaves that received
            # keys surface in cleanup, so any handled leaf discharges it
            handled = any(
                self._merged.get((scope, leaf))
                or self._skipped.get((scope, leaf))
                for leaf in self._routing_leaves(scope, pid)
            )
            if not handled:
                self._fail(
                    "spill-cleanup",
                    f"partition {key} spilled {self._spilled[key]}x but cleanup "
                    f"neither merged nor skipped it",
                )


def check_trace(
    events: Sequence[TraceEvent],
    *,
    ledger_entries: Sequence[dict] | None = None,
) -> list[Violation]:
    """Run every invariant over ``events``; returns the violations found.

    With ``ledger_entries`` (a run's decision-ledger entries) the ledger ↔
    trace bijection and offline decision replay (check 8) run too.
    """
    checker = InvariantChecker()
    checker.feed(events)
    if ledger_entries is not None:
        checker.check_ledger(ledger_entries)
    return checker.finish()
