"""State motion: the wire messages and the coordinator-side session.

The paper coordinates run-time state movement with a protocol between the
global coordinator (GC) and the involved query engines (QEs) so that "no
operator states should be missing or corrupted" (§4.1, Figure 8).  Every
motion this system performs — a pair-wise relocation, a graceful drain, a
partition-group split or merge — is that one bracket around a per-kind
*select* step (see DESIGN.md, "State motion"):

1. **select** — who moves what: ``cptv``/``ptv`` (relocate: the GC says
   *how much*, the sender's local controller *which*), an operator-scope
   ``cptv`` plus an owned-pid sweep (drain), or an accepted
   ``repartition`` order (split/merge: the owner is sender and receiver).
2. **GC → split hosts** ``pause`` — buffer arriving tuples of those IDs;
   each host drains a :class:`Marker` down its data link to the sender
   and acks ``paused``.
3. **move** — once every marker has drained through the sender's data
   queue the state is packed and shipped (``transfer`` → ``state``) or
   rebuilt in place (split/merge); the new home acks ``installed``.
4. **GC → split hosts** ``remap`` — update the routing tables (and the
   refinement trie, for split/merge) and flush the buffered tuples.
5. **split hosts → GC** ``resumed`` — session complete.

Relocation traces these as its 8 steps (cptv, ptv, pause, paused,
transfer, installed, remap, resumed).

Safety argument: tuples of the affected partitions are buffered from
``pause`` until ``remap``, so no tuple can probe a half-moved state;
unaffected partitions flow throughout — state motion is not a global stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.columns import FrozenColumnGroup


# ----------------------------------------------------------------------
# Protocol payloads (network message bodies, keyed by Message.kind)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StatsReport:
    """Periodic light-weight statistics a QE ships to the GC (``stats``).

    Only aggregates travel — the paper's scalability argument for the
    coordinator rests on never shipping per-partition detail upward.
    """

    machine: str
    state_bytes: int
    outputs_delta: int
    group_count: int
    queue_depth: int
    sent_at: float
    #: bumped by every crash of the reporting engine; lets the failure
    #: detector notice a crash+restart that happened between heartbeats
    incarnation: int = 0
    #: largest resident partition group (bytes) and its id — the one
    #: aggregate the repartition policy needs to see skew without shipping
    #: per-partition detail (-1 = not reported / store empty)
    max_group_bytes: int = 0
    max_group_pid: int = -1
    #: up to the 8 smallest resident groups as ``(pid, bytes)`` pairs,
    #: reported only when repartitioning is enabled; the GC intersects
    #: these with its refinement trie to find co-resident cold sibling
    #: pairs worth merging
    small_groups: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class CptvRequest:
    """Step 1 (``cptv``): GC asks the sender to pick ~``amount`` bytes of
    partitions to move."""

    amount: int
    #: id of the GC's decision-ledger entry (0 = ledger disabled) — carried
    #: so the sender can annotate the entry with its chosen victim groups
    #: and their productivity scores at selection time.
    ledger_entry: int = 0
    #: ``None`` (default): the sender applies its configured
    #: ``relocation_scope``.  ``"operator"`` forces take-everything
    #: (``amount`` ignored) — a graceful drain issues an operator-scope
    #: cptv regardless of the configured scope.
    scope: str | None = None


@dataclass(frozen=True)
class PartsList:
    """Step 2 (``ptv``): the sender's chosen partitions and their volume."""

    sender: str
    partition_ids: tuple[int, ...]
    total_bytes: int


@dataclass(frozen=True)
class PauseRequest:
    """Step 3 (``pause``): buffer tuples of these partitions at the splits.

    ``sender`` names the machine about to give up the state: after pausing,
    the split host pushes a :class:`Marker` down its *data* link to the
    sender, guaranteeing (FIFO links + FIFO task queues) that every tuple
    forwarded before the pause is processed before the state is packed.
    """

    partition_ids: tuple[int, ...]
    sender: str
    #: trace span of the session this pause belongs to (0 when tracing is
    #: disabled) — carried in the message so split hosts can attribute
    #: their pause/flush events to the causing session.
    trace_span: int = 0
    #: name the split host gives its pause trace event (per-kind label)
    event: str = "split.pause"


@dataclass(frozen=True)
class PauseAck:
    """Step 4 (``paused``): one split host confirms buffering is active."""

    host: str


@dataclass(frozen=True)
class Marker:
    """FIFO drain marker a split host sends to the relocation sender on the
    data link right after pausing (see :class:`PauseRequest`)."""

    host: str


@dataclass(frozen=True)
class TransferRequest:
    """Step 5 (``transfer``): GC orders the sender to ship the state.

    ``marker_hosts`` lists the split hosts whose :class:`Marker` must have
    drained through the sender's data queue before packing may begin.
    """

    partition_ids: tuple[int, ...]
    receiver: str
    marker_hosts: tuple[str, ...]
    trace_span: int = 0


@dataclass(frozen=True)
class StateTransfer:
    """Step 6 bulk payload (``state``): the frozen partition groups."""

    partition_ids: tuple[int, ...]
    groups: tuple["FrozenColumnGroup", ...]
    total_bytes: int
    trace_span: int = 0


@dataclass(frozen=True)
class InstalledAck:
    """Step 6 completion (``installed``): receiver thawed the groups — or,
    for a split/merge, the owner rebuilt and durably committed the new
    group(s).  That ack leaves from the commit's tail, so receipt implies
    the registry flip (children registered, parent dropped) happened."""

    receiver: str
    partition_ids: tuple[int, ...]
    total_bytes: int


@dataclass(frozen=True)
class RemapRequest:
    """Step 7 (``remap``): route these partitions to ``new_owner`` and
    flush the buffered tuples.  With a ``refinement`` the host first flips
    its routing table (refinement + partition map, one atomic version
    bump) and re-routes the buffer through it."""

    partition_ids: tuple[int, ...]
    new_owner: str
    trace_span: int = 0
    #: ``(kind, parent, children)`` of a completed split or merge
    refinement: tuple[str, int, tuple[int, int]] | None = None


@dataclass(frozen=True)
class ResumeAck:
    """Step 8 (``resumed``): one split host has flushed and resumed."""

    host: str


@dataclass(frozen=True)
class ForcedSpillRequest:
    """Active-disk extra (``start_ss``): GC forces ~``amount`` bytes of the
    target QE's least productive state to disk (§5.3)."""

    amount: int
    #: id of the GC's decision-ledger entry (0 = ledger disabled); the QE
    #: links the resulting spill span to it and records the realized cost.
    ledger_entry: int = 0


@dataclass(frozen=True)
class ForcedSpillDone:
    """Ack for ``start_ss`` (``ss_done``): how much actually went to disk."""

    machine: str
    bytes_spilled: int


# ----------------------------------------------------------------------
# Session state machine (lives at the GC)
# ----------------------------------------------------------------------

#: Human names of the 8 protocol steps, for trace events.
STEP_NAMES = {
    1: "cptv",
    2: "ptv",
    3: "pause",
    4: "paused",
    5: "transfer",
    6: "installed",
    7: "remap",
    8: "resumed",
}


class Session:
    """Phase bookkeeping shared by every GC-side session: a subclass names
    its ``phases`` in protocol order and holds ``phase``, ``started_at``
    and ``completed_at``."""

    noun: str
    phases: tuple[str, ...]

    def advance(self, phase: str) -> None:
        order = self.phases
        if phase not in order:
            raise ValueError(f"unknown {self.noun} phase {phase!r}")
        if order.index(phase) < order.index(self.phase) and phase != "aborted":
            raise ValueError(f"cannot regress from {self.phase!r} to {phase!r}")
        self.phase = phase

    @property
    def terminal(self) -> bool:
        return self.phase in ("done", "aborted")

    @property
    def duration(self) -> float | None:
        if self.completed_at is None or self.started_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass(frozen=True)
class MotionKind:
    """What one kind of state motion tells the shared bracket: its labels
    (kept per kind so traces and ledgers read as they always did) and
    whether the GC has a transfer order to send."""

    #: the family's name in error messages and in the ledger's
    #: ``<noun>_in_flight`` deferral reason
    noun: str
    #: select, pausing, moving, remapping, done, aborted — in that order
    phases: tuple[str, ...]
    #: trace event a split host emits when it pauses for this kind
    pause_event: str
    #: whether the GC traces the numbered ``relocation.step`` events
    traces_steps: bool
    #: whether the GC orders the move (``transfer``) once every host
    #: paused; a split/merge owner already holds its order
    orders_transfer: bool


_RELOCATION = MotionKind(
    noun="relocation",
    phases=("cptv_sent", "pausing", "transferring", "remapping", "done", "aborted"),
    pause_event="split.pause",
    traces_steps=True,
    orders_transfer=True,
)
_REPARTITION = MotionKind(
    noun="repartition",
    phases=("ordered", "pausing", "installing", "remapping", "done", "aborted"),
    pause_event="repartition.pause",
    traces_steps=False,
    orders_transfer=False,
)
MOTION_KINDS = {
    "relocate": _RELOCATION,
    "drain": _RELOCATION,
    "split": _REPARTITION,
    "merge": _REPARTITION,
}


@dataclass
class MotionSession(Session):
    """GC-side state of one in-flight state motion.

    One session exists at a time (the paper's pair-wise model); the GC
    refuses to start another until :attr:`phase` reaches a terminal state.
    A split or merge rebuilds state in place: its owner is both ``sender``
    and ``receiver``.
    """

    kind: str  # "relocate" | "drain" | "split" | "merge"
    sender: str
    receiver: str
    split_hosts: tuple[str, ...]
    started_at: float
    amount: int = 0
    phase: str = field(init=False)
    #: the partitions paused at the splits
    partition_ids: tuple[int, ...] = ()
    state_bytes: int = 0
    #: split hosts whose ack for the current phase is still outstanding
    pending: set[str] = field(default_factory=set)
    completed_at: float | None = None
    #: id of this session's trace span (0 = tracing disabled)
    trace_span: int = 0
    #: id of the GC's decision-ledger entry (0 = ledger disabled)
    ledger_entry: int = 0
    #: when the last split pause ack arrived (start of the paused window;
    #: the ledger's realized pause duration runs from here to the end)
    paused_at: float | None = None
    #: split/merge only: ``(kind, parent, children)`` and the trie depth
    refinement: tuple[str, int, tuple[int, int]] | None = None
    depth: int = 0

    def __post_init__(self) -> None:
        self.phase = self.phases[0]

    @property
    def spec(self) -> MotionKind:
        return MOTION_KINDS[self.kind]

    @property
    def noun(self) -> str:
        return self.spec.noun

    @property
    def phases(self) -> tuple[str, ...]:
        return self.spec.phases

    def step(self) -> None:
        """Advance to the next phase of the bracket."""
        self.advance(self.phases[self.phases.index(self.phase) + 1])
