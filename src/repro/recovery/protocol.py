"""Recovery protocol: typed messages and the GC-side recovery session.

The crash-recovery protocol deliberately mirrors the relocation protocol of
:mod:`repro.core.relocation` — it is the same quiesce / move-state / remap
state machine, re-targeted at a machine that can no longer cooperate:

1. **detect** — the coordinator's failure detector notices a worker's
   statistics heartbeats have stopped for ``failure_timeout`` seconds.
2. **GC → split hosts** ``pause_owned`` — buffer every partition currently
   routed to the dead machine (the splits know the routing table; the GC
   does not need per-partition state, preserving the paper's light-weight
   coordinator).
3. **split hosts → GC** ``owned_paused`` — the affected partition IDs.
4. **GC → survivors** ``restore`` — the latest durable snapshot of each
   lost partition (from the :class:`~repro.recovery.checkpoint.
   CheckpointStore`), assigned least-loaded-first.  Targets thaw and
   install the groups exactly like a relocation receiver, then ack
   ``restored``.
5. **GC → split hosts** ``recover_route`` — remap the partitions to their
   new owners, flush relocation-style buffered tuples, and *replay* the
   post-checkpoint input suffix from the source's replay log (minus the
   tuple identities already contained in the restored snapshots).
6. **split hosts → GC** ``rerouted`` — session complete; a ``recovery``
   adaptation event is recorded.

Exactly-once rests on two invariants maintained by the checkpoint layer:
a worker's results are released downstream only at durable commits, and
the source's replay log always holds exactly the input suffix not yet
covered by durable state (snapshots or spill segments).  Replaying that
suffix therefore regenerates precisely the results lost with the crash —
the symmetric join's result set over a set of tuples does not depend on
arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.relocation import Session

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.checkpoint import CheckpointEntry

#: Identity of one input tuple: ``(stream, seq)``.
TupleIdent = tuple[str, int]


# ----------------------------------------------------------------------
# Protocol payloads (network message bodies, keyed by Message.kind)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrimRequest:
    """``trim``: a worker tells the source host which tuple identities are
    now covered by durable state (checkpoint snapshots and spill segments)
    and can be dropped from the replay log."""

    machine: str
    covered: Mapping[int, frozenset[TupleIdent]]


@dataclass(frozen=True)
class PauseOwnedRequest:
    """Step 2 (``pause_owned``): buffer all partitions routed to
    ``machine`` (the presumed-dead worker)."""

    machine: str
    #: trace span of the recovery session (0 when tracing is disabled);
    #: lets split hosts attribute their pause/replay events causally.
    trace_span: int = 0


@dataclass(frozen=True)
class OwnedPausedAck:
    """Step 3 (``owned_paused``): one split host's affected partitions."""

    host: str
    machine: str
    partition_ids: tuple[int, ...]


@dataclass(frozen=True)
class RestoreRequest:
    """Step 4 (``restore``): durable snapshots for a survivor to install.

    ``partition_ids`` lists every partition assigned to this target —
    including ones with no durable snapshot yet (their state is rebuilt
    purely from the replay suffix); ``entries`` holds the snapshots that
    do exist."""

    machine: str  # the dead worker being recovered
    partition_ids: tuple[int, ...]
    entries: tuple["CheckpointEntry", ...]
    total_bytes: int
    trace_span: int = 0


@dataclass(frozen=True)
class RestoredAck:
    """Step 4 completion (``restored``): the target installed the groups."""

    machine: str  # the restoring survivor
    partition_ids: tuple[int, ...]
    total_bytes: int


@dataclass(frozen=True)
class RecoverRouteRequest:
    """Step 5 (``recover_route``): remap, flush, and replay.

    ``restored`` carries the tuple identities contained in the snapshots
    just installed, so the source replays exactly the uncovered suffix —
    passing the set explicitly avoids any race with in-flight ``trim``
    messages from before the crash.  ``resident`` lists partitions whose
    assigned owner already holds the *live* group (e.g. a cancelled
    relocation hand-off): they are remapped and their buffers flushed,
    but nothing is replayed — the owner processed every forwarded tuple,
    so a replay would duplicate its not-yet-released results."""

    machine: str
    assignments: tuple[tuple[int, str], ...]  # (pid, new_owner)
    restored: Mapping[int, frozenset[TupleIdent]]
    resident: tuple[int, ...] = ()
    trace_span: int = 0


@dataclass(frozen=True)
class RerouteAck:
    """Step 6 (``rerouted``): one split host remapped and replayed."""

    host: str
    tuples_replayed: int


@dataclass(frozen=True)
class AbortTransferRequest:
    """``abort_transfer``: cancel a relocation hand-off at the (live)
    sender because the receiver died mid-protocol.

    Clears the sender's marker/transfer bookkeeping so a still-pending
    pack never evicts state towards the dead receiver, and resets its
    relocation mode.  Sent by the coordinator whenever it aborts a
    session with a dead receiver; the ack doubles as a barrier for the
    recovery planner — by the time it arrives, either the hand-off was
    cancelled (live state retained by the sender) or its durable
    hand-off commit is registered."""

    partition_ids: tuple[int, ...]
    receiver: str  # the dead machine the transfer was headed to


@dataclass(frozen=True)
class TransferAborted:
    """``transfer_aborted``: the sender's ack.  ``cancelled`` is ``True``
    when a not-yet-evicted hand-off was cancelled (the sender kept the
    live groups); ``False`` when there was nothing left to cancel (the
    state had already been packed and shipped, or none was pending)."""

    machine: str
    cancelled: bool


# ----------------------------------------------------------------------
# Session state machine (lives at the GC, inside the RecoveryManager)
# ----------------------------------------------------------------------

#: Recovery phases, in protocol order.
RECOVERY_PHASES = ("pausing", "restoring", "rerouting", "done")


@dataclass
class RecoverySession(Session):
    """GC-side state of one in-flight crash recovery.

    Like relocation, one session runs at a time; further failures queue
    behind it (see :class:`~repro.recovery.manager.RecoveryManager`).
    """

    noun = "recovery"
    phases = RECOVERY_PHASES

    machine: str
    started_at: float
    phase: str = "pausing"
    partition_ids: tuple[int, ...] = ()
    assignments: tuple[tuple[int, str], ...] = ()
    #: partitions routed to their assigned owner without restore or replay
    #: (the owner already holds the live group — see RecoverRouteRequest)
    resident: tuple[int, ...] = ()
    restored_idents: dict[int, frozenset[TupleIdent]] = field(default_factory=dict)
    pending_pause_acks: set[str] = field(default_factory=set)
    #: relocation senders whose hand-off abort ack is still outstanding
    pending_abort_acks: set[str] = field(default_factory=set)
    pending_restore_acks: set[str] = field(default_factory=set)
    pending_route_acks: set[str] = field(default_factory=set)
    bytes_restored: int = 0
    tuples_replayed: int = 0
    completed_at: float | None = None
    #: id of this session's "recovery" trace span (0 = tracing disabled)
    trace_span: int = 0
