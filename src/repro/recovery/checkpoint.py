"""Checkpointing: durable snapshots of live partition groups.

Two cooperating pieces:

* :class:`CheckpointStore` — the cluster-wide registry of the **latest
  durable snapshot per partition** (modelling journaled or network-attached
  storage that survives a machine crash).  Per-partition granularity is
  essential: after a relocation the partitions of one machine may have been
  snapshotted by different machines at different times, and recovery must
  be able to restore each partition independently.
* :class:`CheckpointManager` — one per worker.  Driven by a periodic timer
  (``checkpoint_interval``) and by the adaptation paths (spill completion,
  relocation hand-off, state install), it freezes the machine's dirty
  partition groups through the existing
  :meth:`~repro.engine.state_store.StateStore.state_of` path, charges the
  serialisation CPU and disk I/O through the normal cost models, and then
  performs a **full-machine commit**:

  1. record the snapshots in the registry (dropping entries for partitions
     whose live group left this machine without a hand-off, e.g. a spill);
  2. release the engine's buffered outputs downstream (results are only
     observable once the state that produced them is durable, so a crash
     can never have emitted results it cannot regenerate);
  3. ``trim`` the source host's replay log of every tuple identity now
     covered by durable state — snapshots *and* the spill segments parked
     on this machine's disk.  A trim carries what is *new* since the last
     one: a columnar snapshot shares its live group's append-only columns,
     so only the rows past the previous commit's bound can still be in
     the log, and a spill segment never changes after its first trim.

The commit runs as a control-priority machine task, so it is atomic with
respect to tuple processing and is simply lost (never half-applied) if the
machine crashes mid-commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.cluster.machine import PRIORITY_CONTROL, DynamicTask
from repro.recovery.protocol import TrimRequest, TupleIdent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro.cluster.disk import Disk
    from repro.cluster.machine import Machine
    from repro.obs.hub import ObsHub
    from repro.cluster.network import Network
    from repro.cluster.simulation import Simulator
    from repro.core.config import AdaptationConfig, CostModel
    from repro.engine.columns import FrozenColumnGroup
    from repro.engine.state_store import StateStore

from repro.cluster.simulation import Timer

#: Fallback read-cost parameters when a snapshot's owner disk is unknown.
_DEFAULT_SEEK_TIME = 0.008
_DEFAULT_READ_BANDWIDTH = 60e6


@dataclass(frozen=True)
class CheckpointEntry:
    """The latest durable snapshot of one partition group.

    ``owner`` is the machine whose live state was snapshotted and whose
    disk stores the bytes; ``holder`` always names the same machine.
    """

    pid: int
    owner: str
    holder: str
    time: float
    frozen: "FrozenColumnGroup"
    size_bytes: int
    #: whether the owner kept the live group after this commit.  ``False``
    #: for relocation hand-off entries (the live copy was evicted and is in
    #: flight) — recovery must then restore from the snapshot, whereas a
    #: ``live`` entry owned by a survivor needs no restore at all: the
    #: survivor's store is already current.
    live: bool = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointEntry(pid={self.pid}, owner={self.owner!r}, "
            f"holder={self.holder!r}, {self.size_bytes}B @ t={self.time:.1f})"
        )


class CheckpointStore:
    """Cluster-wide registry of the latest durable snapshot per partition.

    An entry survives until superseded by a newer snapshot of the same
    partition or explicitly dropped (when the partition's live group left
    its owner with no successor — a spill, whose durability the disk
    segment provides instead).  Entries are **never** dropped merely
    because their owner handed the state to another machine: until the
    receiver commits its own snapshot, the sender's entry is the only
    durable copy.
    """

    def __init__(self, disks: Mapping[str, "Disk"] | None = None) -> None:
        #: per-machine disks, for charging restore-time read I/O
        self.disks: dict[str, "Disk"] = dict(disks or {})
        self._latest: dict[int, CheckpointEntry] = {}
        self.commits = 0
        self.entries_written = 0
        self.bytes_written = 0
        #: durable routing topology: the refinement trie as of the last
        #: committed split/merge (parent pid -> children) plus a version
        #: counter.  Recorded by the owner in the same commit that
        #: registers the child snapshots and drops the parent's, so crash
        #: replay after a split re-homes the *children* — the registry's
        #: pid set and its routing record can never disagree.
        self.routing_version = 0
        self.refinements: dict[int, tuple[int, int]] = {}

    def note_split(self, parent: int, children: tuple[int, int]) -> None:
        """Record a committed split's routing flip (owner side)."""
        self.refinements[parent] = tuple(children)
        self.routing_version += 1

    def note_merge(self, parent: int) -> None:
        """Record a committed merge's routing flip (owner side)."""
        self.refinements.pop(parent, None)
        self.routing_version += 1

    def record(
        self,
        entries: Iterable[CheckpointEntry],
        *,
        drop: Iterable[int] = (),
    ) -> None:
        """Apply one commit: drop superseded partitions, upsert snapshots."""
        for pid in drop:
            self._latest.pop(pid, None)
        for entry in entries:
            self._latest[entry.pid] = entry
            self.entries_written += 1
            self.bytes_written += entry.size_bytes
        self.commits += 1

    def publish_metrics(self, registry, labels: dict | None = None) -> None:
        """Pull-collector: cluster-wide durable-snapshot counters.
        ``labels`` keeps concurrent deployments apart on a shared
        registry."""
        registry.counter(
            "repro_checkpoint_commits_total",
            help="Commits applied to the snapshot registry",
            labels=labels,
        ).set_total(self.commits)
        registry.counter(
            "repro_checkpoint_entries_total",
            help="Snapshot entries written",
            labels=labels,
        ).set_total(self.entries_written)
        registry.counter(
            "repro_checkpoint_registry_bytes_total",
            help="Snapshot bytes written",
            labels=labels,
        ).set_total(self.bytes_written)
        registry.gauge(
            "repro_checkpoint_registry_resident_bytes",
            help="Durable snapshot state currently registered",
            labels=labels,
        ).set(self.total_bytes)

    def latest(self, pid: int) -> CheckpointEntry | None:
        return self._latest.get(pid)

    def entries(self) -> tuple[CheckpointEntry, ...]:
        return tuple(self._latest[pid] for pid in sorted(self._latest))

    def partition_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._latest))

    @property
    def total_bytes(self) -> int:
        """Bytes of durable snapshot state currently registered."""
        return sum(e.size_bytes for e in self._latest.values())

    def restore_read_duration(self, entry: CheckpointEntry) -> float:
        """Seconds to read one snapshot back, charging the owner's disk."""
        disk = self.disks.get(entry.owner)
        if disk is None:
            return _DEFAULT_SEEK_TIME + entry.size_bytes / _DEFAULT_READ_BANDWIDTH
        disk.account_read(entry.size_bytes)
        return disk.read_duration(entry.size_bytes)


class CheckpointManager:
    """Per-worker checkpoint driver (see module docstring).

    Parameters
    ----------
    sim / network / machine / disk / store / metrics:
        The worker's substrate objects (``store`` is its
        :class:`~repro.engine.state_store.StateStore`).
    registry:
        The shared :class:`CheckpointStore`.
    config / cost:
        The checkpoint knob (``checkpoint_interval``) and the hardware
        cost model.
    source_name:
        The split host to send ``trim`` messages to.
    on_flush:
        Callback releasing the engine's buffered outputs; invoked at every
        commit.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        machine: "Machine",
        disk: "Disk",
        store: "StateStore",
        registry: CheckpointStore,
        config: "AdaptationConfig",
        cost: "CostModel",
        metrics: "ObsHub",
        *,
        source_name: str = "source",
        on_flush=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.machine = machine
        self.disk = disk
        self.store = store
        self.registry = registry
        self.config = config
        self.cost = cost
        self.metrics = metrics
        self.source_name = source_name
        self.on_flush = on_flush
        self._timer: Timer | None = None
        #: mutation counter per partition at its last snapshot
        self._last_snapshot: dict[int, int] = {}
        #: partitions this machine currently has registry entries for
        self._registered: set[int] = set()
        #: per live pid, the identity column (``row_seq`` buffer) and row
        #: bound of the last snapshot a trim was sent for.  The buffer is a
        #: held reference, so "the next snapshot shares it" is an ``is``
        #: test that no recycled ``id()`` can fool.
        self._trim_marks: dict[int, tuple[array, int]] = {}
        #: spill segments a trim was already sent for, by ``id()`` (held
        #: for the same reason): a segment is immutable
        self._trimmed_segments: dict[int, object] = {}
        self.checkpoints = 0
        self.bytes_checkpointed = 0
        #: tuple identities shipped to the source in ``trim`` messages
        self.trim_idents_sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = Timer(
                self.sim, self.config.checkpoint_interval, self._periodic
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    def reset(self) -> None:
        """Forget incremental bookkeeping after a crash: the next commit of
        the restarted (empty) machine starts from a clean slate.  Registry
        entries are *not* touched — they are the durable record recovery
        restores from."""
        self._last_snapshot.clear()
        self._registered.clear()
        self._trim_marks.clear()
        self._trimmed_segments.clear()

    def _periodic(self) -> None:
        self.commit("interval")

    # ------------------------------------------------------------------
    # The commit
    # ------------------------------------------------------------------
    def commit(
        self,
        reason: str,
        *,
        handoff: Iterable["FrozenColumnGroup"] = (),
        on_committed=None,
    ) -> None:
        """Submit a full-machine commit as a control-priority task.

        ``handoff`` carries groups just evicted for a relocation transfer:
        they are written durably here before the transfer may leave the
        machine, while regular snapshots are taken from the live store at
        task start.  ``on_committed`` runs at the very end of the commit —
        the sender uses it to ship the hand-off state, guaranteeing the
        receiver can only install (and trim the replay log for) state
        whose pre-eviction results this machine has already durably
        released.  A crash suppresses the whole commit including the
        callback, so the transfer simply never happens.
        """
        handoff = tuple(handoff)

        def begin():
            live = set(self.store.partition_ids())
            dirty = sorted(
                pid
                for pid in live
                if self.store.mutations.get(pid, 0) != self._last_snapshot.get(pid)
            )
            snapshots = [s for s in (self.store.state_of(pid) for pid in dirty)
                         if s is not None]
            total = sum(s.size_bytes for s in snapshots)
            total += sum(f.size_bytes for f in handoff)
            name = self.machine.name
            duration = (
                total * self.cost.serialize_cost_per_byte
                + self.disk.write_duration(total)
            )

            def finish() -> None:
                now = self.sim.now
                entries = [
                    CheckpointEntry(
                        pid=s.pid,
                        owner=name,
                        holder=name,
                        time=now,
                        frozen=s,
                        size_bytes=s.size_bytes,
                        live=live_copy,
                    )
                    for group, live_copy in ((snapshots, True), (handoff, False))
                    for s in group
                ]
                # Partitions we had registered whose live group is gone and
                # was not handed off went to disk (spill): the segment is
                # now the durable copy, the stale snapshot must not resurface.
                drop = self._registered - live - {f.pid for f in handoff}
                self.registry.record(entries, drop=drop)
                if total:
                    self.disk.stats.bytes_written += total
                    self.disk.stats.writes += 1
                self._registered = set(live)
                for pid in dirty:
                    self._last_snapshot[pid] = self.store.mutations.get(pid, 0)
                for table in (self._last_snapshot, self._trim_marks):
                    for pid in [pid for pid in table if pid not in live]:
                        del table[pid]
                if self.on_flush is not None:
                    self.on_flush()
                self._send_trim(snapshots, handoff)
                self.checkpoints += 1
                self.bytes_checkpointed += total
                self.metrics.events.record(
                    now,
                    "checkpoint",
                    name,
                    reason=reason,
                    bytes=total,
                    partitions=len(entries),
                    holder=name,
                )
                tracer = self.metrics.tracer
                if tracer.enabled:
                    tracer.event(
                        "checkpoint.commit",
                        machine=name,
                        reason=reason,
                        bytes=total,
                        pids=tuple(e.pid for e in entries),
                        handoff=tuple(f.pid for f in handoff),
                        dropped=tuple(sorted(drop)),
                        holder=name,
                    )
                if on_committed is not None:
                    on_committed()

            return duration, finish

        self.machine.submit(
            DynamicTask(begin, priority=PRIORITY_CONTROL, label=f"checkpoint:{reason}")
        )

    def _send_trim(self, snapshots, handoff) -> None:
        """Tell the source which logged identities just became durable.

        Every trim is effective on arrival (the source applies a covered
        set to the entries wherever they are filed), so nothing is ever
        sent twice: a live snapshot whose identity column is the one the
        previous trim of its pid read ships only the rows past that
        trim's bound — the first commit of a group, a thawed/installed or
        purged group (fresh buffers) and a hand-off ship the full set —
        and a spill segment goes into the first trim after it landed on
        this disk.
        """
        covered: dict[int, frozenset[TupleIdent]] = {}

        def cover(pid: int, idents: frozenset[TupleIdent]) -> None:
            if idents:
                covered[pid] = covered.get(pid, frozenset()) | idents
                self.trim_idents_sent += len(idents)

        marks = self._trim_marks
        for frozen in snapshots:
            buffer = frozen.row_seq
            mark = marks.get(frozen.pid)
            start = mark[1] if mark is not None and mark[0] is buffer else 0
            marks[frozen.pid] = (buffer, frozen.nrows)
            cover(frozen.pid, frozen.idents(start))
        for frozen in handoff:
            cover(frozen.pid, frozen.idents())
        trimmed = self._trimmed_segments
        segments = self.disk.segments
        for segment in segments:
            if id(segment) not in trimmed:
                cover(segment.partition_id, segment.frozen.idents())
        self._trimmed_segments = {id(segment): segment for segment in segments}
        if not (snapshots or handoff or segments):
            return
        # sent even when nothing is new: the message is simulated traffic,
        # and simulated behaviour does not depend on how a trim is encoded
        self.network.send(
            self.machine.name,
            self.source_name,
            "trim",
            TrimRequest(machine=self.machine.name, covered=covered),
            self.cost.control_message_bytes,
        )
