"""Split operator: hash partitioning, routing, and relocation buffering.

One :class:`Split` sits in front of each input stream of a partitioned
stateful operator (paper §2, Figure 2).  It divides the stream into many
more partitions than there are machines — "e.g. 500 partitions over 10
machines" — so adaptation never re-hashes existing state: moving a
partition only updates the routing table.

During a state relocation, the split **buffers** tuples of the affected
partition IDs (paper §4.1: "all tuples belonging to the partition groups
affected by the current adaptation process ... are temporarily buffered at
the query engine on which the corresponding split operator sits") and
replays them toward the new owner once the coordinator confirms the
remapping.  Each split owns its *own* copy of the routing table, updated
only by explicit remap messages — exactly the distributed-consistency
challenge the paper's 8-step protocol exists to manage.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.engine.operators.base import Operator
from repro.engine.tuples import ArrivalBatch, StreamTuple


class PartitionMap:
    """A routing table: partition ID -> owning machine name.

    Every split holds its own instance; the relocation protocol keeps the
    copies convergent.  Also used by the deployment planner to express the
    initial (possibly skewed) assignment of the paper's experiments.
    """

    def __init__(self, assignment: dict[int, str]) -> None:
        if not assignment:
            raise ValueError("partition map cannot be empty")
        self._owner = dict(assignment)

    @classmethod
    def round_robin(cls, n_partitions: int, machines: list[str]) -> "PartitionMap":
        """Spread ``n_partitions`` IDs evenly over ``machines``."""
        if n_partitions <= 0:
            raise ValueError("need at least one partition")
        if not machines:
            raise ValueError("need at least one machine")
        return cls({pid: machines[pid % len(machines)] for pid in range(n_partitions)})

    @classmethod
    def weighted(cls, n_partitions: int, weights: dict[str, float]) -> "PartitionMap":
        """Assign contiguous ID ranges sized proportionally to ``weights``.

        Used for the paper's skewed initial distributions (60/20/20 in
        Figure 11, 2/3 vs 1/6+1/6 in Figure 12).  Every weight must be
        finite and non-negative, and at least one positive.
        """
        if n_partitions <= 0:
            raise ValueError("need at least one partition")
        for machine, weight in weights.items():
            if not weight >= 0 or math.isinf(weight):
                raise ValueError(
                    f"weight of {machine!r} must be finite and >= 0, "
                    f"got {weight!r}"
                )
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        machines = list(weights)
        assignment: dict[int, str] = {}
        start = 0
        acc = 0.0
        for i, machine in enumerate(machines):
            acc += weights[machine]
            end = n_partitions if i == len(machines) - 1 else round(n_partitions * acc / total)
            for pid in range(start, end):
                assignment[pid] = machine
            start = end
        return cls(assignment)

    def owner(self, pid: int) -> str:
        try:
            return self._owner[pid]
        except KeyError:
            raise KeyError(f"partition {pid} has no assigned machine") from None

    def remap(self, pids: Iterable[int], machine: str) -> None:
        for pid in pids:
            if pid not in self._owner:
                raise KeyError(f"cannot remap unknown partition {pid}")
            self._owner[pid] = machine

    def install(self, pid: int, machine: str) -> None:
        """Register a new partition ID (a repartition child group)."""
        if pid in self._owner:
            raise KeyError(f"partition {pid} already mapped")
        self._owner[pid] = machine

    def remove(self, pid: int) -> None:
        """Retire a partition ID (a split parent / merged children)."""
        if pid not in self._owner:
            raise KeyError(f"cannot remove unknown partition {pid}")
        del self._owner[pid]

    def partitions_of(self, machine: str) -> tuple[int, ...]:
        return tuple(sorted(p for p, m in self._owner.items() if m == machine))

    def machines(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._owner.values())))

    @property
    def n_partitions(self) -> int:
        return len(self._owner)

    def copy(self) -> "PartitionMap":
        return PartitionMap(dict(self._owner))

    def as_dict(self) -> dict[int, str]:
        return dict(self._owner)


class Split(Operator):
    """Partition one input stream and route tuples to join instances.

    Parameters
    ----------
    name:
        Operator name (``"split_A"`` ...).
    n_partitions:
        Number of hash partitions (much larger than the machine count).
    partition_map:
        This split's private routing table.
    """

    def __init__(self, name: str, n_partitions: int, partition_map: PartitionMap) -> None:
        super().__init__(name)
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if partition_map.n_partitions != n_partitions:
            raise ValueError(
                f"partition map covers {partition_map.n_partitions} partitions, "
                f"split expects {n_partitions}"
            )
        self.n_partitions = n_partitions
        self.partition_map = partition_map
        self._paused: set[int] = set()
        self._buffers: dict[int, list[StreamTuple]] = {}
        self.buffered_total = 0
        #: repartition refinement trie: split parent pid -> (child0, child1).
        #: Routing first hashes ``key % n_partitions`` then descends while
        #: the pid is refined, consuming one bit of ``key // n_partitions``
        #: per level — only leaves split, so the loop counter equals the
        #: node's depth.
        self._refine: dict[int, tuple[int, int]] = {}
        #: bumped on every refinement change; flipped atomically with the
        #: partition-map edit inside :meth:`apply_split`/:meth:`apply_merge`
        self.routing_version = 0

    def route(self, key: int) -> int:
        """Partition ID for a join-key value (stable hash + refinement)."""
        pid = key % self.n_partitions
        refine = self._refine
        if not refine:
            return pid
        bits = key // self.n_partitions
        depth = 0
        while pid in refine:
            pid = refine[pid][(bits >> depth) & 1]
            depth += 1
        return pid

    def process(self, item: StreamTuple) -> Iterator[tuple[int, str, StreamTuple]]:
        """Route one tuple: yields ``(pid, owner_machine, tuple)`` or nothing
        if the tuple was buffered because its partition is mid-relocation."""
        self.inputs_seen += 1
        pid = self.route(item.key)
        if pid in self._paused:
            self._buffers.setdefault(pid, []).append(item)
            self.buffered_total += 1
            return
        self.outputs_emitted += 1
        yield pid, self.partition_map.owner(pid), item

    def process_columns(self, batch: ArrivalBatch
                        ) -> list[tuple[int, str, list[int]]]:
        """Route a whole arrival batch in one pass over its key column.

        The columnar counterpart of calling :meth:`process` per row:
        returns ``(pid, owner_machine, row_indices)`` per partition in
        first-occurrence order, row indices ascending.  Rows of partitions
        that are mid-relocation are materialised into the buffers instead
        (the only rows of the batch that become ``StreamTuple`` objects
        here).  Counters advance exactly as the per-row calls would.
        """
        n_partitions = self.n_partitions
        if self._refine:
            pids = map(self.route, batch.keys)
        else:
            pids = [key % n_partitions for key in batch.keys]
        groups: dict[int, list[int]] = {}
        for i, pid in enumerate(pids):
            rows = groups.get(pid)
            if rows is None:
                groups[pid] = [i]
            else:
                rows.append(i)
        self.inputs_seen += len(batch)
        paused = self._paused
        owner_of = self.partition_map.owner
        routed: list[tuple[int, str, list[int]]] = []
        for pid, rows in groups.items():
            if pid in paused:
                self._buffers.setdefault(pid, []).extend(map(batch.row, rows))
                self.buffered_total += len(rows)
            else:
                self.outputs_emitted += len(rows)
                routed.append((pid, owner_of(pid), rows))
        return routed

    # ------------------------------------------------------------------
    # Relocation hooks (driven by the 8-step protocol)
    # ------------------------------------------------------------------
    def pause(self, pids: Iterable[int]) -> None:
        """Start buffering tuples of the given partitions (protocol step 3)."""
        self._paused.update(pids)

    def resume(self, pids: Iterable[int], new_owner: str
               ) -> list[tuple[int, str, StreamTuple]]:
        """Apply the new mapping and drain the buffers (protocol step 7).

        Returns the buffered tuples as routed ``(pid, owner, tuple)`` triples
        in arrival order, ready to be forwarded to the new owner.
        """
        pids = list(pids)
        self.partition_map.remap(pids, new_owner)
        flushed: list[tuple[int, str, StreamTuple]] = []
        for pid in pids:
            self._paused.discard(pid)
            for tup in self._buffers.pop(pid, []):
                flushed.append((pid, new_owner, tup))
                self.outputs_emitted += 1
        return flushed

    # ------------------------------------------------------------------
    # Repartition hooks (driven by the split/merge protocol)
    # ------------------------------------------------------------------
    def apply_split(self, parent: int, children: tuple[int, int], owner: str
                    ) -> list[tuple[int, str, StreamTuple]]:
        """Refine ``parent`` into ``children`` and re-route its buffer.

        The refinement entry, the partition-map edit and the buffer
        re-routing happen in one call, so no tuple can ever observe a
        half-flipped table.  The parent's buffered tuples are returned
        re-routed through the *new* table in arrival order.
        """
        if parent in self._refine:
            return []  # idempotent: a crashed session may re-send the remap
        self._refine[parent] = children
        for child in children:
            self.partition_map.install(child, owner)
        self.partition_map.remove(parent)
        self.routing_version += 1
        self._paused.discard(parent)
        return self._reroute(self._buffers.pop(parent, []), owner)

    def apply_merge(self, parent: int, children: tuple[int, int], owner: str
                    ) -> list[tuple[int, str, StreamTuple]]:
        """Collapse a refinement node: ``children`` fold back into
        ``parent``.  Buffered child tuples are interleaved deterministically
        by ``(ts, stream, seq)`` — the probe-insert join's result set is
        insertion-order independent, so any total order is correct, and this
        one is reproducible."""
        if self._refine.get(parent) != tuple(children):
            return []  # idempotent (see apply_split)
        del self._refine[parent]
        self.partition_map.install(parent, owner)
        buffered: list[StreamTuple] = []
        for child in children:
            self.partition_map.remove(child)
            self._paused.discard(child)
            buffered.extend(self._buffers.pop(child, []))
        self.routing_version += 1
        buffered.sort(key=lambda t: (t.ts, t.stream, t.seq))
        return self._reroute(buffered, owner)

    def _reroute(self, buffered: list[StreamTuple], owner: str
                 ) -> list[tuple[int, str, StreamTuple]]:
        """Release buffered tuples through the current routing table."""
        self.outputs_emitted += len(buffered)
        return [(self.route(tup.key), owner, tup) for tup in buffered]

    @property
    def refinement(self) -> dict[int, tuple[int, int]]:
        """Snapshot of the refinement trie (parent pid -> children)."""
        return dict(self._refine)

    @property
    def paused_partitions(self) -> frozenset[int]:
        return frozenset(self._paused)

    @property
    def buffered_now(self) -> int:
        """Tuples currently sitting in relocation buffers."""
        return sum(len(buf) for buf in self._buffers.values())
