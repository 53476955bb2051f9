"""Join folding: several queries sharing one physical runtime.

Two queries *fold* when their physical runtimes would be byte-identical:
same input streams joined under the same window, same workload (keys,
rates, seed), same partitioning, same adaptation configuration, same
worker set and data path.  :func:`fold_signature` canonicalises exactly
that equality; the server keys its fold index on it.

A :class:`FoldGroup` is the shared runtime plus its member bookkeeping:
the :class:`FanOutCollector` delivers the single physical result stream
to every member's private collector (so each member observes the exact
output sequence an isolated run would), and the member refcount drives
unfold — a retiring member merely detaches from the fan-out; the
runtime itself only stops when the last member leaves.  Spill,
relocation and crash/recovery all happen *inside* the shared runtime and
are therefore transparently survived by every member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.engine.streams import OutputCollector
from repro.engine.tuples import JoinResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import Deployment

__all__ = ["FanOutCollector", "FoldGroup", "fold_signature"]


def fold_signature(
    join, workload, config, workers, *, data_path: str, seed: int,
    assignment=None,
) -> tuple:
    """Canonical fold-compatibility key.

    Two submissions fold iff their signatures compare equal — a
    deliberately *exact* criterion: equality of streams, window, workload
    parameters (including the seed: folded members must see the same
    tuples), adaptation config, worker set, placement and data path is
    what makes the shared runtime bit-compatible with each member's
    isolated runtime.  Join/query *names* are excluded; tenant and memory
    demand are billing facts, not physics, and are excluded too.
    """
    if isinstance(workers, int):
        workers = tuple(f"m{i + 1}" for i in range(workers))
    return (
        tuple(join.stream_names),
        repr(join.window),
        repr(workload),
        repr(config),
        tuple(workers),
        data_path,
        seed,
        repr(assignment),
    )


class FanOutCollector:
    """One physical result stream, delivered to every member query.

    Implements the :class:`~repro.engine.streams.OutputCollector`
    interface the engines talk to.  ``total`` counts the *physical*
    outputs once (the shared runtime's own figure series); each member's
    private collector receives every batch, in member-attach order, so
    per-query totals and materialised results match isolated runs
    exactly.  The fan-out holds no rows itself: every member is handed
    the *same* batch object, so a lazy
    :class:`~repro.engine.columns.ResultBatch` is boxed once for all of
    them, by whichever member reads its results first.
    """

    def __init__(self) -> None:
        self.total = 0
        self._members: dict[str, OutputCollector] = {}

    def attach(self, qid: str, collector: OutputCollector) -> None:
        if qid in self._members:
            raise ValueError(f"query {qid!r} already attached")
        self._members[qid] = collector

    def detach(self, qid: str) -> OutputCollector:
        try:
            return self._members.pop(qid)
        except KeyError:
            raise ValueError(f"query {qid!r} is not attached") from None

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(self._members)

    def add(self, count: int, results: Sequence[JoinResult], now: float,
            source: str | None = None) -> None:
        self.total += count
        for collector in self._members.values():
            collector.add(count, results, now, source=source)


@dataclass
class FoldGroup:
    """One shared runtime and the queries folded onto it.

    ``gid`` doubles as the runtime's machine-name namespace prefix (the
    founding query's id), so every fold group's machines, disks, network
    endpoints and sampled series are disjoint on the shared substrate.
    """

    gid: str
    signature: tuple
    deployment: "Deployment"
    fanout: FanOutCollector
    #: nominal memory demand charged against cluster capacity (the
    #: founder's; folded members add zero cluster charge)
    cluster_charge: int
    members: list[str] = field(default_factory=list)
    #: drain ordered for the last member; runtime is quiescing
    retiring: bool = False

    @property
    def active(self) -> bool:
        return bool(self.members) and not self.retiring

    def attach(self, qid: str, collector: OutputCollector) -> None:
        """Fold one more query onto this runtime (refcount + fan-out)."""
        self.fanout.attach(qid, collector)
        self.members.append(qid)
        if len(self.members) > 1:
            for instance in self.deployment.instances.values():
                instance.store.attach_sharer()

    def detach(self, qid: str) -> None:
        """Unfold one member; shared state keeps serving the rest."""
        self.fanout.detach(qid)
        self.members.remove(qid)
        if self.members:
            for instance in self.deployment.instances.values():
                instance.store.detach_sharer()

    def state_bytes(self) -> int:
        return self.deployment.total_state_bytes()

    def bytes_saved(self) -> int:
        """State bytes the fold avoids duplicating right now: each member
        beyond the first would hold a private copy of every resident
        group in an unfolded world."""
        extra = len(self.members) - 1
        return self.state_bytes() * extra if extra > 0 else 0
