"""Local-disk model used by the state-spill adaptation.

The paper spills inactive partition groups to the local disk of the
overloaded machine and reads them back during the cleanup phase.  The model
here is deliberately simple — a sequential device characterised by a seek
overhead plus write/read bandwidth — because the paper's argument only
depends on the *relative* cost ordering:

    memory access  <<  gigabit network transfer  <  local disk I/O

(Section 4.2: "The state relocation cost is expected to be higher if the
underlying network is slow"; in their gigabit cluster relocation is cheap
while spill/cleanup dominate.)

The disk also acts as the registry of :class:`SpillSegment` objects so the
cleanup phase (:mod:`repro.core.cleanup`) can enumerate what each machine
owes.  Segment payloads live in (host-side) Python memory but are accounted
as disk-resident — they have been *released* from the owning machine's
memory budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.partitions import FrozenPartitionGroup


@dataclass
class DiskStats:
    """Cumulative I/O counters for one disk."""

    bytes_written: int = 0
    bytes_read: int = 0
    writes: int = 0
    reads: int = 0

    def merge(self, other: "DiskStats") -> "DiskStats":
        """Return the element-wise sum of two counters (for cluster totals)."""
        return DiskStats(
            bytes_written=self.bytes_written + other.bytes_written,
            bytes_read=self.bytes_read + other.bytes_read,
            writes=self.writes + other.writes,
            reads=self.reads + other.reads,
        )


@dataclass(frozen=True)
class SpillSegment:
    """One spilled generation of one partition group.

    A partition ID can be spilled repeatedly: after a spill, newly arriving
    tuples accumulate into a *fresh* in-memory partition group with the same
    ID, which may later be spilled again (paper §3, "multiple partition
    groups may exist given one partition ID").  ``generation`` records the
    spill order — the cleanup merge consumes generations oldest-first.
    """

    partition_id: int
    generation: int
    frozen: "FrozenPartitionGroup"
    size_bytes: int
    spilled_at: float
    machine_name: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpillSegment(pid={self.partition_id}, gen={self.generation}, "
            f"{self.size_bytes}B @ {self.machine_name})"
        )


class Disk:
    """Cost model + segment registry for one machine's local disk.

    Parameters
    ----------
    write_bandwidth / read_bandwidth:
        Sustained sequential bandwidth in bytes/second.
    seek_time:
        Fixed per-operation overhead in seconds (positioning + sync).
    """

    def __init__(
        self,
        *,
        write_bandwidth: float = 50e6,
        read_bandwidth: float = 60e6,
        seek_time: float = 0.008,
    ) -> None:
        if write_bandwidth <= 0 or read_bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        if seek_time < 0:
            raise ValueError("seek_time must be non-negative")
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self.seek_time = seek_time
        self.stats = DiskStats()
        self._segments: list[SpillSegment] = []

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def write_duration(self, nbytes: int) -> float:
        """Seconds the CPU is occupied writing ``nbytes`` sequentially."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes!r}")
        return self.seek_time + nbytes / self.write_bandwidth

    def read_duration(self, nbytes: int) -> float:
        """Seconds the CPU is occupied reading ``nbytes`` sequentially."""
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes!r}")
        return self.seek_time + nbytes / self.read_bandwidth

    # ------------------------------------------------------------------
    # Segment registry
    # ------------------------------------------------------------------
    def store_segment(self, segment: SpillSegment) -> None:
        """Record a spilled segment and charge the write counters."""
        self._segments.append(segment)
        self.stats.bytes_written += segment.size_bytes
        self.stats.writes += 1

    def account_read(self, nbytes: int) -> None:
        """Charge the read counters (the cleanup phase calls this)."""
        self.stats.bytes_read += nbytes
        self.stats.reads += 1

    @property
    def segments(self) -> tuple[SpillSegment, ...]:
        """All segments, in spill order."""
        return tuple(self._segments)

    @property
    def resident_bytes(self) -> int:
        """Total bytes of spilled state currently parked on this disk."""
        return sum(s.size_bytes for s in self._segments)

    def segments_for(self, partition_id: int) -> tuple[SpillSegment, ...]:
        """Segments of one partition ID, oldest generation first."""
        matching = [s for s in self._segments if s.partition_id == partition_id]
        matching.sort(key=lambda s: s.generation)
        return tuple(matching)

    def partition_ids(self) -> tuple[int, ...]:
        """Distinct partition IDs with at least one segment, ascending."""
        return tuple(sorted({s.partition_id for s in self._segments}))

    def take_segments(self, partition_ids: Iterable[int] | None = None) -> list[SpillSegment]:
        """Remove and return segments (all, or those of the given IDs).

        Used by the cleanup phase, which drains a disk as it merges.
        """
        if partition_ids is None:
            taken, self._segments = self._segments, []
            return taken
        wanted = set(partition_ids)
        taken = [s for s in self._segments if s.partition_id in wanted]
        self._segments = [s for s in self._segments if s.partition_id not in wanted]
        return taken
