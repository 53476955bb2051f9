"""Simulated compute-cluster substrate.

The paper evaluates its adaptation strategies on a 10-machine Xeon cluster
connected by gigabit Ethernet.  This package provides the equivalent
*deterministic discrete-event* substrate: an event-driven simulator
(:mod:`repro.cluster.simulation`), machines with byte-accurate memory
accounting and FIFO CPU service (:mod:`repro.cluster.machine`), disks with a
bandwidth/seek cost model (:mod:`repro.cluster.disk`), and a network fabric
with latency and per-link bandwidth (:mod:`repro.cluster.network`).
Observability (metrics, event logs, tracing, the decision ledger) lives in
:mod:`repro.obs`.

All durations are in (simulated) seconds and all sizes in bytes.
"""

from repro.cluster.disk import Disk, DiskStats, SpillSegment
from repro.cluster.faults import (
    CpuSlowdown,
    Fault,
    FaultSchedule,
    NetworkDegradation,
)
from repro.cluster.machine import DynamicTask, Machine, Task
from repro.cluster.network import Message, Network
from repro.cluster.simulation import Event, Simulator, Timer

__all__ = [
    "CpuSlowdown",
    "Disk",
    "DiskStats",
    "DynamicTask",
    "Event",
    "Fault",
    "FaultSchedule",
    "Machine",
    "Message",
    "Network",
    "NetworkDegradation",
    "Simulator",
    "SpillSegment",
    "Task",
    "Timer",
]
