"""Crash-fault tolerance: checkpointing + coordinator-driven recovery.

This subsystem goes beyond the source paper (which assumes reliable
machines) and makes partition-group state *durable* as well as movable:

* :mod:`repro.recovery.checkpoint` — per-worker :class:`CheckpointManager`
  snapshotting live partition groups through the existing freeze path into
  a cluster-wide :class:`CheckpointStore`, with output release and
  replay-log trimming tied to each durable commit;
* :mod:`repro.recovery.protocol` — the recovery message payloads and the
  GC-side :class:`RecoverySession` state machine (a re-targeted relocation
  session);
* :mod:`repro.recovery.manager` — the :class:`RecoveryManager` that
  detects missed statistics heartbeats, re-homes the lost partitions onto
  survivors from their latest snapshots, and replays the uncovered input
  suffix so the exactly-once result-set contract holds across a
  ``MachineCrash``.

Enable with ``AdaptationConfig(checkpoint_enabled=True, ...)``; everything
here is inert (zero behaviour change) when the flag is off.
"""

from repro.recovery.checkpoint import (
    CheckpointEntry,
    CheckpointManager,
    CheckpointStore,
)
from repro.recovery.manager import RecoveryManager
from repro.recovery.protocol import (
    AbortTransferRequest,
    OwnedPausedAck,
    PauseOwnedRequest,
    RecoverRouteRequest,
    RecoverySession,
    RerouteAck,
    RestoredAck,
    RestoreRequest,
    TransferAborted,
    TrimRequest,
)

__all__ = [
    "AbortTransferRequest",
    "CheckpointEntry",
    "CheckpointManager",
    "CheckpointStore",
    "OwnedPausedAck",
    "PauseOwnedRequest",
    "RecoverRouteRequest",
    "RecoverySession",
    "RecoveryManager",
    "RerouteAck",
    "RestoredAck",
    "RestoreRequest",
    "TransferAborted",
    "TrimRequest",
]
