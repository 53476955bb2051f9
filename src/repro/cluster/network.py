"""Network fabric: point-to-point messages with latency and bandwidth.

The paper's cluster uses a private gigabit Ethernet, and its key empirical
finding about the network (Section 4.2, Figure 9) is that pair-wise state
relocation is *cheap* relative to disk I/O on such a fabric.  The model here
reproduces the two components that matter:

* a fixed per-message **latency** (propagation + protocol overhead), and
* per-ordered-link **bandwidth** serialisation — concurrent transfers on
  the same directed (src, dst) link queue behind each other, so a bulk
  state transfer genuinely delays subsequent messages on that link.

Messages carry an opaque ``payload`` and are delivered by invoking the
destination's ``deliver`` callback *as a simulator event* — components never
call each other synchronously across machines, which keeps the distributed
control protocols honest (a coordinator cannot observe remote state it was
never sent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster.simulation import Simulator


@dataclass(slots=True)
class Message:
    """One network message.

    ``kind`` is a short routing tag (``"stats"``, ``"cptv"``, ``"state"``,
    ``"tuple"`` ...); ``payload`` is interpreted by the receiver.  One is
    built per send, so the class is a plain slotted record: a frozen
    dataclass pays an ``object.__setattr__`` per field on construction.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    size_bytes: int
    sent_at: float


@dataclass
class NetworkStats:
    """Cumulative traffic counters, split into data and control planes."""

    messages: int = 0
    bytes_sent: int = 0
    control_messages: int = 0
    control_bytes: int = 0
    state_transfer_bytes: int = 0


class Network:
    """Shared switch connecting all machines.

    Parameters
    ----------
    sim:
        The owning simulator.
    latency:
        One-way per-message latency in seconds (default 0.2 ms — a LAN RTT
        of ~0.4 ms, typical of the paper's gigabit cluster).
    bandwidth:
        Per-directed-link bandwidth in bytes/second (default 125 MB/s,
        i.e. 1 Gbit/s).
    """

    #: message kinds that count as adaptation/state traffic rather than
    #: data.  The paper argues the global coordinator stays scalable
    #: because it exchanges only light-weight statistics; the control
    #: counters let tests verify that.
    DEFAULT_CONTROL_KINDS = frozenset(
        {"stats", "cptv", "ptv", "pause", "paused", "marker", "transfer",
         "installed", "remap", "resumed", "start_ss", "ss_done",
         # split/merge order and its ack (the rest of that protocol is the
         # shared pause/marker/installed/remap/resumed bracket above)
         "repartition", "repartition_ack",
         # recovery protocol (repro.recovery); the bulk "restore" payload
         # is deliberately excluded — state traffic, like "state"
         "trim", "pause_owned", "owned_paused", "restored",
         "recover_route", "rerouted", "abort_transfer", "transfer_aborted"}
    )

    def __init__(
        self,
        sim: Simulator,
        *,
        latency: float = 0.0002,
        bandwidth: float = 125e6,
    ) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self.stats = NetworkStats()
        self._endpoints: dict[str, Callable[[Message], None]] = {}
        self._link_free: dict[tuple[str, str], float] = {}

    def publish_metrics(self, registry) -> None:
        """Pull-collector: copy the traffic counters into the registry."""
        registry.counter(
            "repro_network_messages_total", help="Messages sent",
        ).set_total(self.stats.messages)
        registry.counter(
            "repro_network_bytes_total", help="Payload bytes sent",
        ).set_total(self.stats.bytes_sent)
        registry.counter(
            "repro_network_control_messages_total",
            help="Adaptation/control-plane messages sent",
        ).set_total(self.stats.control_messages)
        registry.counter(
            "repro_network_control_bytes_total",
            help="Adaptation/control-plane bytes sent",
        ).set_total(self.stats.control_bytes)
        registry.counter(
            "repro_network_state_transfer_bytes_total",
            help="Bulk relocation/recovery state bytes sent",
        ).set_total(self.stats.state_transfer_bytes)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, name: str, deliver: Callable[[Message], None]) -> None:
        """Attach an endpoint; ``deliver(message)`` fires on arrival."""
        if name in self._endpoints:
            raise ValueError(f"endpoint {name!r} already registered")
        self._endpoints[name] = deliver

    def endpoints(self) -> tuple[str, ...]:
        return tuple(sorted(self._endpoints))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, kind: str, payload: Any, size_bytes: int) -> Message:
        """Transmit a message; delivery is scheduled as a simulator event.

        Transfers on the same directed link serialise: transmission starts
        when the link frees up, occupies it for ``size_bytes / bandwidth``
        seconds, and the message lands ``latency`` seconds after its last
        byte leaves.
        """
        if dst not in self._endpoints:
            raise KeyError(f"unknown network endpoint {dst!r}")
        if size_bytes < 0:
            raise ValueError(f"negative message size {size_bytes!r}")
        message = Message(
            src=src, dst=dst, kind=kind, payload=payload,
            size_bytes=size_bytes, sent_at=self.sim.now,
        )
        link = (src, dst)
        start = max(self.sim.now, self._link_free.get(link, 0.0))
        transmit = size_bytes / self.bandwidth
        self._link_free[link] = start + transmit
        arrival = start + transmit + self.latency
        self.sim.schedule_at(arrival, self._deliver, message)

        self.stats.messages += 1
        self.stats.bytes_sent += size_bytes
        if kind in self.DEFAULT_CONTROL_KINDS:
            self.stats.control_messages += 1
            self.stats.control_bytes += size_bytes
        if kind in ("state", "restore"):
            self.stats.state_transfer_bytes += size_bytes
        return message

    def _deliver(self, message: Message) -> None:
        self._endpoints[message.dst](message)
