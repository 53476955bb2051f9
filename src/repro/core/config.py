"""Configuration: adaptation tunables (paper Tables 1-2) and the cost model.

Two dataclasses carry every knob of the reproduced system:

* :class:`CostModel` — the simulated hardware: per-tuple CPU costs, disk
  bandwidth/seek, network latency/bandwidth.  Defaults are scaled to the
  paper's cluster class (dual-Xeon nodes, gigabit Ethernet, commodity IDE
  disks) so the *relative* cost ordering the paper's conclusions depend on
  (memory << network < disk) holds.
* :class:`AdaptationConfig` — the paper's tunables: the memory threshold
  that triggers a local spill, the spill fraction ``k%`` (§3.2), the
  relocation threshold ``θ_r`` and minimum spacing ``τ_m`` (§4.2), the
  productivity ratio ``λ`` and forced-spill cap of the active-disk strategy
  (§5.3-5.4), and the three control-loop timers of Table 1
  (``ss_timer`` / ``sr_timer`` / ``lb_timer``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class SpillPolicyName(str, Enum):
    """Victim-selection policies evaluated in §3.2 and related work.

    * ``RANDOM`` — uniformly random groups (the Figure 5/6 sensitivity runs
      "randomly choose partition groups").
    * ``LARGEST`` — largest group first (XJoin's flush policy [25]).
    * ``LESS_PRODUCTIVE`` — ascending ``P_output/P_size`` (the paper's
      throughput-oriented policy; winner in Figure 7).
    * ``MORE_PRODUCTIVE`` — descending productivity (the adversarial
      baseline of Figure 7).
    """

    RANDOM = "random"
    LARGEST = "largest"
    LESS_PRODUCTIVE = "less_productive"
    MORE_PRODUCTIVE = "more_productive"


class RelocationScope(str, Enum):
    """Granularity of one relocation's payload.

    * ``PARTITIONS`` — the paper's design: move only the most productive
      partition groups totalling ``(M_max − M_least)/2`` bytes.
    * ``OPERATOR`` — the Borealis/Aurora* baseline the paper contrasts in
      §6 ("the basic unit to be adapted in these systems is at the
      granularity of a complete operator"): move the sender's *entire*
      instance state.
    """

    PARTITIONS = "partitions"
    OPERATOR = "operator"


class CheckpointMode(str, Enum):
    """What a periodic checkpoint snapshots (``repro.recovery``).

    * ``FULL`` — every live partition group, every time.
    * ``INCREMENTAL`` — only groups mutated since their last snapshot; the
      registry keeps one durable entry per partition, so unchanged entries
      stay valid.
    """

    FULL = "full"
    INCREMENTAL = "incremental"


class CheckpointTarget(str, Enum):
    """Where checkpoint snapshots become durable.

    * ``LOCAL`` — the machine's own disk (modelled as surviving a crash,
      i.e. journaled/network-attached storage).
    * ``PEER`` — shipped over the network to the next worker's disk, adding
      transfer cost but keeping a copy off the writing machine.
    """

    LOCAL = "local"
    PEER = "peer"


class StrategyName(str, Enum):
    """Top-level adaptation strategies compared in the evaluation.

    * ``ALL_MEMORY`` — no adaptation, unbounded memory (the "All-Mem"
      reference line).
    * ``NO_RELOCATION`` — local state spill only (the "no-relocation"
      baseline of Figures 11-12).
    * ``RELOCATION_ONLY`` — pair-wise state relocation, no spill (Figures
      9-10, where cluster memory suffices).
    * ``LAZY_DISK`` — integrated strategy, spill as local last resort (§5.1).
    * ``ACTIVE_DISK`` — integrated strategy with coordinator-forced spills
      on productivity imbalance (§5.3).
    """

    ALL_MEMORY = "all_memory"
    NO_RELOCATION = "no_relocation"
    RELOCATION_ONLY = "relocation_only"
    LAZY_DISK = "lazy_disk"
    ACTIVE_DISK = "active_disk"


@dataclass(frozen=True)
class StrategyProfile:
    """Declarative description of one strategy's armed mechanisms."""

    name: StrategyName
    description: str
    local_spill: bool
    relocation: bool
    forced_spill: bool
    unbounded_memory: bool


STRATEGIES: dict[StrategyName, StrategyProfile] = {
    StrategyName.ALL_MEMORY: StrategyProfile(
        name=StrategyName.ALL_MEMORY,
        description="No adaptation; memory assumed sufficient (reference).",
        local_spill=False,
        relocation=False,
        forced_spill=False,
        unbounded_memory=True,
    ),
    StrategyName.NO_RELOCATION: StrategyProfile(
        name=StrategyName.NO_RELOCATION,
        description="Local state spill only; no coordinator involvement.",
        local_spill=True,
        relocation=False,
        forced_spill=False,
        unbounded_memory=False,
    ),
    StrategyName.RELOCATION_ONLY: StrategyProfile(
        name=StrategyName.RELOCATION_ONLY,
        description="Pair-wise state relocation only; never touches disk.",
        local_spill=False,
        relocation=True,
        forced_spill=False,
        unbounded_memory=False,
    ),
    StrategyName.LAZY_DISK: StrategyProfile(
        name=StrategyName.LAZY_DISK,
        description=(
            "Integrated: relocate first, spill locally as a last resort "
            "(Algorithm 1)."
        ),
        local_spill=True,
        relocation=True,
        forced_spill=False,
        unbounded_memory=False,
    ),
    StrategyName.ACTIVE_DISK: StrategyProfile(
        name=StrategyName.ACTIVE_DISK,
        description=(
            "Integrated: relocate first, plus coordinator-forced spills of "
            "the least productive machine's state (Algorithm 2)."
        ),
        local_spill=True,
        relocation=True,
        forced_spill=True,
        unbounded_memory=False,
    ),
}


@dataclass(frozen=True)
class CostModel:
    """Simulated hardware and per-operation CPU costs.

    All times in seconds, sizes in bytes, bandwidths in bytes/second.
    """

    #: CPU time to route one tuple through a split operator.
    route_cost: float = 2e-6
    #: CPU time for one probe-insert step of the m-way join (hash lookups
    #: across the other inputs plus the insert), excluding result building.
    probe_cost: float = 2.0e-4
    #: CPU time to construct and emit one join result.
    result_cost: float = 5.0e-5
    #: CPU time to process one tuple in a stateless operator.
    stateless_cost: float = 1e-6
    #: Local-disk sequential write bandwidth (spill path).
    disk_write_bandwidth: float = 50e6
    #: Local-disk sequential read bandwidth (cleanup path).
    disk_read_bandwidth: float = 60e6
    #: Per-I/O positioning overhead.
    disk_seek_time: float = 0.008
    #: One-way network latency per message.
    network_latency: float = 0.0002
    #: Per-directed-link network bandwidth (1 Gbit/s by default).
    network_bandwidth: float = 125e6
    #: CPU time per byte to serialise state for a spill or transfer.
    serialize_cost_per_byte: float = 2e-9
    #: Size in bytes of one control-plane message (stats reports, protocol
    #: steps).  Small by design — the paper's scalability argument for the
    #: coordinator rests on statistics being light-weight.
    control_message_bytes: int = 256

    def __post_init__(self) -> None:
        for name in (
            "route_cost",
            "probe_cost",
            "result_cost",
            "stateless_cost",
            "disk_write_bandwidth",
            "disk_read_bandwidth",
            "network_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.disk_seek_time < 0 or self.network_latency < 0:
            raise ValueError("latencies must be non-negative")


@dataclass(frozen=True)
class AdaptationConfig:
    """All adaptation tunables (paper Tables 1-2 and §§3-5).

    The defaults follow the paper's stated experiment settings, scaled
    where the setting is an absolute byte count (see DESIGN.md §2 on
    scale-down).
    """

    strategy: StrategyName = StrategyName.LAZY_DISK

    # ----- state spill (§3) -------------------------------------------
    #: Local memory threshold in bytes that arms a spill ("state spill is
    #: triggered whenever the memory usage of the machine is over 200MB").
    memory_threshold: int = 2_000_000
    #: Fraction of resident state pushed per spill — the ``k%`` of §3.2;
    #: the paper settles on 30% as its default mid-range value.
    spill_fraction: float = 0.30
    #: Victim-selection policy.
    spill_policy: SpillPolicyName = SpillPolicyName.LESS_PRODUCTIVE
    #: How often each QE checks its memory (Table 1's ``ss_timer``).
    ss_interval: float = 5.0

    # ----- state relocation (§4) --------------------------------------
    #: The imbalance threshold θ_r: relocate when M_least/M_max < θ_r.
    theta_r: float = 0.8
    #: Minimum seconds between two consecutive relocations (τ_m = 45 s).
    tau_m: float = 45.0
    #: Smallest volume worth a pair-wise relocation; imbalances below this
    #: are ignored (suppresses degenerate start-of-run moves).
    min_relocation_bytes: int = 4096
    #: How often QEs ship statistics to the coordinator (``sr_timer``).
    stats_interval: float = 5.0
    #: How often the coordinator evaluates cluster statistics
    #: (``sr_timer``/``lb_timer`` at the GC).
    coordinator_interval: float = 10.0
    #: What one relocation moves: the paper's partition groups, or the
    #: whole-operator baseline of §6.
    relocation_scope: RelocationScope = RelocationScope.PARTITIONS

    # ----- active-disk extras (§5.3-5.4) -------------------------------
    #: Productivity-rate ratio λ that triggers a forced spill.
    lambda_productivity: float = 2.0
    #: Upper bound on the cumulative state volume the coordinator may force
    #: to disk (the paper's proxy for M_query − M_cluster; 100 MB in their
    #: runs, scaled here).
    forced_spill_cap: int = 1_000_000
    #: Fraction of the target QE's resident state pushed per forced spill.
    forced_spill_fraction: float = 0.30
    #: Forced spills happen "only if extra memory is needed" (§5.4): at
    #: least one machine must sit above this fraction of the memory
    #: threshold before the coordinator forces state to disk.
    forced_spill_pressure: float = 0.6

    # ----- runtime repartitioning (repro.core.repartition) ---------------
    #: Master switch for runtime partition-group split/merge under skew.
    #: Off by default: with it off routing tables are fixed for the whole
    #: run, exactly as the paper describes.
    repartition_enabled: bool = False
    #: Split fires when the largest group exceeds ``split_skew_factor``
    #: times the machine's average group size (max·count > factor·total).
    split_skew_factor: float = 4.0
    #: ...and is at least this many bytes (suppresses degenerate splits of
    #: small early-run groups).
    split_min_bytes: int = 64_000
    #: Two sibling child groups merge back when their combined resident
    #: size drops to or below this many bytes.
    merge_max_bytes: int = 8_192
    #: Minimum seconds between two consecutive repartitions (the split/
    #: merge analogue of the relocation spacing τ_m).
    tau_p: float = 20.0

    # ----- crash recovery (repro.recovery; beyond the paper) ------------
    #: Master switch for the checkpoint/recovery subsystem.  Off by default:
    #: with it off the engines, coordinator, and source hosts behave exactly
    #: as the paper's protocol describes (no durability work, no buffering).
    checkpoint_enabled: bool = False
    #: Seconds between two periodic checkpoints of one machine.
    checkpoint_interval: float = 30.0
    #: Snapshot everything each time, or only mutated partition groups.
    checkpoint_mode: CheckpointMode = CheckpointMode.INCREMENTAL
    #: Durable storage for snapshots: own disk or the next worker's disk.
    checkpoint_target: CheckpointTarget = CheckpointTarget.LOCAL
    #: Seconds of statistics-heartbeat silence after which the coordinator
    #: declares a worker dead and starts recovery.  Must comfortably exceed
    #: ``stats_interval`` or healthy workers will be declared lost.
    failure_timeout: float = 15.0

    # ----- elastic membership (repro.cluster; beyond the paper) ----------
    #: After a machine joins, reset the relocation spacing clock so the
    #: imbalance rule (θ_r) may immediately target the empty joiner instead
    #: of waiting out a possibly long τ_m window.
    rebalance_on_join: bool = True

    # ----- shared -------------------------------------------------------
    #: Smoothing factor for the windowed productivity estimator (None uses
    #: the cumulative metric exactly as defined in §2).
    productivity_alpha: float | None = None

    def __post_init__(self) -> None:
        if self.memory_threshold <= 0:
            raise ValueError("memory_threshold must be positive")
        if not 0 < self.spill_fraction <= 1:
            raise ValueError("spill_fraction must be in (0, 1]")
        if not 0 < self.theta_r <= 1:
            raise ValueError("theta_r must be in (0, 1]")
        if self.tau_m < 0:
            raise ValueError("tau_m must be non-negative")
        if self.lambda_productivity <= 1:
            raise ValueError("lambda_productivity must exceed 1")
        if self.forced_spill_cap < 0:
            raise ValueError("forced_spill_cap must be non-negative")
        if not 0 < self.forced_spill_fraction <= 1:
            raise ValueError("forced_spill_fraction must be in (0, 1]")
        if not 0 <= self.forced_spill_pressure <= 1:
            raise ValueError("forced_spill_pressure must be in [0, 1]")
        if self.min_relocation_bytes < 0:
            raise ValueError("min_relocation_bytes must be non-negative")
        if self.split_skew_factor <= 1:
            raise ValueError("split_skew_factor must exceed 1")
        if self.split_min_bytes <= 0:
            raise ValueError("split_min_bytes must be positive")
        if self.merge_max_bytes < 0:
            raise ValueError("merge_max_bytes must be non-negative")
        if self.tau_p < 0:
            raise ValueError("tau_p must be non-negative")
        for name in (
            "ss_interval",
            "stats_interval",
            "coordinator_interval",
            "checkpoint_interval",
            "failure_timeout",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.checkpoint_enabled and self.failure_timeout <= self.stats_interval:
            raise ValueError(
                "failure_timeout must exceed stats_interval: the failure detector "
                "counts missed statistics heartbeats"
            )
        if self.productivity_alpha is not None and not 0 < self.productivity_alpha <= 1:
            raise ValueError("productivity_alpha must be in (0, 1] or None")

    def with_(self, **changes) -> "AdaptationConfig":
        """Return a modified copy (convenience over dataclasses.replace)."""
        return replace(self, **changes)

    # ----- derived behaviour flags -------------------------------------
    @property
    def spill_enabled(self) -> bool:
        return STRATEGIES[self.strategy].local_spill

    @property
    def relocation_enabled(self) -> bool:
        return STRATEGIES[self.strategy].relocation

    @property
    def forced_spill_enabled(self) -> bool:
        return STRATEGIES[self.strategy].forced_spill
