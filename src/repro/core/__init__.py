"""The paper's contribution: run-time state adaptation for partitioned
non-blocking queries.

* :mod:`repro.core.config` — tunables (Tables 1-2 of the paper) and the
  simulator cost model.
* :mod:`repro.core.spill` — spill victim-selection policies (ranked by a
  group's productivity ``P_output / P_size``, §2) and the spill executor
  (state spill adaptation, §3).
* :mod:`repro.core.relocation` — the pair-wise relocation policy and the
  8-step GC/QE state-movement protocol (§4).
* :mod:`repro.core.cleanup` — the disk-state cleanup phase: duplicate-free
  merging of spilled segments via incremental view-maintenance deltas.
* :mod:`repro.core.coordinator` / :mod:`repro.core.local_controller` — the
  tiered decision architecture: the global coordinator makes coarse-grained
  choices (how much, from/to which machine), each query engine's local
  controller picks the concrete partition groups.
* :mod:`repro.core.strategies` — the integrated strategies: lazy-disk and
  active-disk (§5), plus the baselines they are compared against.
"""

from repro.core.config import (
    AdaptationConfig,
    CostModel,
    RelocationScope,
    SpillPolicyName,
    StrategyName,
)
from repro.core.per_input import PerInputJoinState
from repro.core.spill import SpillPolicy, make_spill_policy
from repro.core.strategies import STRATEGIES, StrategyProfile

__all__ = [
    "AdaptationConfig",
    "CostModel",
    "PerInputJoinState",
    "RelocationScope",
    "STRATEGIES",
    "SpillPolicy",
    "SpillPolicyName",
    "StrategyName",
    "StrategyProfile",
    "make_spill_policy",
]
