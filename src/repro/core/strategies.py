"""Integrated adaptation strategies (paper §5) and their baselines.

The strategy determines *which* adaptation machinery is armed and *who*
decides:

===================  =========== ============ ============= =================
Strategy             local spill  relocation   forced spill  paper role
===================  =========== ============ ============= =================
``all_memory``       no           no           no            "All-Mem" line
``no_relocation``    yes          no           no            Figures 11-12
``relocation_only``  no           yes          no            Figures 9-10
``lazy_disk``        yes          yes          no            §5.1, Alg. 1
``active_disk``      yes          yes          yes           §5.3, Alg. 2
===================  =========== ============ ============= =================

* **Lazy-disk** postpones disk use: the coordinator relocates whenever
  ``M_least/M_max < θ_r``; spill remains a *local* decision each engine
  takes only when its own memory is about to overflow.
* **Active-disk** additionally raises the spill decision to the global
  level: when memory is balanced but the machines' average productivity
  rates differ by more than λ, the coordinator forces the *least
  productive* machine to spill, freeing aggregate memory for productive
  partitions — capped so that data that fits in cluster memory stays there.

The mechanics live in :mod:`repro.core.coordinator` (global half) and
:mod:`repro.core.local_controller` (local half).  The declarative profiles
(:data:`STRATEGIES`) sit beside :class:`StrategyName` in
:mod:`repro.core.config`, whose ``*_enabled`` flags read them; this module
re-exports them with the factory helpers the benchmarks use.
"""

from __future__ import annotations

from repro.core.config import (
    STRATEGIES,
    AdaptationConfig,
    StrategyName,
    StrategyProfile,
)


def profile_of(config: AdaptationConfig) -> StrategyProfile:
    """The profile matching a configuration's strategy."""
    return STRATEGIES[config.strategy]


def trace_strategy(tracer, config: AdaptationConfig) -> None:
    """Record the run's armed strategy profile as a trace event.

    Deployments call this once at wiring time so every trace is
    self-describing: the invariant checker and a human reading the JSONL
    both see which adaptation mechanisms were armed for the run.
    """
    if not tracer.enabled:
        return
    profile = profile_of(config)
    tracer.event(
        "strategy",
        strategy=str(profile.name.value),
        local_spill=profile.local_spill,
        relocation=profile.relocation,
        forced_spill=profile.forced_spill,
        unbounded_memory=profile.unbounded_memory,
    )


def lazy_disk_config(**overrides) -> AdaptationConfig:
    """An :class:`AdaptationConfig` preset for the lazy-disk strategy."""
    return AdaptationConfig(strategy=StrategyName.LAZY_DISK, **overrides)


def active_disk_config(**overrides) -> AdaptationConfig:
    """An :class:`AdaptationConfig` preset for the active-disk strategy."""
    return AdaptationConfig(strategy=StrategyName.ACTIVE_DISK, **overrides)


def baseline_config(strategy: StrategyName | str, **overrides) -> AdaptationConfig:
    """An :class:`AdaptationConfig` for any named strategy."""
    return AdaptationConfig(strategy=StrategyName(strategy), **overrides)
