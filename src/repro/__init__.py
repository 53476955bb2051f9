"""repro — reproduction of *Optimizing State-Intensive Non-Blocking Queries
Using Run-time Adaptation* (Liu, Jbantova, Rundensteiner; ICDE 2007).

The package implements the paper's full system: a partitioned, distributed,
non-blocking query engine for state-intensive m-way joins (on a simulated
compute cluster) together with the two run-time state adaptations — **state
spill** to disk with a duplicate-free cleanup phase, and **state
relocation** between machines via an 8-step coordinator protocol — and the
two integrated strategies, **lazy-disk** and **active-disk**, the paper
proposes and evaluates.

Quickstart
----------
>>> from repro import Deployment, AdaptationConfig, StrategyName
>>> from repro.workloads import WorkloadSpec, three_way_join
>>> dep = Deployment(
...     join=three_way_join(),
...     workload=WorkloadSpec.uniform(n_partitions=24, join_rate=3,
...                                   tuple_range=3000, interarrival=0.01),
...     workers=3,
...     config=AdaptationConfig(strategy=StrategyName.LAZY_DISK,
...                             memory_threshold=150_000),
... )
>>> dep.run(duration=60, sample_interval=10)
>>> report = dep.cleanup()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproduction index.
"""

from repro.core.config import AdaptationConfig, CostModel, SpillPolicyName, StrategyName
from repro.core.strategies import (
    STRATEGIES,
    StrategyProfile,
    active_disk_config,
    baseline_config,
    lazy_disk_config,
)
from repro.engine.pipeline import PipelineDeployment, PipelineStage
from repro.engine.plan import Deployment
from repro.engine.tuples import JoinResult, Schema, StreamTuple
from repro.obs import (
    DecisionLedger,
    InvariantChecker,
    MetricsRegistry,
    Tracer,
    check_ledger_trace,
    check_trace,
)
from repro.serving import QueryHandle, QueryServer, QuerySpec, Tenant

__version__ = "1.0.0"

__all__ = [
    "AdaptationConfig",
    "CostModel",
    "DecisionLedger",
    "Deployment",
    "InvariantChecker",
    "MetricsRegistry",
    "JoinResult",
    "PipelineDeployment",
    "PipelineStage",
    "QueryHandle",
    "QueryServer",
    "QuerySpec",
    "STRATEGIES",
    "Schema",
    "SpillPolicyName",
    "StrategyName",
    "StrategyProfile",
    "StreamTuple",
    "Tenant",
    "Tracer",
    "__version__",
    "active_disk_config",
    "baseline_config",
    "check_ledger_trace",
    "check_trace",
    "lazy_disk_config",
]
