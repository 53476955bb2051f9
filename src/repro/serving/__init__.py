"""Multi-tenant query serving with shared-state join folding.

The paper studies one state-intensive query adapting at run time; a real
deployment of such an engine serves *many* concurrent queries from many
tenants on one shared cluster.  This package builds that layer on top of
:class:`~repro.engine.plan.Deployment`:

* :class:`QueryServer` — admits, launches and drains queries at runtime
  on one shared simulator/network/observability hub, with per-tenant
  memory budgets enforced at admission;
* **join folding** (:mod:`repro.serving.folding`) — queries that join the
  same streams on the same keys with byte-compatible windows/workloads
  share one physical runtime (one set of state-store partition groups); a
  fan-out collector routes the single result stream to every member query
  and a refcount unfolds the group as members retire;
* **cross-query GC** (:mod:`repro.serving.gc`) — a cluster-level memory
  arbiter extending the per-query coordinator loop: it picks forced-spill
  victims *across* deployments, fairness-weighted by tenant budget
  overuse and partition productivity, recording every decision (with the
  rejected cross-query alternatives) in the decision ledger;
* **relocation arbitration** (:mod:`repro.serving.arbiter`) — at most one
  relocation session runs cluster-wide; denied coordinators record the
  holder in their ledger tick and retry on a later pass.

Folding preserves per-query semantics exactly: a folded group *is* one
standalone-equivalent runtime (namespaced machines/disks on the shared
network), so each member's collected results are byte-identical to an
isolated run of the same spec — including under spill, relocation and
crash/recovery of the shared groups (``tests/test_serving.py`` proves
this differentially).
"""

from repro.serving.arbiter import ArbitratedCoordinator, RelocationArbiter
from repro.serving.folding import FanOutCollector, FoldGroup, fold_signature
from repro.serving.gc import ClusterGC
from repro.serving.server import QueryHandle, QueryServer, QuerySpec, Tenant

__all__ = [
    "ArbitratedCoordinator",
    "ClusterGC",
    "FanOutCollector",
    "FoldGroup",
    "QueryHandle",
    "QueryServer",
    "QuerySpec",
    "RelocationArbiter",
    "Tenant",
    "fold_signature",
]
