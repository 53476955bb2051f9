"""Cross-query GC: cluster-level memory arbitration across deployments.

The per-query :class:`~repro.core.coordinator.GlobalCoordinator` only
balances state *within* its own deployment.  When many tenants share the
cluster, someone has to arbitrate *between* them: the :class:`ClusterGC`
extends the coordinator's evaluation-loop pattern to the serving layer.
Every :data:`GC_INTERVAL` seconds it

1. snapshots per-tenant live state (a fold group's bytes are split evenly
   across its members — shared state is shared cost);
2. if some tenant exceeds its budget, scores every engine of every
   group that serves an over-budget tenant with
   ``overuse_ratio x state_bytes / (1 + productivity_rate)`` — the
   fairness-weighted analogue of the paper's forced-spill rule: evict
   where the budget pressure is worst and the state earns least;
3. orders the top victim to spill :data:`GC_SPILL_FRACTION` of its state over
   the same ``start_ss`` wire protocol the per-query coordinator uses
   (the engine acks ``ss_done`` back to the *requester*, so the reply
   returns here, not to the query's own coordinator);
4. records the decision — chosen victim, rejected cross-query
   alternatives, full tenant/victim snapshot — as a ``cluster_gc``
   ledger entry.  Steps 2-3 are
   :func:`repro.core.policy.decide_cluster_gc` over that snapshot, so
   :func:`repro.obs.ledger.replay_decision` re-runs them offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.simulation import Timer
from repro.core.policy import decide_cluster_gc, machine_productivity_rate, with_choice
from repro.core.relocation import ForcedSpillRequest
from repro.obs.ledger import KIND_CLUSTER_GC

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.server import QueryServer

__all__ = ["ClusterGC", "ClusterGCStats"]

#: Seconds between two cross-query GC passes.
GC_INTERVAL = 5.0
#: Fraction of the victim engine's resident state one order spills.
GC_SPILL_FRACTION = 0.5
#: Orders smaller than this many bytes are not worth sending.
GC_MIN_SPILL_BYTES = 1024


@dataclass
class ClusterGCStats:
    """Counters summarising the cluster GC's activity over a run."""

    evaluations: int = 0
    orders: int = 0
    bytes_ordered: int = 0
    bytes_reclaimed: int = 0


class ClusterGC:
    """The serving layer's periodic cross-deployment memory arbiter."""

    def __init__(self, server: "QueryServer") -> None:
        self.server = server
        self.stats = ClusterGCStats()
        self._timer: Timer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = Timer(self.server.sim, GC_INTERVAL, self.evaluate)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ------------------------------------------------------------------
    # Evaluation pass
    # ------------------------------------------------------------------
    def _snapshot(self) -> tuple[list[dict], list[dict]]:
        """Deterministic tenant-usage and victim-candidate tables.

        Victim order is (group id, engine name).
        """
        server = self.server
        tenants = [
            {
                "name": tenant.name,
                "budget": tenant.memory_budget,
                "usage": server.tenant_state_bytes(tenant.name),
            }
            for tenant in server.tenant_list()
        ]
        over = {
            t["name"]: t["usage"] / t["budget"]
            for t in tenants
            if t["budget"] > 0 and t["usage"] > t["budget"]
        }
        victims: list[dict] = []
        lat = server.metrics.latency
        for group in server.active_groups():
            member_tenants = sorted(
                {server.queries[qid].tenant for qid in group.members}
            )
            ratios = [(over.get(name, 0.0), name) for name in member_tenants]
            overuse, worst_tenant = max(ratios)
            # SLO shield (repro.obs.slo): fairness-weighted spill prefers
            # victims of queries *meeting* their SLO, so an already-
            # breaching query is not pushed further over.  The factor only
            # appears in the snapshot when latency tracking is on — a
            # disabled run's ledger stays byte-identical to the seed.
            slo_factor = None
            if lat is not None:
                slo_factor = 0.25 if any(
                    lat.breaching(qid) for qid in sorted(group.members)
                ) else 1.0
            for name in sorted(group.deployment.engines):
                engine = group.deployment.engines[name]
                if not engine.alive:
                    # drained (scaled-in) or crashed machines are not
                    # spill candidates: their stores are empty and a
                    # ``start_ss`` order would be dropped on delivery
                    continue
                store = engine.instance.store
                rate = machine_productivity_rate(
                    store.outputs_total, store.group_count
                )
                victim = {
                    "engine": name,
                    "group": group.gid,
                    "tenant": worst_tenant,
                    "state_bytes": store.total_bytes,
                    "productivity": rate,
                    "score": overuse * store.total_bytes / (1.0 + rate),
                }
                if slo_factor is not None:
                    victim["slo_factor"] = slo_factor
                    victim["score"] *= slo_factor
                victims.append(victim)
        return tenants, victims

    def evaluate(self) -> None:
        """One cross-query GC pass: snapshot, decide
        (:func:`repro.core.policy.decide_cluster_gc`), record, order."""
        server = self.server
        if not server.active_groups():
            return
        self.stats.evaluations += 1
        ledger = server.metrics.ledger
        tenants, victims = self._snapshot()
        inputs = {
            "now": server.sim.now,
            "tenants": tenants,
            "victims": victims,
            "spill_fraction": GC_SPILL_FRACTION,
            "min_spill_bytes": GC_MIN_SPILL_BYTES,
        }
        action, rule, choice, alts = decide_cluster_gc(inputs, ledger.enabled)
        entry = 0
        if ledger.enabled:
            entry = ledger.record(
                server.name, KIND_CLUSTER_GC, action, rule,
                with_choice(inputs, choice), alts,
            )
        if action == "none":
            return
        engine, amount = choice["machine"], choice["amount"]
        group = next(v["group"] for v in victims if v["engine"] == engine)
        self.stats.orders += 1
        self.stats.bytes_ordered += amount
        server.metrics.events.record(
            server.sim.now,
            "cluster_gc_order",
            engine,
            tenant=choice["tenant"],
            group=group,
            bytes=amount,
        )
        server.network.send(
            server.name,
            engine,
            "start_ss",
            ForcedSpillRequest(amount=amount, ledger_entry=entry),
            server.cost.control_message_bytes,
        )

    def on_ss_done(self, message) -> None:
        """Completion ack from a victim engine (routed to the server's
        network endpoint because the order originated here)."""
        self.stats.bytes_reclaimed += message.payload.bytes_spilled

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        labels = {"coordinator": "cluster_gc"}
        registry.counter(
            "repro_cluster_gc_evaluations_total",
            help="Cross-query GC passes over active groups",
            labels=labels,
        ).set_total(self.stats.evaluations)
        registry.counter(
            "repro_cluster_gc_orders_total",
            help="Cross-query forced-spill orders sent",
            labels=labels,
        ).set_total(self.stats.orders)
        registry.counter(
            "repro_cluster_gc_bytes_reclaimed_total",
            help="Bytes acknowledged spilled under cross-query GC orders",
            labels=labels,
        ).set_total(self.stats.bytes_reclaimed)
