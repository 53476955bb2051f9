"""The multi-tenant serving layer: admission, folding, cross-query GC.

The load-bearing property is *differential equivalence*: a query folded
onto a shared runtime — or run beside other tenants on the shared
substrate — must emit byte-identical per-query outputs to the same spec
run standalone, under spills, relocations, drains and crash/recovery.
Per-link FIFO networking plus namespaced endpoints is what makes that
hold; these tests are the proof the serving layer never leaks one
query's timing into another's results.
"""

from __future__ import annotations

import pytest

from repro import AdaptationConfig, Deployment, StrategyName
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.obs.ledger import DecisionLedger, replay_decision, verify_replay
from repro.obs.report import why
from repro.serving import (
    QueryServer,
    QuerySpec,
    RelocationArbiter,
    Tenant,
    fold_signature,
)
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import canonical_frozen


# ----------------------------------------------------------------------
# Scenario builders (small_deployment scale: seconds of wall clock,
# several spills and relocations)
# ----------------------------------------------------------------------
def serving_config(**overrides) -> AdaptationConfig:
    base = dict(
        memory_threshold=30_000,
        theta_r=0.9,
        tau_m=10.0,
        coordinator_interval=5.0,
        stats_interval=2.0,
        ss_interval=2.0,
        min_relocation_bytes=1024,
    )
    strategy = overrides.pop("strategy", StrategyName.LAZY_DISK)
    base.update(overrides)
    return AdaptationConfig(strategy=strategy, **base)


def small_workload(seed: int = 7) -> WorkloadSpec:
    return WorkloadSpec.uniform(
        n_partitions=12, join_rate=4.0, tuple_range=400,
        interarrival=0.02, seed=seed,
    )


def make_spec(tenant: str = "acme", *, window=None, duration=40.0,
              cfg=None, seed=7, demand=0, assignment=None) -> QuerySpec:
    return QuerySpec(
        join=three_way_join(window=window),
        workload=small_workload(seed),
        config=cfg if cfg is not None else serving_config(),
        workers=2,
        tenant=tenant,
        duration=duration,
        memory_demand=demand,
        seed=seed,
        assignment=assignment,
    )


def make_server(tenants=None, *, capacity=1_000_000, fold=True,
                ledger=None) -> QueryServer:
    return QueryServer(
        tenants or [Tenant("acme", 500_000), Tenant("globex", 500_000)],
        cluster_capacity=capacity,
        fold_enabled=fold,
        ledger=ledger,
    )


def serve(server, specs, *, duration=40.0, tail=20.0):
    handles = [server.submit(spec) for spec in specs]
    server.run_for(duration + tail, sample_interval=5.0)
    server.finish()
    return handles


def standalone(spec: QuerySpec, *, faults=None) -> Deployment:
    """Run the same spec as a self-owned deployment (the reference)."""
    dep = Deployment(
        join=three_way_join(window=spec.join.window),
        workload=spec.workload,
        workers=spec.workers,
        config=spec.config,
        assignment=spec.assignment,
        data_path=spec.data_path,
        seed=spec.seed,
        collect_results=True,
    )
    if faults is not None:
        FaultSchedule(faults(dep)).arm(dep.sim)
    dep.run(duration=spec.duration, sample_interval=5.0)
    return dep


def idents(collector_owner) -> list:
    return [r.ident for r in collector_owner.results]


def canonical_registry(checkpoint_store, prefix: str = ""):
    """Checkpoint-registry identity with the serving namespace stripped,
    so a folded runtime's registry compares against a standalone one."""
    def strip(name: str) -> str:
        return name[len(prefix):] if prefix and name.startswith(prefix) \
            else name

    return tuple(
        (e.pid, strip(e.owner), strip(e.holder), e.time, e.live,
         canonical_frozen(e.frozen))
        for e in checkpoint_store.entries()
    )


# ----------------------------------------------------------------------
# Fold signatures
# ----------------------------------------------------------------------
class TestFoldSignature:
    def sig(self, **kwargs):
        spec = make_spec(**kwargs)
        return fold_signature(
            spec.join, spec.workload, spec.config, spec.workers,
            data_path=spec.data_path, seed=spec.seed,
            assignment=spec.assignment,
        )

    def test_identical_specs_share_a_signature(self):
        assert self.sig() == self.sig()

    def test_signature_ignores_tenant(self):
        assert self.sig(tenant="acme") == self.sig(tenant="globex")

    def test_seed_window_and_assignment_are_physical(self):
        base = self.sig()
        assert self.sig(seed=8) != base
        assert self.sig(window=20.0) != base
        assert self.sig(assignment={"m1": 0.8, "m2": 0.2}) != base

    def test_worker_count_normalizes_to_names(self):
        spec = make_spec()
        by_count = fold_signature(
            spec.join, spec.workload, spec.config, 2,
            data_path="batched", seed=7,
        )
        by_names = fold_signature(
            spec.join, spec.workload, spec.config, ["m1", "m2"],
            data_path="batched", seed=7,
        )
        assert by_count == by_names


# ----------------------------------------------------------------------
# Differential equivalence: folded / co-tenant / standalone
# ----------------------------------------------------------------------
class TestFoldedEquivalence:
    def test_folded_two_query_run_matches_isolated(self):
        server = make_server(fold=True)
        h1, h2 = serve(server, [make_spec("acme"), make_spec("globex")])
        assert not h1.folded and h2.folded and h2.group == h1.group

        iso = standalone(make_spec("acme"))
        # the run actually adapted — equivalence over a quiet run proves
        # nothing
        assert iso.spill_count > 0
        assert iso.relocation_count > 0
        reference = idents(iso.collector)
        assert reference
        assert idents(h1) == reference
        assert idents(h2) == reference

    def test_unfolded_co_tenants_match_isolated(self):
        """fold=off: two runtimes share the simulator/network/registry but
        namespaced endpoints keep their timing independent.

        The one *intended* cross-query coupling is the relocation
        arbiter, so the co-tenant here runs a no-relocation strategy —
        with the slot uncontended, both runtimes must match their own
        standalone references byte for byte.
        """
        quiet = serving_config(strategy=StrategyName.NO_RELOCATION)
        server = make_server(fold=False)
        h1, h2 = serve(server, [
            make_spec("acme"),
            make_spec("globex", cfg=quiet),
        ])
        assert not h1.folded and not h2.folded and h1.group != h2.group
        assert server.arbiter.denials == 0

        assert idents(h1) == idents(standalone(make_spec("acme")).collector)
        assert idents(h2) == idents(
            standalone(make_spec("globex", cfg=quiet)).collector
        )

    def test_windowed_folded_run_matches_isolated(self):
        server = make_server(fold=True)
        h1, h2 = serve(
            server,
            [make_spec("acme", window=20.0),
             make_spec("globex", window=20.0)],
        )
        assert h2.folded
        iso = standalone(make_spec("acme", window=20.0))
        assert iso.spill_count > 0
        reference = idents(iso.collector)
        assert reference
        assert idents(h1) == reference
        assert idents(h2) == reference

    def test_crash_recovery_folded_run_matches_isolated(self):
        """Crash + checkpoint recovery inside a folded runtime: same
        outputs and the same canonical checkpoint registry (namespace
        stripped) as the standalone run."""
        cfg = dict(
            checkpoint_enabled=True, checkpoint_interval=6.0,
            failure_timeout=5.0,
        )
        server = make_server(fold=True)
        h1 = server.submit(make_spec("acme", cfg=serving_config(**cfg)))
        h2 = server.submit(make_spec("globex", cfg=serving_config(**cfg)))
        dep = server.groups[h1.group].deployment
        FaultSchedule([
            MachineCrash(time=15.0, engine=dep.engines["q1:m2"]),
            MachineRestart(time=25.0, engine=dep.engines["q1:m2"]),
        ]).arm(server.sim)
        # stop at exactly the source duration, like Deployment.run does —
        # otherwise the runtime's checkpoint timers keep firing past the
        # instant the standalone reference stopped
        server.run_for(40.0, sample_interval=5.0)
        server.finish()

        iso = standalone(
            make_spec("acme", cfg=serving_config(**cfg)),
            faults=lambda d: [
                MachineCrash(time=15.0, engine=d.engines["m2"]),
                MachineRestart(time=25.0, engine=d.engines["m2"]),
            ],
        )
        assert dep.checkpoint_count > 0
        reference = idents(iso.collector)
        assert reference
        assert idents(h1) == reference
        assert idents(h2) == reference
        assert (canonical_registry(dep.registry, "q1:")
                == canonical_registry(iso.registry))

    def test_drain_unfolds_and_survivor_matches_isolated(self):
        """Refcounted unfold: detaching one member mid-run leaves the
        survivor's output stream untouched, and the drained member keeps
        the prefix it saw while attached."""
        server = make_server(fold=True)
        h1 = server.submit(make_spec("acme"))
        h2 = server.submit(make_spec("globex"))
        server.run_for(20.0, sample_interval=5.0)
        server.drain(h1.qid)
        assert h1.status == "retired"  # other members keep the group alive
        server.run_for(40.0, sample_interval=5.0)
        server.finish()

        reference = idents(standalone(make_spec("acme")).collector)
        assert idents(h2) == reference
        drained = idents(h1)
        assert 0 < len(drained) < len(reference)
        assert drained == reference[:len(drained)]


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_over_tenant_budget(self):
        ledger = DecisionLedger()
        server = make_server([Tenant("small", 10_000)],
                             capacity=10**9, ledger=ledger)
        handle = server.submit(make_spec("small"))  # demand 60 KB > 10 KB
        assert handle.status == "rejected"
        assert "budget" in handle.reason
        assert handle.collector is None and handle.group is None
        entry = ledger.entries[-1]
        assert (entry["kind"], entry["action"], entry["rule"]) \
            == ("admission", "reject", "tenant_budget")
        assert replay_decision(entry)["action"] == "reject"

    def test_reject_over_cluster_capacity(self):
        ledger = DecisionLedger()
        server = make_server(capacity=100_000, ledger=ledger)
        first = server.submit(make_spec("acme"))           # 60 KB of 100 KB
        second = server.submit(make_spec("globex", seed=8))  # no fold match
        assert first.status == "running"
        assert second.status == "rejected"
        assert "cluster capacity" in second.reason
        entry = ledger.entries[-1]
        assert (entry["action"], entry["rule"]) \
            == ("reject", "cluster_capacity")
        assert replay_decision(entry)["action"] == "reject"
        assert verify_replay(ledger.entries) == []
        server.finish()

    def test_fold_bypasses_cluster_capacity(self):
        """A fold-compatible submission charges zero cluster capacity:
        the state it needs already exists."""
        server = make_server(capacity=100_000)
        first = server.submit(make_spec("acme"))
        folded = server.submit(make_spec("globex"))  # same signature
        assert first.status == "running"
        assert folded.status == "running" and folded.folded
        assert server.cluster_used == first.demand
        server.finish()

    def test_readmission_after_drain(self):
        server = make_server(capacity=100_000)
        first = server.submit(make_spec("acme", duration=30.0))
        rejected = server.submit(make_spec("globex", seed=8))
        assert rejected.status == "rejected"
        server.run_for(10.0, sample_interval=5.0)
        server.drain(first.qid)
        for _ in range(20):  # graceful: wait out any in-flight session
            if first.status == "retired":
                break
            server.run_for(2.0, sample_interval=2.0)
        assert first.status == "retired"
        assert server.cluster_used == 0
        readmitted = server.submit(make_spec("globex", seed=8))
        assert readmitted.status == "running"
        server.run_for(40.0, sample_interval=5.0)
        server.finish()
        assert readmitted.total_outputs > 0

    def test_graceful_drain_mid_relocation(self):
        """Draining the last member while its coordinator has a live
        relocation session defers retirement until the session reaches a
        terminal phase — state hand-off is never cut mid-flight."""
        server = make_server()
        handle = server.submit(make_spec(
            "acme", duration=120.0, assignment={"m1": 0.8, "m2": 0.2},
        ))
        group = server.groups[handle.group]
        in_flight = False
        for _ in range(1200):
            server.run_for(0.1, sample_interval=0.1)
            session = group.deployment.coordinator.session
            if session is not None and not session.terminal:
                in_flight = True
                break
        assert in_flight, "no relocation session started; scenario too calm"
        server.drain(handle.qid)
        assert handle.status == "draining"
        assert group.retiring
        assert handle.qid in server.groups  # not reaped mid-session
        server.run_for(30.0, sample_interval=5.0)
        server.finish()
        assert handle.status == "retired"
        assert handle.qid not in server.groups
        assert server.cluster_used == 0

    def test_graceful_drain_mid_split(self):
        """A split or merge is a session like any other: the last member
        cancelling while one is in flight keeps the group — and its
        ``cluster_charge`` — until the session lands; the next ``_reap``
        retires it."""
        from tests.test_repartition_differential import skewed_workload

        server = make_server()
        handle = server.submit(QuerySpec(
            join=three_way_join(window=10.0),
            workload=skewed_workload(),
            config=serving_config(
                theta_r=0.05, memory_threshold=60_000,
                repartition_enabled=True, split_skew_factor=2.5,
                split_min_bytes=4_000, merge_max_bytes=6_000, tau_p=8.0,
            ),
            workers=2, tenant="acme", duration=120.0, memory_demand=50_000,
            assignment={"m1": 1.0, "m2": 1.0},
        ))
        group = server.groups[handle.group]
        coordinator = group.deployment.coordinator
        session = None
        for _ in range(1200):
            server.run_for(0.01, sample_interval=0.01)
            session = coordinator.session
            if session is not None and session.phase == "installing":
                break
        assert session is not None and session.kind == "split", (
            "no split session went in flight; scenario too calm")
        server.drain(handle.qid)
        assert handle.status == "draining" and group.retiring
        assert not session.terminal
        assert handle.group in server.groups  # not reaped mid-split
        assert group.cluster_charge == server.cluster_used == 50_000
        server.sim.run(until=server.sim.now + 1.0)
        assert session.phase == "done" and coordinator.session is None
        assert coordinator.repartition.splits_completed == 1
        assert handle.group in server.groups  # nothing reaps between ticks
        server._reap()
        assert handle.status == "retired"
        assert handle.group not in server.groups
        assert group.cluster_charge == server.cluster_used == 0

    def test_unknown_tenant_raises(self):
        server = make_server()
        with pytest.raises(ValueError, match="unknown tenant"):
            server.submit(make_spec("nobody"))


# ----------------------------------------------------------------------
# Cross-query GC
# ----------------------------------------------------------------------
class TestClusterGC:
    def run_over_budget(self):
        """Two different queries, both tenants on tiny live-state budgets
        (admission passes on a small nominal demand; the *live* state then
        blows through the budget and the cluster GC must act)."""
        ledger = DecisionLedger()
        server = make_server(
            [Tenant("greedy", 8_000), Tenant("frugal", 8_000)],
            capacity=10**9, ledger=ledger,
        )
        handles = serve(server, [
            make_spec("greedy", demand=1_000, duration=30.0),
            make_spec("frugal", demand=1_000, duration=30.0, seed=8),
        ], duration=30.0, tail=15.0)
        return server, handles, ledger

    def test_over_budget_tenants_draw_cross_query_spills(self):
        server, _, ledger = self.run_over_budget()
        assert server.cluster_gc.stats.orders > 0
        # the ss_done ack routes back to the server endpoint, not to the
        # victim query's own coordinator
        assert server.cluster_gc.stats.bytes_reclaimed > 0
        orders = [e for e in ledger.entries
                  if e["kind"] == "cluster_gc"
                  and e["action"] == "forced_spill"]
        assert orders
        entry = orders[0]
        assert entry["rule"] == "tenant_budget"
        assert entry["inputs"]["chosen_tenant"] in ("greedy", "frugal")
        assert entry["inputs"]["chosen_machine"].startswith("q")
        # rejected cross-query alternatives span both runtimes
        losers = [a for a in entry["alternatives"]
                  if a["outcome"] == "rejected"]
        loser_text = " ".join(a["predicate"] for a in losers)
        assert "q1:" in loser_text and "q2:" in loser_text

    def test_decisions_replay_offline(self):
        _, _, ledger = self.run_over_budget()
        assert verify_replay(ledger.entries) == []
        order = next(e for e in ledger.entries
                     if e["kind"] == "cluster_gc"
                     and e["action"] == "forced_spill")
        replayed = replay_decision(order)
        assert replayed["machine"] == order["inputs"]["chosen_machine"]
        assert replayed["amount"] == order["inputs"]["chosen_amount"]

    def test_why_lines_carry_tenant_attribution(self):
        _, _, ledger = self.run_over_budget()
        order = next(e for e in ledger.entries
                     if e["kind"] == "cluster_gc"
                     and e["action"] == "forced_spill")
        line = why(order)
        assert order["inputs"]["chosen_tenant"] in line
        assert "over budget" in line
        admit = next(e for e in ledger.entries if e["kind"] == "admission")
        assert "greedy" in why(admit)

    def test_within_budget_records_idle_tick(self):
        ledger = DecisionLedger()
        server = make_server(ledger=ledger)
        serve(server, [make_spec("acme", duration=20.0)],
              duration=20.0, tail=10.0)
        ticks = [e for e in ledger.entries if e["kind"] == "cluster_gc"]
        assert ticks
        assert all(t["action"] == "none" for t in ticks)
        assert all(t["rule"] == "within_budget" for t in ticks)
        assert verify_replay(ledger.entries) == []


# ----------------------------------------------------------------------
# Relocation arbitration
# ----------------------------------------------------------------------
class TestArbitration:
    def test_arbiter_mutual_exclusion(self):
        arb = RelocationArbiter()
        assert arb.acquire("q1:gc")
        assert arb.acquire("q1:gc")  # re-entrant for the holder
        assert not arb.acquire("q2:gc")
        assert arb.denials == 1
        arb.release("q2:gc")  # non-holder release is a no-op
        assert arb.holder == "q1:gc"
        arb.release("q1:gc")
        assert arb.acquire("q2:gc")

    def test_single_runtime_is_never_denied(self):
        """One deployment on the server always gets the slot — the
        precondition for folded-vs-standalone byte-equivalence."""
        server = make_server()
        handle = server.submit(make_spec("acme"))
        server.run_for(60.0, sample_interval=5.0)
        server.finish()
        assert server.groups[handle.group].deployment.relocation_count > 0
        assert server.arbiter.denials == 0
        assert server.arbiter.holder is None  # released on session end

    def test_contending_runtimes_replay_cleanly(self):
        """With two relocation-prone runtimes, denials may occur; every
        denied tick carries the ``arbitration_denied`` input so the
        replayed cascade skips the same branch."""
        ledger = DecisionLedger()
        server = make_server(fold=False, ledger=ledger)
        serve(server, [
            make_spec("acme", assignment={"m1": 0.8, "m2": 0.2}),
            make_spec("globex", assignment={"m1": 0.8, "m2": 0.2}),
        ])
        assert verify_replay(ledger.entries) == []
        # identical skewed runtimes want the slot on the same tick: the
        # arbiter must actually have turned one away
        assert server.arbiter.denials > 0
        denied = [e for e in ledger.entries
                  if e["inputs"].get("arbitration_denied")]
        assert denied
        for entry in denied:
            assert replay_decision(entry)["action"] != "relocate"
            assert any("slot held by" in a["predicate"]
                       for a in entry["alternatives"])


# ----------------------------------------------------------------------
# Fold savings accounting
# ----------------------------------------------------------------------
class TestFoldSavings:
    def test_four_query_shared_stream_savings(self):
        server = make_server(
            [Tenant(f"t{i}", 500_000) for i in range(1, 5)],
            capacity=2_000_000,
        )
        handles = serve(
            server,
            [make_spec(f"t{i}", duration=30.0) for i in range(1, 5)],
            duration=30.0, tail=15.0,
        )
        assert sum(1 for h in handles if h.folded) == 3
        assert server.max_fold_state_bytes_saved > 0
        # savings = shared resident state x (members - 1), peak-tracked
        text = server.metrics.registry.to_prometheus()
        assert "repro_fold_state_bytes_saved" in text
        assert 'repro_admissions_total{verdict="fold"} 3' in text

    def test_fold_off_saves_nothing(self):
        server = make_server(
            [Tenant(f"t{i}", 500_000) for i in range(1, 5)],
            capacity=2_000_000, fold=False,
        )
        handles = serve(
            server,
            [make_spec(f"t{i}", duration=20.0) for i in range(1, 5)],
            duration=20.0, tail=10.0,
        )
        assert all(not h.folded for h in handles)
        assert server.max_fold_state_bytes_saved == 0
        assert server.cluster_used == sum(h.demand for h in handles)
