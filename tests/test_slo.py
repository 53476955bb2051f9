"""Tests for latency attribution, watermarks and SLO burn (repro.obs.slo).

Covers the observability acceptance battery:

* sketch algebra — merge associativity, byte-identical serialization,
  bucket-count round trips;
* cross-source identity — the column source and the same deployment fed
  row lists produce byte-identical latency sketches and watermarks;
* burn-rate edges — budget exhaustion exactly at the boundary, window
  pruning, spikes not double-counted across later windows;
* cause attribution — overlapping adaptation windows scale to the
  budget instead of double-counting, and the decomposition sums to e2e;
* mutation detection — forged ``slo_check`` inputs, dropped/duplicated
  ``slo.alert`` events and watermark regressions are all caught;
* the zero-overhead contract — disabled runs are unperturbed;
* the two-tenant acceptance scenario — spill + relocation + crash with
  a replayable alert stream.
"""

import copy
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer
from repro.obs import check_trace
from repro.obs.ledger import DecisionLedger, check_ledger_trace, verify_replay
from repro.obs.sketch import BUCKET_BOUNDS, LatencySketch
from repro.obs.slo import (
    ADAPT_CAUSES,
    CAUSES,
    EngineTracker,
    LatencyHub,
    SLOConfig,
    SLOMonitor,
    _FOLD_AT,
    _slo_cascade,
)
from repro.obs.trace import PHASE_INSTANT, TraceEvent
from repro.serving import QueryServer, QuerySpec, Tenant
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import feed_rows

#: one quarter-octave bucket's worst-case midpoint error, squared to
#: bound a ratio of two midpoint-weighted sums
_BUCKET_TOL = 2.0 ** 0.25


def run_latency_deployment(*, rows=False, slo=None, tracer=None,
                           ledger=None, latency=True, duration=90.0,
                           threshold=40_000, seed=7):
    dep = Deployment(
        join=three_way_join(),
        workload=WorkloadSpec.uniform(n_partitions=12, join_rate=3,
                                      tuple_range=600, interarrival=0.01,
                                      seed=seed),
        workers=2,
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=threshold,
            ss_interval=5.0,
            stats_interval=5.0,
            coordinator_interval=10.0,
        ),
        assignment={"m1": 3.0, "m2": 1.0},
        tracer=tracer,
        ledger=ledger,
        latency=latency,
        slo=slo,
    )
    if rows:
        feed_rows(dep)
    dep.run(duration=duration, sample_interval=15.0)
    return dep


def sketch_of(values):
    sketch = LatencySketch()
    for value in values:
        sketch.record(value)
    return sketch


# ----------------------------------------------------------------------
# Sketch algebra
# ----------------------------------------------------------------------
class TestLatencySketch:
    def test_merge_associative_and_commutative(self):
        values = [0.0004 * 1.31 ** i for i in range(45)]
        a = sketch_of(values[:15])
        b = sketch_of(values[15:30])
        c = sketch_of(values[30:])
        left = a.copy().merge(b).merge(c)
        right = a.copy().merge(b.copy().merge(c))
        assert left == right
        assert left.to_bytes() == right.to_bytes()
        assert a.copy().merge(b).to_bytes() == b.copy().merge(a).to_bytes()

    def test_serialization_round_trip_byte_identical(self):
        sketch = sketch_of([0.0, 0.0004, 0.001, 0.5, 3600.0, 99999.0])
        blob = sketch.to_bytes()
        back = LatencySketch.from_bytes(blob)
        assert back == sketch
        assert back.count == sketch.count
        assert back.to_bytes() == blob

    def test_bucket_counts_round_trip(self):
        sketch = sketch_of([0.0, 0.002, 0.1, 7.0])
        counts = sketch.bucket_counts()
        assert len(counts) == len(BUCKET_BOUNDS) + 1
        assert LatencySketch.from_bucket_counts(counts) == sketch

    def test_record_zero_matches_record(self):
        a, b = LatencySketch(), LatencySketch()
        a.record(0.0, 5)
        b.record_zero(5)
        assert a == b
        assert a.to_bytes() == b.to_bytes()
        b.record_zero(0)
        assert b.count == 5

    def test_quantile_within_bucket_tolerance(self):
        sketch = sketch_of([0.05] * 100)
        p50 = sketch.quantile(0.5)
        assert 0.05 / _BUCKET_TOL <= p50 <= 0.05 * _BUCKET_TOL

    def test_count_above_is_bucket_granular(self):
        sketch = LatencySketch()
        sketch.record(0.0, 10)
        sketch.record(1.0, 3)
        assert sketch.count_above(0.5) == 3
        assert sketch.count_above(2.0) == 0


# ----------------------------------------------------------------------
# Burn-rate rule cascade edges
# ----------------------------------------------------------------------
def cascade(total, bad, window_total, window_bad, *, error_budget=0.01,
            burn_alert=1.0):
    action, *_ = _slo_cascade({
        "error_budget": error_budget,
        "burn_alert": burn_alert,
        "total": total,
        "bad": bad,
        "window_total": window_total,
        "window_bad": window_bad,
    })
    return action


class TestSLOConfig:
    @pytest.mark.parametrize("field", ["target_p99", "window", "burn_alert",
                                       "stall_timeout"])
    def test_nan_setting_rejected(self, field):
        settings = {"target_p99": 0.05, field: float("nan")}
        with pytest.raises(ValueError):
            SLOConfig(**settings)


class TestBurnRateEdges:
    def test_no_results_in_window(self):
        assert cascade(100, 5, 0, 0) == "no_results"

    def test_budget_exhaustion_fires_exactly_at_boundary(self):
        # bad == error_budget * total: >= fires *at* the boundary
        assert cascade(1000, 10, 100, 0) == "budget_exhausted"

    def test_one_below_boundary_does_not_exhaust(self):
        assert cascade(1000, 9, 100, 0) == "within_budget"

    def test_burn_alert_fires_at_threshold(self):
        # burn = (1/100)/0.01 = 1.0 == burn_alert
        assert cascade(10_000, 1, 100, 1) == "alert"

    def test_clean_window_within_budget(self):
        assert cascade(10_000, 1, 100, 0) == "within_budget"


class TestSLOMonitorWindow:
    def make(self, slo):
        hub = LatencyHub()
        tracker = hub.tracker("m1")
        monitor = SLOMonitor(hub, query="q", tenant="t", slo=slo,
                             machines=["m1"], site="gc")
        return tracker, monitor

    def test_budget_exhaustion_at_exact_window_boundary(self):
        tracker, monitor = self.make(
            SLOConfig(target_p99=0.05, error_budget=0.1, window=30.0)
        )
        # the first tick only seeds the window baseline
        assert monitor.evaluate(0.0) == "no_results"
        tracker.sketches["e2e"].record(0.001, 90)
        assert monitor.evaluate(10.0) == "within_budget"
        tracker.sketches["e2e"].record(1.0, 10)  # bad == 0.1 * 100 exactly
        assert monitor.evaluate(20.0) == "budget_exhausted"
        assert monitor.status == "breaching"
        assert monitor.alerts == 1

    def test_spike_not_double_counted_across_windows(self):
        """A burst of bad results alerts while it is inside the burn
        window; later windows see zero *new* bad results, so the burn
        rate recovers instead of the same spike re-alerting forever."""
        tracker, monitor = self.make(
            SLOConfig(target_p99=0.05, error_budget=0.1, window=30.0)
        )
        monitor.evaluate(0.0)
        tracker.sketches["e2e"].record(0.001, 400)
        assert monitor.evaluate(10.0) == "within_budget"
        tracker.sketches["e2e"].record(1.0, 15)  # the spike
        # the t=10 sample is the window baseline, so the delta is all
        # spike: burn = (15/15) / 0.1 = 10, while the cumulative budget
        # (15 < 0.1 * 415) still has headroom — the burn-rate rule fires
        assert monitor.evaluate(40.0) == "alert"
        # fresh traffic, no new bad results: once the spike leaves the
        # burn window the query is healthy again
        tracker.sketches["e2e"].record(0.001, 300)
        assert monitor.evaluate(80.0) == "within_budget"
        assert monitor.status == "meeting"
        assert monitor.alerts == 1

    def test_window_pruning_keeps_baseline_one_window_old(self):
        tracker, monitor = self.make(
            SLOConfig(target_p99=0.05, error_budget=0.5, window=30.0)
        )
        monitor.evaluate(0.0)
        tracker.sketches["e2e"].record(1.0, 10)  # bad burst up front
        actions = [monitor.evaluate(5.0)]
        for t in (10.0, 20.0, 30.0, 40.0, 50.0):
            tracker.sketches["e2e"].record(0.001, 10)
            actions.append(monitor.evaluate(t))
        # the burst breaches while inside the window, then ages out of
        # the delta: only samples in [now - window, now] contribute
        assert actions[0] == "budget_exhausted"
        assert actions[-1] == "within_budget"
        assert monitor.status == "meeting"


# ----------------------------------------------------------------------
# Cause attribution
# ----------------------------------------------------------------------
class TestCauseAttribution:
    def test_overlapping_windows_scale_to_budget(self):
        """A spill window fully overlapped by a recovery window must not
        attribute the blocked time twice: the per-cause shares are scaled
        so their sum never exceeds the queueing budget."""
        hub = LatencyHub()
        tracker = hub.tracker("m1")
        clock = tracker.clock
        clock.begin("spilled", 0.0)
        clock.begin("recovering", 0.0)
        clock.end("spilled", 10.0)
        clock.end("recovering", 10.0)
        tracker._observe_one(0.0, 10.0, 10.5, 10.5, 1)
        sketches = tracker.sketches
        budget = 10.0  # pre = t_run - ts
        attributed = sum(sketches[c].sum() for c in ADAPT_CAUSES)
        assert attributed <= budget * _BUCKET_TOL
        # both causes got an equal, scaled share (5s each, not 10s each)
        spilled = sketches["spilled"].sum()
        recovering = sketches["recovering"].sum()
        assert spilled > 0 and recovering > 0
        assert abs(spilled - recovering) < 1e-9
        assert spilled <= 5.0 * _BUCKET_TOL

    def test_decomposition_sums_to_e2e(self):
        hub = LatencyHub()
        tracker = hub.tracker("m1")
        tracker.clock.begin("spilled", 2.0)
        tracker.clock.end("spilled", 4.0)
        for ts, t_run in ((0.0, 1.0), (1.0, 5.0), (4.5, 6.0)):
            tracker._observe_one(ts, t_run, t_run + 0.5, t_run + 0.5, 2)
        sketches = tracker.sketches
        e2e = sketches["e2e"].sum()
        parts = sum(sketches[c].sum() for c in CAUSES if c != "e2e")
        assert e2e > 0
        assert 1.0 / _BUCKET_TOL <= parts / e2e <= _BUCKET_TOL

    def test_sketches_property_flushes_deferred_zero_pad(self):
        """The count-only fast path defers the adaptation causes' zero
        records; any external read must still see cause counts equal to
        the e2e count."""
        hub = LatencyHub()
        tracker = hub.tracker("m1")
        tracker.observe(1.0, 1.5, 1.5, count=7, ts_rep=1.0)
        sketches = tracker.sketches
        for cause in CAUSES:
            assert sketches[cause].count == 7, cause
        for cause in ADAPT_CAUSES:
            assert sketches[cause].sum() == 0.0

    def test_count_fast_path_matches_observe_one(self):
        hub = LatencyHub()
        fast, slow = hub.tracker("fast"), hub.tracker("slow")
        cases = [(0.0, 1.0, 1.5, 1.5, 4), (2.0, 2.0, 2.25, 2.25, 1)]
        for ts, t_run, credit, emit, count in cases:
            fast.observe(t_run, credit, emit, count=count, ts_rep=ts)
            slow._observe_one(ts, t_run, credit, emit, count)
        for cause in CAUSES:
            assert (fast.sketches[cause].to_bytes()
                    == slow.sketches[cause].to_bytes()), cause

    def test_materialized_batch_is_one_weighted_observation_per_row(
            self, monkeypatch):
        """All results of one probing row share its ``ts``: a lazy batch
        (read through ``ts_counts``) merges each run of equal ``ts`` into
        one weighted observation, and the sketches equal one observation
        per result — with a blocking window in the past, so the per-cause
        walk is what gets amortised."""
        per_row = [(0.5, 3), (0.5, 2), (2.0, 1), (0.5, 4)]  # (ts, results)
        rows = [SimpleNamespace(ts=ts) for ts, n in per_row for _ in range(n)]

        class Lazy(list):  # a ResultBatch, as far as the tracker can tell
            def ts_counts(self):
                return iter(per_row)

        weights = []
        observe_one = EngineTracker._observe_one

        def spy(self, ts, t_run, credit, emit, weight):
            weights.append((self.machine, weight))
            observe_one(self, ts, t_run, credit, emit, weight)

        monkeypatch.setattr(EngineTracker, "_observe_one", spy)
        hub = LatencyHub()
        trackers = {name: hub.tracker(name) for name in ("lazy", "each")}
        for tracker in trackers.values():
            tracker.clock.begin("spilled", 1.0)
            tracker.clock.end("spilled", 3.0)
        trackers["lazy"].observe(4.0, 4.5, 5.0, results=Lazy(rows))
        for row in rows:
            trackers["each"]._observe_one(row.ts, 4.0, 4.5, 5.0, 1)
        assert [w for m, w in weights if m == "lazy"] == [5, 1, 4]
        for cause in CAUSES:
            assert (trackers["lazy"].sketches[cause].to_bytes()
                    == trackers["each"].sketches[cause].to_bytes()), cause
        assert trackers["each"].sketches["spilled"].sum() > 0

    def test_deferred_batches_fold_bounded_and_exact(self):
        """The fast path parks batches in a bounded list; folding them —
        at the bound or on read — gives the sketches of eager records."""
        hub = LatencyHub()
        fast, slow = hub.tracker("fast"), hub.tracker("slow")
        for i in range(1000):
            t_run = 1.0 + i * 0.37
            credit = t_run + 0.001 * (1 + i % 50)
            ts, count = t_run - 0.002 * (i % 7), 1 + i % 3
            fast.observe(t_run, credit, credit, count=count, ts_rep=ts)
            slow._observe_one(ts, t_run, credit, credit, count)
            assert len(fast._fast) < _FOLD_AT
        for cause in CAUSES:
            assert (fast.sketches[cause].to_bytes()
                    == slow.sketches[cause].to_bytes()), cause
        assert not fast._fast


# ----------------------------------------------------------------------
# Cross-source and cross-run determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def snapshot(self, dep):
        lat = dep.metrics.latency
        blobs = {
            (machine, cause): tracker.sketches[cause].to_bytes()
            for machine, tracker in sorted(lat.trackers.items())
            for cause in CAUSES
        }
        watermarks = {
            machine: dict(tracker.watermarks)
            for machine, tracker in sorted(lat.trackers.items())
        }
        return blobs, watermarks

    def test_data_paths_byte_identical(self):
        """The column source and the row source (the same arrivals fed as
        row lists, re-batched by ``ColumnBatch.from_routed``) extract the
        same last-arrival watermark frontier and record identical latency
        sketches."""
        snaps = {
            rows: self.snapshot(run_latency_deployment(rows=rows))
            for rows in (True, False)
        }
        assert snaps[True] == snaps[False]
        blobs, watermarks = snaps[True]
        assert any(blob != b'{"counts":{},"v":1}' for blob in blobs.values())
        assert watermarks["m1"]

    def test_same_seed_byte_identical_across_runs(self):
        first = self.snapshot(run_latency_deployment(seed=11, duration=60.0))
        second = self.snapshot(run_latency_deployment(seed=11, duration=60.0))
        assert first == second


# ----------------------------------------------------------------------
# Mutation detection (ledger replay, alert bijection, watermark check)
# ----------------------------------------------------------------------
class TestMutationDetection:
    @pytest.fixture(scope="class")
    def run(self):
        tracer, ledger = Tracer(), DecisionLedger()
        dep = run_latency_deployment(
            slo=SLOConfig(target_p99=0.02), tracer=tracer, ledger=ledger,
            threshold=30_000,
        )
        slo_entries = [e for e in ledger.entries if e["kind"] == "slo_check"]
        breaching = [e for e in slo_entries
                     if e["action"] in ("alert", "budget_exhausted")]
        assert breaching, "scenario must breach its 20 ms SLO"
        return dep, tracer, ledger, breaching

    def test_clean_run_replays_and_checks_clean(self, run):
        _, tracer, ledger, _ = run
        assert verify_replay(ledger.entries) == []
        assert check_ledger_trace(tracer.events, ledger.entries) == []
        assert not [v for v in check_trace(tracer.events)
                    if "watermark" in v.check]

    def test_forged_slo_inputs_fail_replay(self, run):
        _, _, ledger, breaching = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries if e["id"] == breaching[0]["id"])
        mutated["inputs"]["bad"] = 0
        mutated["inputs"]["window_bad"] = 0
        violations = verify_replay(entries)
        assert any(v.seq == mutated["id"] for v in violations)

    def test_dropped_alert_event_fires(self, run):
        _, tracer, ledger, _ = run
        alerts = [e for e in tracer.events if e.name == "slo.alert"]
        assert alerts
        events = [e for e in tracer.events if e is not alerts[0]]
        violations = check_ledger_trace(events, ledger.entries)
        assert any("no slo.alert trace event" in v.message
                   for v in violations)

    def test_duplicated_alert_event_fires(self, run):
        _, tracer, ledger, _ = run
        alert = next(e for e in tracer.events if e.name == "slo.alert")
        dupe = replace(alert, seq=tracer.events[-1].seq + 1)
        violations = check_ledger_trace(list(tracer.events) + [dupe],
                                        ledger.entries)
        assert any("more than one slo.alert" in v.message
                   for v in violations)

    def test_alert_naming_non_breaching_entry_fires(self, run):
        _, tracer, ledger, _ = run
        within = next(e for e in ledger.entries
                      if e["kind"] == "slo_check"
                      and e["action"] not in ("alert", "budget_exhausted"))
        alert = next(e for e in tracer.events if e.name == "slo.alert")
        forged = replace(alert, seq=tracer.events[-1].seq + 1,
                         fields={**alert.fields, "entry": within["id"]})
        violations = check_ledger_trace(list(tracer.events) + [forged],
                                        ledger.entries)
        assert any("not a breaching slo_check" in v.message
                   for v in violations)

    def _regressed_watermark_event(self, tracer, *, incarnation_bump):
        last = next(e for e in reversed(tracer.events)
                    if e.name == "engine.watermark" and e.get("watermarks"))
        watermarks = dict(last.get("watermarks"))
        stream = sorted(watermarks)[0]
        watermarks[stream] -= 1.0
        return TraceEvent(
            seq=tracer.events[-1].seq + 1, ts=last.ts, phase=PHASE_INSTANT,
            name="engine.watermark", machine=last.machine, span=None,
            parent=None,
            fields={
                "watermarks": watermarks,
                "incarnation": last.get("incarnation", 0) + incarnation_bump,
            },
        )

    def test_watermark_regression_fires_check_11(self, run):
        _, tracer, _, _ = run
        forged = self._regressed_watermark_event(tracer, incarnation_bump=0)
        violations = check_trace(list(tracer.events) + [forged])
        assert any(v.check == "watermark-monotonic" and "regressed"
                   in v.message for v in violations)

    def test_incarnation_bump_allows_watermark_reset(self, run):
        _, tracer, _, _ = run
        forged = self._regressed_watermark_event(tracer, incarnation_bump=1)
        violations = check_trace(list(tracer.events) + [forged])
        assert not [v for v in violations if v.check == "watermark-monotonic"]

    def test_stale_incarnation_report_fires(self, run):
        _, tracer, _, _ = run
        last = next(e for e in reversed(tracer.events)
                    if e.name == "engine.watermark" and e.get("watermarks"))
        forged = replace(last, seq=tracer.events[-1].seq + 1,
                         fields={**last.fields, "incarnation": -1})
        violations = check_trace(list(tracer.events) + [forged])
        assert any(v.check == "watermark-monotonic" and "stale incarnation"
                   in v.message for v in violations)


# ----------------------------------------------------------------------
# Zero-overhead contract
# ----------------------------------------------------------------------
class TestZeroOverheadContract:
    def test_disabled_run_is_unperturbed_by_enabling(self):
        """Enabling tracking must observe, never steer: the simulation
        (outputs, spills, relocations) is identical either way, and a
        disabled run emits no latency trace events at all."""
        plain_tracer = Tracer()
        plain = run_latency_deployment(latency=False, tracer=plain_tracer,
                                       duration=60.0)
        enabled_tracer = Tracer()
        enabled = run_latency_deployment(
            latency=True, slo=SLOConfig(target_p99=0.02),
            tracer=enabled_tracer, ledger=DecisionLedger(), duration=60.0,
        )
        assert plain.metrics.latency is None
        assert plain.total_outputs == enabled.total_outputs
        assert plain.spill_count == enabled.spill_count
        assert plain.relocation_count == enabled.relocation_count
        latency_events = ("engine.watermark", "slo.alert", "watermark.stall")
        assert not [e for e in plain_tracer.events
                    if e.name in latency_events]
        assert [e for e in enabled_tracer.events
                if e.name == "engine.watermark"]

    def test_disabled_traces_byte_identical_across_runs(self):
        blobs = []
        for _ in range(2):
            tracer = Tracer()
            run_latency_deployment(latency=False, tracer=tracer,
                                   duration=60.0)
            blobs.append(tracer.to_jsonl())
        assert blobs[0] == blobs[1]

    def test_slo_requires_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Deployment(
                join=three_way_join(),
                workload=WorkloadSpec.uniform(n_partitions=4, join_rate=1,
                                              tuple_range=100,
                                              interarrival=0.1),
                workers=2,
                config=AdaptationConfig(strategy=StrategyName.LAZY_DISK),
                slo=SLOConfig(target_p99=0.05),
            )


# ----------------------------------------------------------------------
# Two-tenant acceptance: spill + relocation + crash, replayable alerts
# ----------------------------------------------------------------------
class TestTwoTenantAcceptance:
    @pytest.fixture(scope="class")
    def run(self):
        tracer, ledger = Tracer(), DecisionLedger()
        server = QueryServer(
            [Tenant("acme", 800_000), Tenant("globex", 800_000)],
            cluster_capacity=2_000_000,
            fold_enabled=False,
            tracer=tracer,
            ledger=ledger,
            latency=True,
        )
        config = AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=30_000,
            theta_r=0.9,
            tau_m=10.0,
            coordinator_interval=5.0,
            stats_interval=2.0,
            ss_interval=2.0,
            min_relocation_bytes=1024,
            checkpoint_enabled=True,
            checkpoint_interval=6.0,
            failure_timeout=5.0,
        )

        def spec(tenant, slo, seed):
            return QuerySpec(
                join=three_way_join(),
                workload=WorkloadSpec.uniform(
                    n_partitions=12, join_rate=4.0, tuple_range=400,
                    interarrival=0.02, seed=seed,
                ),
                config=config,
                workers=2,
                tenant=tenant,
                duration=60.0,
                seed=seed,
                assignment={"m1": 3.0, "m2": 1.0},
                slo=slo,
            )

        tight = server.submit(spec("acme", SLOConfig(target_p99=0.02), 7))
        loose = server.submit(spec("globex", SLOConfig(target_p99=60.0), 8))
        dep = server.groups[tight.group].deployment
        FaultSchedule([
            MachineCrash(time=15.0, engine=dep.engines["q1:m2"]),
            MachineRestart(time=25.0, engine=dep.engines["q1:m2"]),
        ]).arm(server.sim)
        server.run_for(80.0, sample_interval=5.0)
        server.finish()
        return server, tracer, ledger, tight, loose

    def test_adaptations_all_occurred(self, run):
        server, _, _, tight, _ = run
        dep = server.groups[tight.group].deployment
        assert dep.spill_count > 0
        assert dep.checkpoint_count > 0
        lat = server.metrics.latency
        assert lat.merged("spilled", query=tight.qid).sum() > 0
        assert lat.merged("recovering", query=tight.qid).sum() > 0

    def test_per_query_decomposition_sums_to_e2e(self, run):
        server, _, _, tight, loose = run
        lat = server.metrics.latency
        for handle in (tight, loose):
            breakdown = lat.breakdown(query=handle.qid)
            e2e = breakdown["e2e"]
            assert e2e.count > 0
            parts_sum = sum(breakdown[c].sum() for c in CAUSES if c != "e2e")
            if e2e.sum() > 0:
                ratio = parts_sum / e2e.sum()
                assert 1.0 / _BUCKET_TOL <= ratio <= _BUCKET_TOL, handle.qid
            for cause in CAUSES:
                assert breakdown[cause].count == e2e.count, cause

    def test_tight_slo_breaches_and_loose_meets(self, run):
        server, _, _, tight, loose = run
        lat = server.metrics.latency
        assert lat.monitors[tight.qid].status == "breaching"
        assert lat.monitors[tight.qid].alerts > 0
        assert lat.monitors[loose.qid].status == "meeting"
        assert lat.monitors[loose.qid].alerts == 0

    def test_alerts_replay_and_bijection_hold(self, run):
        _, tracer, ledger, _, _ = run
        assert verify_replay(ledger.entries) == []
        assert check_ledger_trace(tracer.events, ledger.entries) == []

    def test_watermarks_advance_on_both_queries(self, run):
        server, _, _, tight, loose = run
        lat = server.metrics.latency
        for handle in (tight, loose):
            machines = [m for m, t in lat.trackers.items()
                        if t.labels.get("query") == handle.qid]
            assert machines
            assert any(lat.trackers[m].watermarks for m in machines)
