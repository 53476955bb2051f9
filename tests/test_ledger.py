"""Tests for the adaptation decision ledger (repro.obs.ledger)."""

import copy
import json

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer
from repro.obs import InvariantChecker, check_trace
from repro.obs.ledger import (
    DecisionLedger,
    NULL_LEDGER,
    check_ledger_trace,
    load_jsonl,
    replay_decision,
    verify_replay,
    write_run_jsonl,
)
from repro.workloads import WorkloadSpec, three_way_join

from tests.helpers import assert_rules_replay


def small_workload(interarrival=0.01):
    return WorkloadSpec.uniform(n_partitions=12, join_rate=3,
                                tuple_range=600, interarrival=interarrival)


def run_deployment(strategy, *, tracer=None, ledger=None, duration=90.0,
                   threshold=40_000, workers=2):
    dep = Deployment(
        join=three_way_join(),
        workload=small_workload(),
        workers=workers,
        config=AdaptationConfig(
            strategy=strategy,
            memory_threshold=threshold,
            ss_interval=5.0,
            stats_interval=5.0,
            coordinator_interval=10.0,
        ),
        assignment={f"m{i + 1}": (3.0 if i == 0 else 1.0)
                    for i in range(workers)},
        tracer=tracer,
        ledger=ledger,
    )
    dep.run(duration=duration, sample_interval=15.0)
    return dep


class TestNullLedger:
    def test_disabled_and_inert(self):
        assert NULL_LEDGER.enabled is False
        assert NULL_LEDGER.record("gc", "gc_tick", "none", "idle", {}) == 0
        NULL_LEDGER.annotate(0, victims=[])
        NULL_LEDGER.realize(0, status="done")  # no-op, no error


class TestDecisionLedger:
    def test_record_get_annotate_realize(self):
        ledger = DecisionLedger(clock=lambda: 7.0)
        entry_id = ledger.record("gc", "gc_tick", "relocate", "theta_r",
                                 {"now": 7.0}, [], trace_span=3)
        assert entry_id == 1
        entry = ledger.get(entry_id)
        assert entry["ts"] == 7.0
        assert entry["trace_span"] == 3
        ledger.annotate(entry_id, victims=[{"pid": 1, "bytes": 10, "score": 0.5}])
        ledger.realize(entry_id, status="done", bytes_moved=10)
        assert entry["victims"][0]["pid"] == 1
        assert entry["realized"] == {"status": "done", "bytes_moved": 10}

    def test_zero_entry_id_ignored(self):
        ledger = DecisionLedger()
        ledger.annotate(0, victims=[])
        ledger.realize(0, status="done")
        assert len(ledger) == 0

    def test_unknown_entry_raises(self):
        ledger = DecisionLedger()
        with pytest.raises(KeyError):
            ledger.get(5)

    def test_jsonl_round_trip(self, tmp_path):
        ledger = DecisionLedger(clock=lambda: 1.0)
        ledger.record("m1", "overflow_check", "spill", "memory_threshold",
                      {"state_bytes": 10, "memory_threshold": 5,
                       "mode": "normal"})
        path = tmp_path / "ledger.jsonl"
        ledger.write_jsonl(path)
        assert load_jsonl(path) == ledger.entries


class TestLiveLedger:
    """Seeded lazy-disk and active-disk runs: the acceptance criteria."""

    @pytest.fixture(scope="class", params=["lazy_disk", "active_disk"])
    def run(self, request):
        tracer, ledger = Tracer(), DecisionLedger()
        dep = run_deployment(StrategyName(request.param),
                             tracer=tracer, ledger=ledger)
        return dep, tracer, ledger

    def test_decisions_recorded(self, run):
        dep, _, ledger = run
        assert dep.spill_count > 0
        actions = {e["action"] for e in ledger.entries}
        assert "spill" in actions

    def test_bijective_ledger_trace(self, run):
        _, tracer, ledger = run
        assert check_ledger_trace(tracer.events, ledger.entries) == []

    def test_replay_reproduces_every_decision(self, run):
        _, _, ledger = run
        for entry in ledger.entries:
            assert replay_decision(entry)["action"] == entry["action"]
        assert_rules_replay(ledger.entries)

    def test_invariant_checker_integration(self, run):
        _, tracer, ledger = run
        checker = InvariantChecker()
        checker.feed(tracer.events)
        assert checker.check_ledger(ledger.entries) == []
        assert checker.finish() == []
        assert check_trace(tracer.events, ledger_entries=ledger.entries) == []

    def test_executed_entries_carry_victims_and_costs(self, run):
        _, _, ledger = run
        spills = [e for e in ledger.entries
                  if e["action"] == "spill"
                  and e["realized"].get("executed") is not False]
        assert spills
        for entry in spills:
            assert entry["victims"], "executed spill should list its victims"
            for victim in entry["victims"]:
                assert set(victim) == {"pid", "bytes", "score"}
            assert entry["realized"]["bytes_spilled"] > 0
            assert entry["realized"]["duration"] > 0

    def test_relocation_entries_link_spans(self, run):
        _, tracer, ledger = run
        spans = {e.span for e in tracer.events
                 if e.phase == "B" and e.name == "relocation"}
        relocs = [e for e in ledger.entries if e["action"] == "relocate"]
        for entry in relocs:
            assert entry["trace_span"] in spans

    def test_rejected_alternatives_have_predicates(self, run):
        _, _, ledger = run
        idle = [e for e in ledger.entries
                if e["kind"] == "gc_tick" and e["action"] == "none"
                and e["rule"] == "idle"]
        for entry in idle:
            assert entry["alternatives"], "idle ticks must explain rejections"
            for alt in entry["alternatives"]:
                assert alt["outcome"] == "rejected"
                assert alt["predicate"]


class TestMutationDetection:
    """Drop/duplicate/corrupt a ledger entry => the checker fires."""

    @pytest.fixture(scope="class")
    def run(self):
        tracer, ledger = Tracer(), DecisionLedger()
        run_deployment(StrategyName.LAZY_DISK, tracer=tracer, ledger=ledger)
        executed = [e for e in ledger.entries
                    if e["action"] != "none"
                    and e["realized"].get("executed") is not False]
        assert executed, "need at least one executed decision to mutate"
        return tracer, ledger, executed

    def test_dropped_entry_fires(self, run):
        tracer, ledger, executed = run
        entries = [e for e in ledger.entries if e is not executed[0]]
        violations = check_ledger_trace(tracer.events, entries)
        assert any("no justifying ledger entry" in v.message
                   for v in violations)

    def test_duplicated_entry_fires(self, run):
        tracer, ledger, executed = run
        dupe = copy.deepcopy(executed[0])
        violations = check_ledger_trace(tracer.events,
                                        ledger.entries + [dupe])
        assert any("justified by both" in v.message for v in violations)

    def test_retargeted_span_fires(self, run):
        tracer, ledger, executed = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries if e["id"] == executed[0]["id"])
        mutated["trace_span"] = 999_999
        violations = check_ledger_trace(tracer.events, entries)
        assert any("not an adaptation span" in v.message
                   for v in violations)

    def test_forged_inputs_fail_replay(self, run):
        _, ledger, executed = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries if e["id"] == executed[0]["id"])
        if mutated["kind"] == "overflow_check":
            mutated["inputs"]["state_bytes"] = 0  # below any threshold
            mutated["inputs"]["forced"] = False
        else:
            mutated["inputs"]["deferred"] = True
        violations = verify_replay(entries)
        assert any(v.seq == mutated["id"] for v in violations)


class TestRepartitionLedger:
    """Split/merge decisions: recorded, replayable, and forgery-proof."""

    @pytest.fixture(scope="class")
    def run(self):
        from repro.workloads.generator import PartitionWorkload
        from repro.workloads.patterns import AlternatingPattern

        parts = tuple(
            PartitionWorkload(pid=i, join_rate=3.0, tuple_range=240,
                              weight=(4.0 if i == 0 else 1.0))
            for i in range(8)
        )
        tracer, ledger = Tracer(), DecisionLedger()
        dep = Deployment(
            join=three_way_join(window=10.0),
            workload=WorkloadSpec(
                n_partitions=8, partitions=parts, interarrival=0.05,
                seed=11,
                pattern=AlternatingPattern([{0}, frozenset()], period=30.0,
                                           factor=6.0),
            ),
            workers=2,
            config=AdaptationConfig(
                strategy=StrategyName.LAZY_DISK,
                memory_threshold=60_000,
                theta_r=0.05, tau_m=10.0,
                coordinator_interval=5.0, stats_interval=2.0,
                ss_interval=2.0, min_relocation_bytes=1024,
                repartition_enabled=True, split_skew_factor=2.5,
                split_min_bytes=4_000, merge_max_bytes=6_000, tau_p=8.0,
            ),
            assignment={"m1": 1.0, "m2": 1.0},
            tracer=tracer,
            ledger=ledger,
        )
        dep.run(duration=120.0, sample_interval=15.0)
        return dep, tracer, ledger

    def split_entries(self, ledger):
        return [e for e in ledger.entries
                if e["kind"] == "repartition" and e["action"] == "split"]

    def test_split_and_merge_decisions_recorded(self, run):
        dep, _, ledger = run
        actions = {e["action"] for e in ledger.entries
                   if e["kind"] == "repartition"}
        assert {"split", "merge"} <= actions
        for entry in self.split_entries(ledger):
            assert entry["rule"] == "skew"
            assert entry["inputs"]["chosen_parent"] >= 0
            assert len(entry["inputs"]["chosen_children"]) == 2

    def test_replay_reproduces_repartition_decisions(self, run):
        _, _, ledger = run
        assert verify_replay(ledger.entries) == []
        for entry in ledger.entries:
            if entry["kind"] != "repartition":
                continue
            replayed = replay_decision(entry)
            assert replayed["action"] == entry["action"]
            assert replayed["parent"] == entry["inputs"]["chosen_parent"]
            assert replayed["children"] == entry["inputs"]["chosen_children"]

    def test_repartition_spans_bijective_with_trace(self, run):
        _, tracer, ledger = run
        assert check_ledger_trace(tracer.events, ledger.entries) == []

    def test_forged_skew_inputs_fail_replay(self, run):
        """Zeroing the reported group skew makes the recorded split
        unjustifiable: replay decides 'none' and the verifier fires."""
        _, _, ledger = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries
                       if e["kind"] == "repartition"
                       and e["action"] == "split")
        for report in mutated["inputs"]["reports"]:
            report["max_group_bytes"] = 0
        violations = verify_replay(entries)
        assert any(v.seq == mutated["id"]
                   and "replay to 'none'" in v.message for v in violations)

    def test_forged_child_pids_fail_replay(self, run):
        """Shifting the child-pid allocator changes which pids the split
        produces; the recorded children no longer replay."""
        _, _, ledger = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries
                       if e["kind"] == "repartition"
                       and e["action"] == "split")
        mutated["inputs"]["next_child_pid"] += 2
        violations = verify_replay(entries)
        assert any(v.seq == mutated["id"] and "children" in v.message
                   for v in violations)

    def test_forged_spacing_fails_replay(self, run):
        """Backdating the tick inside the tau_p spacing window makes the
        recorded decision one the rule cascade would have rejected."""
        _, _, ledger = run
        entries = copy.deepcopy(ledger.entries)
        mutated = next(e for e in entries
                       if e["kind"] == "repartition"
                       and e["action"] in ("split", "merge"))
        mutated["inputs"]["last_repartition_time"] = mutated["inputs"]["now"]
        violations = verify_replay(entries)
        assert any(v.seq == mutated["id"] for v in violations)

    def test_dropped_repartition_entry_fires(self, run):
        _, tracer, ledger = run
        victim = self.split_entries(ledger)[0]
        entries = [e for e in ledger.entries if e is not victim]
        violations = check_ledger_trace(tracer.events, entries)
        assert any("no justifying ledger entry" in v.message
                   for v in violations)


class TestZeroOverhead:
    """Ledger/registry disabled => outputs and traces byte-identical."""

    def test_disabled_run_matches_enabled_run(self):
        plain_tracer = Tracer()
        dep_plain = run_deployment(StrategyName.LAZY_DISK,
                                   tracer=plain_tracer)
        ledger_tracer, ledger = Tracer(), DecisionLedger()
        dep_ledger = run_deployment(StrategyName.LAZY_DISK,
                                    tracer=ledger_tracer, ledger=ledger)
        assert dep_plain.total_outputs == dep_ledger.total_outputs
        assert dep_plain.spill_count == dep_ledger.spill_count
        assert dep_plain.relocation_count == dep_ledger.relocation_count
        # the ledger must not perturb the trace in any way
        assert plain_tracer.to_jsonl() == ledger_tracer.to_jsonl()
        assert len(ledger.entries) > 0

    def test_default_deployment_uses_null_ledger(self):
        dep = run_deployment(StrategyName.LAZY_DISK, duration=20.0)
        assert dep.metrics.ledger.enabled is False


class TestDeterminism:
    def test_ledger_jsonl_byte_identical_across_runs(self):
        blobs = []
        for _ in range(2):
            ledger = DecisionLedger()
            run_deployment(StrategyName.ACTIVE_DISK,
                           tracer=Tracer(), ledger=ledger)
            blobs.append(ledger.to_jsonl())
        assert blobs[0] == blobs[1]


class TestRunFile:
    def test_write_run_jsonl_structure(self, tmp_path):
        tracer, ledger = Tracer(), DecisionLedger()
        dep = run_deployment(StrategyName.LAZY_DISK, tracer=tracer,
                             ledger=ledger, duration=45.0)
        path = tmp_path / "run.jsonl"
        write_run_jsonl(path, ledger=ledger, registry=dep.metrics.registry,
                        meta={"strategy": "lazy_disk"})
        records = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("decision") == len(ledger.entries)
        series_names = {r["name"] for r in records if r["kind"] == "series"}
        assert "outputs" in series_names
        assert "memory:m1" in series_names


def test_two_query_serving_run_replays_rules(tmp_path):
    """``--queries 2``: one admission, one fold, two tenants' ticks."""
    from repro.bench.cli import main
    from repro.obs.report import load_run

    path = tmp_path / "serving.run.jsonl"
    assert main("--queries 2 --workers 2 --minutes 1 --threshold-kb 100 "
                "--partitions 12 --tuple-range 600 --interarrival-ms 10 "
                f"--ledger {path}".split()) == 0
    entries = load_run(path).decisions
    assert {"admit", "fold"} <= {e["action"] for e in entries}
    assert_rules_replay(entries)
