"""Every workload at smoke size through all three stages, as the command
line runs them: child interpreters, one after another."""

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import cli, spec
from benchmarks.e2e.workloads import WORKLOADS, WorkloadNotExercised

SEED = 5


@pytest.fixture(scope="module")
def smoke():
    """One full measurement (2 timed runs, verify, traced) per workload."""
    return {name: cli.measure(name, SEED, "smoke", repeats=2)
            for name in spec.WORKLOADS}


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_all_stages_run_and_the_answer_is_right(smoke, name):
    result = smoke[name]
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["ops_attempted"] > 0 and result["ops_failed"] == 0
    assert result["results_wrong_frac"] == 0
    expected_check = "check_trace" if WORKLOADS[name].check_trace else "verify_replay"
    assert result["verify"]["check"] == expected_check
    assert set(result["end_to_end"]) == {m.name for m in spec.END_TO_END}
    assert all(e["value"] > 0 for e in result["end_to_end"].values())
    assert set(result["traced"]["per_layer"]) == {m.name for m in spec.PER_LAYER}
    assert all(r["complete_result_s"] < 2.0 for r in result["timed_runs"])
    assert result["traced"]["absent"] == []
    assert (cli.RESULTS / f"trace-{name}.json").is_file()


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_layers_and_unattributed_sum_to_the_traced_wall(smoke, name):
    layer = smoke[name]["traced"]["per_layer"]
    wall = layer["bench.traced_wall_s"]
    attributed = sum(v for n, v in layer.items()
                     if n.endswith("self_s") and n != "bench.traced_wall_s")
    assert attributed + layer["bench.unattributed_frac"] * wall == pytest.approx(
        wall, rel=0.02)
    assert layer["bench.unattributed_frac"] <= 0.05


def test_each_workload_loads_the_layers_it_is_here_for(smoke):
    layer = {name: smoke[name]["traced"]["per_layer"] for name in smoke}
    assert layer["steady_join"]["core.spill.spills"] == 0
    assert layer["steady_join"]["engine.state_store.motion_calls"] == 0
    assert layer["spill_relocate"]["core.spill.spills"] >= 1
    assert layer["spill_relocate"]["core.relocation.relocations"] >= 1
    assert layer["spill_relocate"]["cluster.disk.bytes_written"] > 0
    assert layer["spill_relocate"]["core.cleanup.missing_results"] > 0
    assert layer["windowed_recovery"]["recovery.manager.recoveries"] == 2
    assert layer["windowed_recovery"]["recovery.checkpoint.commits"] >= 1
    assert layer["windowed_recovery"]["recovery.manager.tuples_replayed"] > 0
    assert layer["serving_mixed"]["serving.gc.orders"] >= 1
    assert layer["serving_mixed"]["serving.server.fold_state_bytes_saved"] > 0
    assert layer["serving_mixed"]["obs.slo.sim_latency_p99_s"] > 0
    assert layer["scale64_elastic"]["engine.columns.rows_per_batch"] < 3
    for name in spec.WORKLOADS:
        slo_calls = layer[name]["obs.slo.observations"]
        assert (slo_calls > 0) == (name == "serving_mixed"), name


def test_same_seed_repeats_exactly_and_another_seed_differs(smoke):
    again = cli.child("timed", "spill_relocate", SEED, "smoke")
    other = cli.child("timed", "spill_relocate", SEED + 1, "smoke")
    assert again["sim"] == smoke["spill_relocate"]["sim"]
    assert other["sim"] != again["sim"]


def test_a_dropped_result_is_caught():
    result = cli.measure("steady_join", SEED, "smoke", repeats=1,
                         with_trace=False, drop_one_result=True)
    assert result["ops_failed"] >= 1
    assert result["results_wrong_frac"] > 0
    assert result["correct"] is False


def test_a_dropped_result_makes_the_command_fail():
    command = [sys.executable, str(cli.HERE / "run.py"), "--workload",
               "serving_mixed", "--seed", str(SEED), "--seconds", "1",
               "--scale", "smoke"]
    good = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert good.returncode == 0, good.stderr
    last = json.loads(good.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m.name for m in spec.END_TO_END}
    bad = subprocess.run(command + ["--drop-one-result"], capture_output=True,
                         text=True, timeout=120)
    assert bad.returncode != 0
    last = json.loads(bad.stdout.splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_trace_mode_prints_every_per_layer_metric():
    done = subprocess.run(
        [sys.executable, str(cli.HERE / "run.py"), "--workload", "steady_join",
         "--seed", str(SEED), "--seconds", "1", "--scale", "smoke",
         "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert {e["unit"] for e in last["metrics"].values()} <= {
        m.unit for m in spec.PER_LAYER}


# ----------------------------------------------------------------------
# A workload that stops loading its layer must say so
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["spill_relocate", "windowed_recovery", "serving_mixed",
             "scale64_elastic"])
def test_a_workload_that_skipped_its_layer_fails_loudly(name):
    job = WORKLOADS[name].build(SEED, "smoke")  # built, never run
    with pytest.raises(WorkloadNotExercised):
        job.check()


def test_steady_join_must_not_spill():
    job = WORKLOADS["steady_join"].build(SEED, "smoke")
    job.run()
    job.check()
    dep = job.deployments[0]
    dep.metrics.events.record(dep.sim.now, "spill", "m1", bytes=1)
    with pytest.raises(WorkloadNotExercised):
        job.check()


def test_compare_marks_noisy_base_unresolved_and_flags_regressions():
    def record(value, q1, q3, outputs=10):
        host = {"value": value, "q1": q1, "q3": q3, "n": 5}
        sim = {"value": outputs, "q1": outputs, "q3": outputs, "n": 5}
        return {"seed": 1, "workloads": {"w": {
            "scale": "full", "sim": {"runtime_outputs": [outputs]},
            "end_to_end": {m.name: dict(host if m.clock == "host" else sim)
                           for m in spec.END_TO_END}}}}

    rows, regressed = cli.compare(record(1.0, 0.99, 1.01), record(1.0, 0.99, 1.01))
    assert not regressed
    assert all("within bound" in r or "identical" in r for r in rows)
    rows, regressed = cli.compare(record(1.0, 0.99, 1.01), record(2.0, 1.9, 2.1))
    assert regressed
    assert any("REGRESSED" in r and "complete_result_s" in r for r in rows)
    assert any("improved" in r and "input_tuples_per_s" in r for r in rows)
    rows, regressed = cli.compare(record(1.0, 0.5, 1.5), record(2.0, 1.9, 2.1))
    assert not regressed
    assert sum("unresolved" in r for r in rows) == len(rows) - 1  # all host
    rows, regressed = cli.compare(record(1.0, 0.99, 1.01),
                                  record(1.0, 0.99, 1.01, outputs=11))
    assert regressed and "counts differ" in rows[-1]
    assert any("DIFFERS" in r and "sim_runtime_outputs" in r for r in rows)


def test_setup_may_worsen_by_its_slack_whatever_its_bound():
    def record(setup):
        entry = {"value": 1.0, "q1": 1.0, "q3": 1.0, "n": 5}
        end_to_end = {m.name: dict(entry) for m in spec.END_TO_END}
        end_to_end["setup_s"]["value"] = setup
        return {"seed": 1, "workloads": {"w": {
            "scale": "full", "sim": {}, "end_to_end": end_to_end}}}

    bound = next(m.bound for m in spec.END_TO_END if m.name == "setup_s")
    small = 0.5 * spec.SETUP_SLACK_S / bound  # a quarter of it < the slack
    assert not cli.compare(record(small), record(small + 0.9 * spec.SETUP_SLACK_S))[1]
    assert cli.compare(record(small), record(small + 1.1 * spec.SETUP_SLACK_S))[1]


def test_seed_given_before_the_command_is_used(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_set", lambda seed, repeats, scale: (
        seen.append((seed, scale)) or {"correct": True, "workloads": {}}))
    monkeypatch.setattr(cli, "save", lambda record, out: None)
    assert cli.main(["--seed", "5", "run"]) == 0
    assert cli.main(["run", "--seed", "6", "--scale", "smoke"]) == 0
    assert cli.main(["run"]) == 0
    assert seen == [(5, "full"), (6, "smoke"), (11, "full")]
