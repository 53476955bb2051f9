"""Tests for the wall-clock regression benchmark suite (repro.bench.regress).

Timing numbers themselves are machine-dependent, so these tests check the
machinery: the suite runs at tiny scale and produces the full schema, the
comparison gate flags regressions and honours the tolerance, the CLI
subcommand writes the result file, and the committed baseline clears the
gate's own absolute speedup floors.
"""

import json
import pathlib

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.regress import (
    HIGHER_IS_BETTER,
    SCHEMA,
    build_parser,
    compare,
    run_benchmarks,
    synth_batches,
)

BASELINE = pathlib.Path(__file__).resolve().parent.parent / (
    "benchmarks/results/BENCH_perf.json"
)


def make_doc(**metrics):
    base = {name: 1000.0 for name in HIGHER_IS_BETTER}
    base["join_batch_speedup"] = 1.8
    base["join_columnar_speedup"] = 1.8
    base.update(metrics)
    return {"schema": SCHEMA, "metrics": base}


class TestSuite:
    def test_tiny_run_produces_full_schema(self):
        doc = run_benchmarks(tuples=1500, batch_size=25, repeats=1)
        assert doc["schema"] == SCHEMA
        metrics = doc["metrics"]
        for name in HIGHER_IS_BETTER:
            assert metrics[name] > 0, name
        assert metrics["join_batch_speedup"] > 0
        assert metrics["join_results"] > 0
        assert doc["params"]["tuples"] == 1500

    def test_synth_batches_are_deterministic(self):
        a = synth_batches(500, batch_size=25)
        b = synth_batches(500, batch_size=25)
        assert a == b
        assert sum(len(batch) for batch in a) == 500


class TestGate:
    def test_identical_runs_pass(self):
        doc = make_doc()
        assert compare(doc, doc, tolerance=0.25, min_speedup=1.2) == []

    def test_improvement_passes(self):
        fresh = make_doc(spill_bytes_per_s=5000.0)
        assert compare(fresh, make_doc(), tolerance=0.25, min_speedup=1.2) == []

    def test_regression_beyond_tolerance_fails(self):
        fresh = make_doc(join_batched_tuples_per_s=700.0)  # -30%
        problems = compare(fresh, make_doc(), tolerance=0.25, min_speedup=1.2)
        assert len(problems) == 1
        assert "join_batched_tuples_per_s" in problems[0]

    def test_regression_within_tolerance_passes(self):
        fresh = make_doc(join_batched_tuples_per_s=800.0)  # -20%
        assert compare(fresh, make_doc(), tolerance=0.25, min_speedup=1.2) == []

    def test_speedup_floor_is_absolute(self):
        # even if the baseline's speedup also decayed, the floor holds
        fresh = make_doc(join_batch_speedup=1.05)
        baseline = make_doc(join_batch_speedup=1.06)
        problems = compare(fresh, baseline, tolerance=0.25, min_speedup=1.2)
        assert any("join_batch_speedup" in p for p in problems)

    def test_columnar_speedup_floor_is_absolute(self):
        fresh = make_doc(join_columnar_speedup=1.3)
        problems = compare(fresh, make_doc(), tolerance=0.25, min_speedup=1.2,
                           min_columnar_speedup=1.5)
        assert any("join_columnar_speedup" in p for p in problems)

    def test_missing_metric_is_not_a_failure(self):
        fresh = make_doc()
        del fresh["metrics"]["cleanup_tuples_per_s"]
        assert compare(fresh, make_doc(), tolerance=0.25, min_speedup=1.2) == []


class TestCli:
    def test_regress_subcommand_writes_results(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        rc = bench_main(["regress", "--tuples", "1500", "--repeats", "1",
                         "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SCHEMA
        assert set(HIGHER_IS_BETTER) <= set(doc["metrics"])
        assert "join_batch_speedup" in capsys.readouterr().out

    def test_check_without_baseline_passes(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        rc = bench_main(["regress", "--check", "--tuples", "1500",
                         "--repeats", "1", "--out", str(out)])
        assert rc == 0

    def test_check_fails_on_fabricated_regression(self, tmp_path):
        out = tmp_path / "BENCH_perf.json"
        baseline = tmp_path / "baseline.json"
        impossible = {name: 1e15 for name in HIGHER_IS_BETTER}
        baseline.write_text(json.dumps({"schema": SCHEMA,
                                        "metrics": impossible}))
        rc = bench_main(["regress", "--check", "--tuples", "1500",
                         "--repeats", "1", "--out", str(out),
                         "--baseline", str(baseline)])
        assert rc == 1


class TestCommittedBaseline:
    """The committed BENCH_perf.json is the PR's acceptance artifact."""

    def test_baseline_exists_with_schema(self):
        doc = json.loads(BASELINE.read_text())
        assert doc["schema"] == SCHEMA
        for name in HIGHER_IS_BETTER:
            assert doc["metrics"][name] > 0

    def test_baseline_meets_speedup_bar(self):
        """Both ratios compare store entry points over one (columnar)
        state; the bar is the gate's own default floors."""
        doc = json.loads(BASELINE.read_text())
        floors = build_parser().parse_args([])
        assert doc["metrics"]["join_batch_speedup"] >= floors.min_speedup
        assert (doc["metrics"]["join_columnar_speedup"]
                >= floors.min_columnar_speedup)
