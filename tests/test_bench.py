"""Tests for the benchmark harness, scaling and CLI."""

import pytest

from repro.bench.harness import RunResult, run_experiment, sample_times
from repro.bench.scale import SCALES, current_scale
from repro.core.config import StrategyName
from repro.workloads import WorkloadSpec


class TestScale:
    def test_presets_exist(self):
        assert set(SCALES) == {"quick", "default", "full"}

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        assert current_scale().name == "quick"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale().name == "default"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "warp")
        with pytest.raises(ValueError):
            current_scale()

    def test_threshold_fraction(self):
        scale = SCALES["default"]
        assert scale.threshold_fraction(0.5) == scale.memory_threshold // 2

    def test_describe_mentions_scale_name(self):
        for scale in SCALES.values():
            assert scale.name in scale.describe()

    def test_scales_are_ordered(self):
        assert (SCALES["quick"].duration < SCALES["default"].duration
                < SCALES["full"].duration)


class TestSampleTimes:
    def test_covers_duration(self):
        times = sample_times(100.0, 30.0)
        assert times == [30.0, 60.0, 90.0, 100.0]

    def test_exact_multiple(self):
        assert sample_times(60.0, 30.0) == [30.0, 60.0]


class TestRunExperiment:
    def small_workload(self):
        return WorkloadSpec.uniform(n_partitions=8, join_rate=3,
                                    tuple_range=240, interarrival=0.05)

    def test_returns_run_result(self):
        result = run_experiment(
            "t", self.small_workload(), strategy=StrategyName.ALL_MEMORY,
            workers=1, duration=20.0, sample_interval=10.0,
        )
        assert isinstance(result, RunResult)
        assert result.label == "t"
        assert result.total_outputs > 0
        assert result.cleanup is None

    def test_with_cleanup(self):
        result = run_experiment(
            "t", self.small_workload(), strategy=StrategyName.NO_RELOCATION,
            workers=1, duration=30.0, sample_interval=10.0,
            memory_threshold=5_000,
            config_overrides=dict(ss_interval=2.0),
            with_cleanup=True,
        )
        assert result.spills > 0
        assert result.cleanup is not None
        assert result.cleanup.missing_results > 0

    def test_accepts_strategy_string(self):
        result = run_experiment(
            "t", self.small_workload(), strategy="all_memory",
            workers=1, duration=10.0, sample_interval=5.0,
        )
        assert result.relocations == 0

    def test_output_at_and_memory_at(self):
        result = run_experiment(
            "t", self.small_workload(), strategy=StrategyName.ALL_MEMORY,
            workers=1, duration=20.0, sample_interval=10.0,
        )
        assert result.output_at(20.0) >= result.output_at(10.0)
        assert result.memory_at("m1", 20.0) > 0

    def test_deterministic_across_runs(self):
        kwargs = dict(strategy=StrategyName.LAZY_DISK, workers=2,
                      duration=30.0, sample_interval=10.0,
                      memory_threshold=10_000,
                      config_overrides=dict(ss_interval=2.0,
                                            coordinator_interval=5.0,
                                            stats_interval=2.0))
        a = run_experiment("a", self.small_workload(), **kwargs)
        b = run_experiment("b", self.small_workload(), **kwargs)
        assert a.total_outputs == b.total_outputs
        assert a.spills == b.spills
        assert a.relocations == b.relocations


class TestCli:
    def test_list_flag(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "lazy_disk" in out
        assert "less_productive" in out

    def test_basic_run(self, capsys):
        from repro.bench.cli import main

        code = main([
            "--strategy", "no_relocation", "--workers", "1",
            "--minutes", "0.5", "--threshold-kb", "50",
            "--partitions", "8", "--tuple-range", "240",
            "--interarrival-ms", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run-time outputs" in out
        assert "cleanup results" in out

    def test_no_cleanup_flag(self, capsys):
        from repro.bench.cli import main

        main([
            "--strategy", "all_memory", "--workers", "1",
            "--minutes", "0.2", "--partitions", "8",
            "--tuple-range", "240", "--interarrival-ms", "50",
            "--no-cleanup",
        ])
        out = capsys.readouterr().out
        assert "cleanup results" not in out

    def test_assignment_mismatch_exits(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["--workers", "2", "--assignment", "1.0",
                  "--minutes", "0.1"])

    def test_csv_export(self, tmp_path, capsys):
        from repro.bench.cli import main

        path = tmp_path / "series.csv"
        main([
            "--strategy", "all_memory", "--workers", "1",
            "--minutes", "0.2", "--partitions", "8",
            "--tuple-range", "240", "--interarrival-ms", "50",
            "--no-cleanup", "--csv", str(path),
        ])
        content = path.read_text().splitlines()
        assert content[0].startswith("time_s,outputs,memory_m1")
        assert len(content) > 2

    def test_json_export(self, tmp_path, capsys, monkeypatch):
        import json

        from repro.bench.cli import main

        monkeypatch.chdir(tmp_path)
        main([
            "--strategy", "all_memory", "--workers", "1",
            "--minutes", "0.2", "--partitions", "8",
            "--tuple-range", "240", "--interarrival-ms", "50",
            "--no-cleanup", "--json",
        ])
        path = tmp_path / "benchmarks" / "results" / "BENCH_all_memory.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["strategy"] == "all_memory"
        assert data["runtime_outputs"] > 0
        assert len(data["series"]["times"]) == len(data["series"]["outputs"])
        assert "written to" in capsys.readouterr().out

    def test_json_export_custom_name(self, tmp_path, monkeypatch):
        from repro.bench.cli import main

        monkeypatch.chdir(tmp_path)
        main([
            "--strategy", "all_memory", "--workers", "1",
            "--minutes", "0.2", "--partitions", "8",
            "--tuple-range", "240", "--interarrival-ms", "50",
            "--no-cleanup", "--json", "--name", "myrun",
        ])
        assert (tmp_path / "benchmarks" / "results"
                / "BENCH_myrun.json").exists()

    def test_ledger_and_metrics_export(self, tmp_path, capsys):
        import json

        from repro.bench.cli import main

        run_path = tmp_path / "run.jsonl"
        prom_path = tmp_path / "run.prom"
        code = main([
            "--strategy", "lazy_disk", "--workers", "2",
            "--minutes", "0.5", "--threshold-kb", "10",
            "--partitions", "8", "--tuple-range", "240",
            "--interarrival-ms", "20", "--no-cleanup",
            "--ledger", str(run_path), "--metrics", str(prom_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "run file written" in out
        assert "metrics written" in out
        records = [json.loads(line)
                   for line in run_path.read_text().splitlines()]
        assert records[0]["kind"] == "meta"
        assert records[0]["strategy"] == "lazy_disk"
        assert any(r["kind"] == "decision" for r in records)
        assert any(r["kind"] == "series" and r["name"] == "outputs"
                   for r in records)
        prom = prom_path.read_text()
        assert "# TYPE repro_outputs_total counter" in prom
        assert 'repro_state_bytes{machine="m1"}' in prom

    def test_ledger_report_round_trip(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main
        from repro.obs.__main__ import main as obs_main

        run_path = tmp_path / "run.jsonl"
        bench_main([
            "--strategy", "lazy_disk", "--workers", "2",
            "--minutes", "0.5", "--threshold-kb", "10",
            "--partitions", "8", "--tuple-range", "240",
            "--interarrival-ms", "20", "--no-cleanup",
            "--ledger", str(run_path),
        ])
        capsys.readouterr()
        assert obs_main(["report", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "# Run report" in out
        assert "## Decision log" in out

    @pytest.mark.parametrize("extra", [
        ["--assignment", "0.9,0.1"],
        ["--assignment", "1.0"],
        ["--csv", "series.csv"],
        ["--json"],
        ["--name", "myrun"],
    ], ids=["assignment", "assignment-short", "csv", "json", "name"])
    def test_standalone_flags_rejected_with_queries(
        self, extra, tmp_path, monkeypatch, capsys
    ):
        # the server mode reads none of these: it must say so, not drop them
        from repro.bench.cli import main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=f"{extra[0]} .*--queries 2"):
            main(["--queries", "2", "--workers", "2", "--minutes", "0.2",
                  "--partitions", "8", "--tuple-range", "240",
                  "--interarrival-ms", "50"] + extra)
        assert list(tmp_path.iterdir()) == []
        assert "outputs" not in capsys.readouterr().out


class TestTraceCheckMode:
    def small_workload(self):
        return WorkloadSpec.uniform(n_partitions=8, join_rate=3,
                                    tuple_range=240, interarrival=0.05)

    def test_repro_trace_check_includes_ledger(self, monkeypatch):
        """REPRO_TRACE=check records a ledger and runs the bijection +
        replay checks alongside the trace invariants."""
        monkeypatch.setenv("REPRO_TRACE", "check")
        result = run_experiment(
            "t", self.small_workload(), strategy=StrategyName.LAZY_DISK,
            workers=2, duration=30.0, sample_interval=10.0,
            memory_threshold=10_000,
            config_overrides=dict(ss_interval=2.0, coordinator_interval=5.0,
                                  stats_interval=2.0),
        )
        assert result.spills > 0  # the checks had real spans to verify

    def test_explicit_ledger_is_used(self):
        from repro.obs.ledger import DecisionLedger

        ledger = DecisionLedger()
        run_experiment(
            "t", self.small_workload(), strategy=StrategyName.LAZY_DISK,
            workers=1, duration=20.0, sample_interval=10.0,
            memory_threshold=10_000,
            config_overrides=dict(ss_interval=2.0),
            ledger=ledger,
        )
        assert len(ledger.entries) > 0
