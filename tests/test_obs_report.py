"""Tests for the per-run report generator (repro.obs.report) and the
``python -m repro.obs`` command line."""

import json

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer
from repro.obs.ledger import DecisionLedger, write_run_jsonl
from repro.obs.report import (
    load_run,
    render_diff,
    render_html,
    render_markdown,
    why,
)
from repro.workloads import WorkloadSpec, three_way_join


def make_run_file(path, strategy=StrategyName.LAZY_DISK, seed=11):
    tracer, ledger = Tracer(), DecisionLedger()
    dep = Deployment(
        join=three_way_join(),
        workload=WorkloadSpec.uniform(n_partitions=12, join_rate=3,
                                      tuple_range=600, interarrival=0.01,
                                      seed=seed),
        workers=2,
        config=AdaptationConfig(strategy=strategy, memory_threshold=40_000,
                                ss_interval=5.0, stats_interval=5.0,
                                coordinator_interval=10.0),
        assignment={"m1": 3.0, "m2": 1.0},
        seed=seed,
        tracer=tracer,
        ledger=ledger,
    )
    dep.run(duration=90.0, sample_interval=15.0)
    write_run_jsonl(path, ledger=ledger, registry=dep.metrics.registry,
                    meta={"strategy": strategy.value, "seed": seed})
    return dep, tracer, ledger


@pytest.fixture(scope="module")
def run_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "run.jsonl"
    dep, tracer, ledger = make_run_file(path)
    return path, dep, tracer, ledger


class TestLoadRun:
    def test_round_trip(self, run_file):
        path, dep, _, ledger = run_file
        run = load_run(path)
        assert run.meta["strategy"] == "lazy_disk"
        assert len(run.decisions) == len(ledger.entries)
        assert "outputs" in run.series
        assert "memory:m1" in run.series
        assert run.machines() == ["m1", "m2"]
        assert run.duration >= 90.0


class TestWhyLines:
    def test_spill_why(self):
        entry = {
            "kind": "overflow_check", "action": "spill",
            "rule": "memory_threshold",
            "inputs": {"state_bytes": 50_000, "memory_threshold": 40_000,
                       "mode": "normal", "forced": False},
            "realized": {"bytes_spilled": 10_000, "duration": 0.5},
        }
        line = why(entry)
        assert "50.0 KB" in line
        assert "threshold = 40.0 KB" in line
        assert "10.0 KB" in line

    def test_relocate_why(self):
        entry = {
            "kind": "gc_tick", "action": "relocate", "rule": "theta_r",
            "inputs": {
                "chosen_sender": "m1", "chosen_receiver": "m2",
                "chosen_amount": 30_000, "theta_r": 0.8, "tau_m": 45.0,
                "now": 100.0, "last_relocation_time": 40.0,
                "reports": [
                    {"machine": "m1", "state_bytes": 90_000},
                    {"machine": "m2", "state_bytes": 30_000},
                ],
            },
            "realized": {"status": "done"},
        }
        line = why(entry)
        assert "from m1 to m2" in line
        assert "theta_r = 0.80" in line
        assert "60s since the last relocation" in line

    def test_relocate_first_time_spacing(self):
        entry = {
            "kind": "gc_tick", "action": "relocate", "rule": "theta_r",
            "inputs": {
                "chosen_sender": "m1", "chosen_receiver": "m2",
                "chosen_amount": 1, "theta_r": 0.8, "tau_m": 45.0,
                "now": 10.0, "last_relocation_time": float("-inf"),
                "reports": [],
            },
            "realized": {},
        }
        assert "no relocation had run yet" in why(entry)

    def test_forced_spill_why(self):
        entry = {
            "kind": "gc_tick", "action": "forced_spill", "rule": "lambda",
            "inputs": {"chosen_machine": "m2", "chosen_amount": 5_000,
                       "chosen_ratio": 4.2, "lambda_productivity": 3.0,
                       "forced_spill_bytes_used": 0,
                       "forced_spill_cap": 100_000},
            "realized": {},
        }
        line = why(entry)
        assert "R_max/R_min = 4.20" in line
        assert "lambda = 3" in line

    def test_none_reasons(self):
        assert "deferred" in why({"action": "none", "rule": "deferred",
                                  "inputs": {"reason": "recovery_active"},
                                  "realized": {}})
        assert "mid-adaptation" in why({"action": "none", "rule": "busy",
                                        "inputs": {"mode": "spilling"},
                                        "realized": {}})
        assert "<= threshold" in why(
            {"action": "none", "rule": "under_threshold",
             "inputs": {"state_bytes": 10, "memory_threshold": 20},
             "realized": {}})


class TestRenderMarkdown:
    def test_sections_present(self, run_file):
        path, *_ = run_file
        text = render_markdown(load_run(path))
        assert "# Run report" in text
        assert "## Summary" in text
        assert "## Throughput (cumulative outputs)" in text
        assert "### m1" in text
        assert "## Decision log" in text

    def test_every_decision_explained(self, run_file):
        path, _, _, ledger = run_file
        text = render_markdown(load_run(path))
        # one log line per ledger entry, each with a why clause
        assert text.count("t=") >= len(ledger.entries)

    def test_deterministic_across_same_seed_runs(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            make_run_file(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert (render_markdown(load_run(paths[0]))
                == render_markdown(load_run(paths[1])))

    def test_max_log_truncates(self, run_file):
        path, *_ = run_file
        text = render_markdown(load_run(path), max_log=2)
        assert "more entries" in text


class TestRenderHtml:
    def test_valid_standalone_page(self, run_file):
        path, *_ = run_file
        html = render_html(load_run(path))
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "Decision log" in html

    def test_escapes_content(self):
        from repro.obs.report import _esc

        assert _esc('<a b="c">') == "&lt;a b=&quot;c&quot;&gt;"


class TestRenderDiff:
    def test_diff_two_strategies(self, run_file, tmp_path):
        path_a, *_ = run_file
        path_b = tmp_path / "active.jsonl"
        make_run_file(path_b, strategy=StrategyName.ACTIVE_DISK)
        text = render_diff(load_run(path_a), load_run(path_b),
                           label_a="lazy", label_b="active")
        assert "# Run diff: lazy vs active" in text
        assert "| outputs |" in text
        assert "**≠**" in text  # strategies differ
        assert "## Throughput — lazy" in text
        assert "## Throughput — active" in text


class TestCli:
    def test_report_stdout(self, run_file, capsys):
        from repro.obs.__main__ import main

        path, *_ = run_file
        assert main(["report", str(path)]) == 0
        assert "# Run report" in capsys.readouterr().out

    def test_report_out_file(self, run_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        path, *_ = run_file
        out = tmp_path / "report.md"
        assert main(["report", str(path), "--out", str(out)]) == 0
        assert out.read_text().startswith("# Run report")

    def test_report_html(self, run_file, tmp_path):
        from repro.obs.__main__ import main

        path, *_ = run_file
        out = tmp_path / "report.html"
        assert main(["report", str(path), "--html", "--out", str(out)]) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_report_diff(self, run_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        path, *_ = run_file
        other = tmp_path / "other.jsonl"
        make_run_file(other, strategy=StrategyName.ACTIVE_DISK)
        assert main(["report", str(path), "--diff", str(other)]) == 0
        assert "# Run diff" in capsys.readouterr().out

    def test_check_clean_run(self, run_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        path, _, tracer, _ = run_file
        trace_path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(trace_path)
        code = main(["check", "--trace", str(trace_path),
                     "--ledger", str(path)])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_check_detects_mutation(self, run_file, tmp_path, capsys):
        from repro.obs.__main__ import main

        path, _, tracer, ledger = run_file
        trace_path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(trace_path)
        # drop every executed decision from a copy of the run file
        mutated = tmp_path / "mutated.jsonl"
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if (record["kind"] == "decision"
                    and record["decision"]["action"] != "none"):
                continue
            lines.append(line)
        mutated.write_text("\n".join(lines) + "\n")
        code = main(["check", "--trace", str(trace_path),
                     "--ledger", str(mutated)])
        assert code == 1
        assert "violation" in capsys.readouterr().out


@pytest.mark.parametrize("argv, content", [
    (["report"], None),
    (["report"], '{"kind": "meta"}\nnot json\n'),
    (["report"], '{"kind": "meta"}\n[1, 2, 3]\n'),
    (["check", "--trace"], None),
    (["check", "--trace"], "not json\n"),
    (["check", "--trace"], '{"kind": "meta"}\n'),
], ids=["report-missing-file", "report-not-json", "report-not-a-record",
        "check-missing-file", "check-not-json", "check-not-an-event"])
def test_cli_bad_input_is_one_error_line_and_exit_2(argv, content, tmp_path,
                                                    capsys):
    """A missing file, a line that is not JSON and a JSON line that is not
    a record of the file's kind end the command with one ``error:`` line
    on stderr and exit code 2 — not a traceback, and not the exit code 1
    that ``check`` reserves for violations found."""
    from repro.obs.__main__ import main

    path = tmp_path / "input.jsonl"
    if content is not None:
        path.write_text(content)
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
