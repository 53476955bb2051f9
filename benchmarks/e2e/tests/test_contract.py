"""``BENCHMARK.json`` meets the driver's contract and covers the package."""

from benchmarks.e2e import spec
from benchmarks.e2e.cli import ROOT
from benchmarks.e2e.spans import TARGETS
from benchmarks.e2e.workloads import WORKLOADS


def test_keys_and_command():
    assert set(spec.CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                                  "end_to_end", "per_layer"}
    assert spec.CONTRACT["paths"] == ["benchmarks/e2e"]
    assert spec.CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert (ROOT / spec.CONTRACT["command"][1]).is_file()


def test_every_listed_workload_has_a_builder():
    assert list(WORKLOADS) == list(spec.WORKLOADS)
    assert all(len(why) <= 200 and "\n" not in why
               for why in spec.WORKLOADS.values())


def test_metrics_are_well_formed():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in spec.END_TO_END)
    assert all(m.bound is None for m in spec.PER_LAYER)
    assert {m.clock for m in spec.END_TO_END if m.name.startswith("sim_")} == {"sim"}


def test_every_traced_layer_has_a_metric():
    per_layer = {m.name for m in spec.PER_LAYER}
    assert set(spec.SELF_METRIC_OF_LAYER.values()) <= per_layer
    for target in TARGETS:
        assert target.layer in spec.SELF_METRIC_OF_LAYER, target
