"""The wall-clock span wrappers: install, attribute, restore."""

import importlib
import time

from benchmarks.e2e.spans import (
    ROOT_LAYER, TARGETS, SpanTracer, Target, WrapperCost, calibrate,
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *parents, attr = target.path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_uninstall_restores_the_original_attributes_exactly():
    before = {}
    for target in TARGETS:
        owner, attr = _resolve(target)
        before[target] = vars(owner)[attr]
    tracer = SpanTracer()
    tracer.install()
    assert tracer.absent == []
    for target in TARGETS:
        owner, attr = _resolve(target)
        assert vars(owner)[attr] is not before[target]
    tracer.uninstall()
    for target in TARGETS:
        owner, attr = _resolve(target)
        assert vars(owner)[attr] is before[target]


def test_a_vanished_target_is_reported_absent_not_fatal():
    tracer = SpanTracer()
    tracer.install((
        Target("repro.engine.columns", "ColumnBatch.no_such_method", "x"),
        Target("repro.engine.no_such_module", "Thing.method", "x"),
        Target("repro.engine.partitions", "NoSuchClass.method", "x"),
    ))
    tracer.uninstall()
    assert tracer.absent == [
        "repro.engine.columns:ColumnBatch.no_such_method",
        "repro.engine.no_such_module:Thing.method",
        "repro.engine.partitions:NoSuchClass.method",
    ]


def test_self_time_is_span_minus_children_and_sums_to_the_window():
    tracer = SpanTracer()

    def leaf():
        time.sleep(0.02)

    inner = tracer.span(leaf, "inner")

    def parent():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer.span(parent, "outer")
    tracer.open()
    outer()
    time.sleep(0.005)
    wall = tracer.close()
    layers = tracer.layers(WrapperCost())
    assert layers["inner"]["calls"] == 2 and layers["outer"]["calls"] == 1
    assert 0.035 < layers["inner"]["self_s"] < 0.06
    assert 0.008 < layers["outer"]["self_s"] < 0.03
    assert layers["outer"]["total_s"] >= layers["inner"]["total_s"]
    assert 0.004 < layers[ROOT_LAYER]["self_s"] < 0.02
    assert abs(sum(e["self_s"] for e in layers.values()) - wall) < 1e-9


def test_wrapper_cost_moves_to_its_own_layer_and_keeps_the_sum():
    tracer = SpanTracer()
    wrapped = tracer.span(lambda: None, "tiny")
    tracer.open()
    for _ in range(1000):
        wrapped()
    wall = tracer.close()
    plain = tracer.layers(WrapperCost())
    costed = tracer.layers(WrapperCost(inside=1e-7, outside=1e-7))
    assert costed["bench.wrapper"]["calls"] == 1000
    assert costed["bench.wrapper"]["self_s"] > 0
    assert costed["tiny"]["self_s"] < plain["tiny"]["self_s"]
    assert abs(sum(e["self_s"] for e in costed.values()) - wall) < 1e-9


def test_callbacks_are_labelled_by_the_module_that_defines_them():
    from repro.cluster.simulation import Simulator, Timer

    tracer = SpanTracer()
    tracer.install(tuple(t for t in TARGETS if t.module == "repro.cluster.simulation"))
    try:
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "event")
        Timer(sim, 0.4, lambda: fired.append("tick"))
        tracer.open()
        sim.run(until=1.0)
        tracer.close()
    finally:
        tracer.uninstall()
    assert fired == ["tick", "tick", "event"]
    layers = tracer.layers()
    # Timer._fire is the simulator's own; the lambda belongs to this module
    assert layers[__name__]["calls"] == 2
    assert layers["builtins"]["calls"] == 1
    assert layers["cluster.simulation#run"]["calls"] == 1


def test_calibration_is_positive_and_small():
    cost = calibrate(calls=20_000)
    assert 0 < cost.inside < 1e-5
    assert 0 <= cost.outside < 1e-5
