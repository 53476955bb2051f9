"""m-way generality: the engine and cleanup work for any join arity.

The paper's representative operator is a 3-way join; the implementation is
arity-generic (partition groups, probes, and the 2^m−2 cleanup delta).
These tests run binary and 4-way joins through full deployments with
spills and relocations and compare against the reference oracle.
"""

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer
from repro.core.relocation import STEP_NAMES
from repro.engine.operators.mjoin import MJoin
from repro.engine.reference import reference_join, result_idents
from repro.engine.tuples import Schema
from repro.workloads import WorkloadSpec

from tests.helpers import assert_no_violations


def mway_join(arity: int) -> MJoin:
    names = [chr(ord("A") + i) for i in range(arity)]
    schemas = tuple(
        Schema(name=n, key_field="k", fields=("k",)) for n in names
    )
    return MJoin(f"join{arity}", schemas)


def run_adapted(arity: int, *, threshold=8_000, duration=40.0, tracer=None):
    join = mway_join(arity)
    dep = Deployment(
        join=join,
        workload=WorkloadSpec.uniform(n_partitions=8, join_rate=3.0,
                                      tuple_range=240, interarrival=0.05),
        workers=["m1", "m2"],
        config=AdaptationConfig(
            strategy=StrategyName.LAZY_DISK,
            memory_threshold=threshold,
            theta_r=0.9, tau_m=10.0,
            ss_interval=2.0, stats_interval=2.0, coordinator_interval=5.0,
            min_relocation_bytes=1024,
        ),
        assignment={"m1": 0.75, "m2": 0.25},
        collect_results=True,
        record_inputs=True,
        tracer=tracer,
    )
    dep.run(duration=duration, sample_interval=10)
    report = dep.cleanup(materialize=True)
    return dep, report


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_exactly_once_for_each_arity(arity):
    dep, report = run_adapted(arity)
    assert dep.spill_count > 0
    produced = (result_idents(dep.collector.results)
                | result_idents(report.results))
    reference = result_idents(
        reference_join(dep.source_host.inputs, dep.join.stream_names)
    )
    assert produced == reference


@pytest.mark.parametrize("arity", [2, 4])
def test_protocol_step_order_is_arity_independent(arity):
    """The 8-step relocation protocol runs identically for any join
    arity: every completed session's trace shows steps 1–8 in order with
    the canonical step names, and the whole run upholds every invariant."""
    tracer = Tracer()
    dep, __ = run_adapted(arity, tracer=tracer)
    events = assert_no_violations(tracer, f"mway-arity{arity}")
    done = [e.span for e in events
            if e.phase == "E" and e.name == "relocation"
            and e.get("status") == "done"]
    assert done, "run completed no relocation to check"
    for span in done:
        steps = [e for e in events
                 if e.name == "relocation.step" and e.span == span]
        assert [s.get("step") for s in steps] == list(range(1, 9))
        assert ([s.get("step_name") for s in steps]
                == [STEP_NAMES[i] for i in range(1, 9)])
    # spills happened and every spilled partition was reconciled
    assert any(e.name == "spill" for e in events)


def test_binary_join_result_shape():
    dep, report = run_adapted(2, threshold=10**9, duration=20.0)
    assert report.missing_results == 0
    result = dep.collector.results[0]
    assert [p.stream for p in result.parts] == ["A", "B"]


def test_four_way_cleanup_merges_fourteen_combinations():
    """For m=4 the mixed delta enumerates 2^4−2 = 14 source combinations;
    a two-part split with one tuple per stream per part must recover
    2^4 − 2 within-part results."""
    from repro.core.cleanup import merge_missing
    from repro.engine.columns import ColumnarPartitionGroup
    from repro.engine.tuples import StreamTuple

    streams = ("A", "B", "C", "D")
    parts = []
    seq = 0
    for generation in range(2):
        group = ColumnarPartitionGroup(0, streams, generation=generation)
        for stream in streams:
            tup = StreamTuple(stream=stream, seq=seq, key=1, ts=float(seq))
            seq += 1
            __, results = group.probe(tup, materialize=True)
            group.insert(tup)
        parts.append(group.freeze())
    __, missing = merge_missing(parts, streams, materialize=True)
    # reference: 2 tuples/stream -> 2^4 = 16 results; 1 produced at run
    # time within each part -> 14 missing
    assert len(missing) == 14
    assert len(result_idents(missing)) == 14
