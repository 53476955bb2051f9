"""Tests for the XJoin-style per-input spilling baseline (§2, Fig 3(a)).

The decisive property: for any interleaving of arrivals and per-input
spills, run-time results ∪ cleanup results equals the reference join,
exactly once — and the cleanup must examine the *full* result space
(the §2 complexity cost), unlike the partition-group delta merge.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.per_input import PerInputJoinState
from repro.engine.reference import reference_join, result_idents
from repro.engine.tuples import StreamTuple

STREAMS = ("A", "B", "C")


def tup(stream, seq, key):
    # unique, strictly increasing timestamps (seq-based)
    return StreamTuple(stream=stream, seq=seq, key=key, ts=float(seq))


def drive(events, *, materialize=True):
    """Run a schedule of ('tuple', stream, key) / ('spill', stream) events.

    Spills are stamped strictly between the surrounding tuple timestamps.
    Returns (state, runtime results, all input tuples).
    """
    state = PerInputJoinState(STREAMS)
    runtime = []
    inputs = []
    seq = 0
    for event in events:
        if event[0] == "tuple":
            __, stream, key = event
            t = tup(stream, seq, key)
            seq += 1
            inputs.append(t)
            __, results = state.process(t, materialize=materialize)
            runtime.extend(results)
        else:
            __, stream = event
            state.spill_input(stream, now=seq - 0.5)
    return state, runtime, inputs


class TestRuntime:
    def test_probe_sees_only_memory_resident_state(self):
        state, runtime, __ = drive([
            ("tuple", "B", 1),
            ("tuple", "C", 1),
            ("spill", "B"),
            ("tuple", "A", 1),  # B side is on disk: no result
        ])
        assert runtime == []

    def test_results_with_all_resident(self):
        state, runtime, __ = drive([
            ("tuple", "B", 1),
            ("tuple", "C", 1),
            ("tuple", "A", 1),
        ])
        assert len(runtime) == 1

    def test_spill_moves_bytes_to_disk(self):
        state, __, __ = drive([("tuple", "A", 1), ("tuple", "A", 2)])
        before = state.memory_bytes
        segment = state.spill_input("A", now=10.0)
        assert segment.size_bytes == before
        assert state.memory_bytes == 0
        assert state.spilled_bytes() == before

    def test_unknown_stream_spill_rejected(self):
        state = PerInputJoinState(STREAMS)
        with pytest.raises(KeyError):
            state.spill_input("Z", now=1.0)


class TestCleanup:
    def test_recovers_exactly_the_missing_result(self):
        state, runtime, inputs = drive([
            ("tuple", "B", 1),
            ("spill", "B"),
            ("tuple", "C", 1),
            ("tuple", "A", 1),
        ])
        assert runtime == []
        stats, results = state.cleanup(materialize=True)
        assert stats.missing_results == 1
        assert len(results) == 1

    def test_does_not_reemit_runtime_results(self):
        state, runtime, inputs = drive([
            ("tuple", "B", 1),
            ("tuple", "C", 1),
            ("tuple", "A", 1),   # produced at run time
            ("spill", "A"),
            ("tuple", "A", 1),   # another A joins live B/C at run time
        ])
        assert len(runtime) == 2
        stats, results = state.cleanup(materialize=True)
        assert stats.missing_results == 0
        assert results == []

    def test_examines_full_result_space(self):
        """The §2 cost: combinations examined == complete join cardinality,
        even when almost nothing is missing."""
        schedule = []
        for key in range(3):
            for stream in STREAMS:
                schedule.append(("tuple", stream, key))
        state, runtime, inputs = drive(schedule)
        stats, __ = state.cleanup()
        full = len(reference_join(inputs, STREAMS))
        assert stats.combinations_examined == full
        assert stats.missing_results == 0
        assert stats.timestamp_checks > 0


@settings(max_examples=80, deadline=None)
@given(
    events=st.lists(
        st.one_of(
            st.tuples(st.just("tuple"), st.sampled_from(STREAMS),
                      st.integers(0, 2)),
            st.tuples(st.just("spill"), st.sampled_from(STREAMS)),
        ),
        max_size=40,
    )
)
def test_exactly_once_for_any_schedule(events):
    """Property: for any arrival/spill interleaving, runtime ∪ cleanup ==
    reference, disjointly."""
    state, runtime, inputs = drive(events)
    runtime_idents = result_idents(runtime)
    assert len(runtime_idents) == len(runtime)
    stats, missing = state.cleanup(materialize=True)
    missing_idents = result_idents(missing)
    assert len(missing_idents) == len(missing)
    assert not (runtime_idents & missing_idents)
    reference = result_idents(reference_join(inputs, STREAMS))
    assert runtime_idents | missing_idents == reference
    assert stats.missing_results == len(missing)


class TestGroupVsPerInputEquivalence:
    def test_same_final_answer_as_partition_group_design(self):
        """Both granularities converge to the reference; the group design's
        cleanup examines only the missing combinations."""

        schedule = []
        for key in range(2):
            for stream in STREAMS:
                schedule.append(("tuple", stream, key))
        schedule.insert(3, ("spill", "A"))
        schedule.append(("spill", "B"))
        schedule += [("tuple", s, 1) for s in STREAMS]

        # per-input run
        state, runtime_pi, inputs = drive(schedule)
        __, missing_pi = state.cleanup(materialize=True)
        total_pi = result_idents(runtime_pi) | result_idents(missing_pi)

        reference = result_idents(reference_join(inputs, STREAMS))
        assert total_pi == reference
