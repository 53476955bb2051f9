"""The window-aware count oracle against the repository's reference join."""

import random

import pytest

from repro.engine.reference import reference_join, reference_join_count
from repro.engine.tuples import StreamTuple

from benchmarks.e2e.oracle import expected_results, windowed_join_count

STREAMS = ("A", "B", "C")


def random_tuples(rng: random.Random, n: int, keys: int, step: float):
    """Timestamps on a grid, so that many differences hit the window
    exactly — the edge the oracle must round like the engine does."""
    tuples = []
    for seq in range(n):
        stream = rng.choice(STREAMS)
        tuples.append(StreamTuple(stream=stream, seq=seq, key=rng.randrange(keys),
                                  ts=(rng.randrange(40) + 1) * step))
    return tuples


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("step,window", [(0.005, 0.05), (0.1, 0.7), (1.0, 3.0)])
def test_windowed_count_matches_reference(seed, step, window):
    tuples = random_tuples(random.Random(seed), n=120, keys=4, step=step)
    expected = len(reference_join(tuples, STREAMS, window=window))
    assert expected > 0
    assert windowed_join_count(tuples, STREAMS, window) == expected
    assert expected_results(tuples, STREAMS, window) == expected


def test_equal_timestamps_across_streams_count_once():
    tuples = [StreamTuple(stream=s, seq=i, key=1, ts=2.0)
              for i, s in enumerate("AABBC")]
    assert windowed_join_count(tuples, STREAMS, 1.0) == 4
    assert reference_join_count(tuples, STREAMS, window=1.0) == 4


def test_a_stream_without_the_key_gives_nothing():
    tuples = [StreamTuple(stream=s, seq=i, key=1, ts=float(i))
              for i, s in enumerate("AAB")]
    assert windowed_join_count(tuples, STREAMS, 10.0) == 0


@pytest.mark.parametrize("seed", range(4))
def test_unwindowed_uses_the_reference_count(seed):
    tuples = random_tuples(random.Random(seed), n=200, keys=5, step=1.0)
    assert expected_results(tuples, STREAMS, None) == len(
        reference_join(tuples, STREAMS))
