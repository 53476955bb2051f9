"""Tests for the productivity metric: the per-group ``P_output / P_size``
of §2, the victim orders ranked on it, and the machine rate ``R``."""

import math

import pytest

from repro.core.policy import machine_productivity_rate
from repro.core.spill import LessProductiveSpillPolicy, MoreProductiveSpillPolicy
from repro.engine.tuples import StreamTuple

from tests.row_group import PartitionGroup

STREAMS = ("A", "B")


def group_with(pid, size_per_tuple, n_tuples, outputs):
    g = PartitionGroup(pid, STREAMS)
    for seq in range(n_tuples):
        g.insert(StreamTuple(stream="A", seq=seq, key=pid, ts=0.0,
                             size=size_per_tuple))
    g.record_output(outputs)
    return g


class TestCumulative:
    def test_score_is_output_over_size(self):
        g = group_with(0, size_per_tuple=100, n_tuples=2, outputs=50)
        assert g.productivity == pytest.approx(0.25)

    def test_empty_group_scores_inf(self):
        assert math.isinf(PartitionGroup(0, STREAMS).productivity)

    def test_rank_ascending_least_productive_first(self):
        low = group_with(0, 100, 4, outputs=1)
        high = group_with(1, 100, 4, outputs=100)
        assert [g.pid for g in LessProductiveSpillPolicy().order([high, low])] == [0, 1]
        assert [g.pid for g in MoreProductiveSpillPolicy().order([low, high])] == [1, 0]

    def test_rank_breaks_ties_by_pid(self):
        a = group_with(2, 100, 1, outputs=10)
        b = group_with(1, 100, 1, outputs=10)
        assert [g.pid for g in LessProductiveSpillPolicy().order([a, b])] == [1, 2]
        assert [g.pid for g in MoreProductiveSpillPolicy().order([a, b])] == [1, 2]


class TestMachineRate:
    def test_rate(self):
        assert machine_productivity_rate(100, 4) == 25.0

    def test_zero_groups(self):
        assert machine_productivity_rate(100, 0) == 0.0
