"""Integration tests for query-engine protocol behaviour.

These exercise the QE-side state machine directly through a miniature
deployment: mode gating (Table 2), cptv deferral during spills
(Algorithm 1 line 19), marker draining before state packing, and the stats
reporting loop.
"""

import pytest

from repro import StrategyName
from repro.cluster.network import Message
from repro.core.relocation import CptvRequest, ForcedSpillRequest, StatsReport
from repro.engine.query_engine import MODE_NORMAL, MODE_SR, MODE_SS

from tests.helpers import small_deployment


def make_dep(**kw):
    # NOTE: deliberately does NOT arm the engines' recurring timers — these
    # tests drive the protocol by hand, and an unbounded ``sim.run()`` with
    # self-re-arming timers would never terminate.
    return small_deployment(**kw)


def feed(dep, machine, pid, stream, key, n=1, seq0=0):
    """Inject tuples straight into a worker's instance (bypassing routing)."""
    from repro.engine.tuples import StreamTuple

    for i in range(n):
        dep.instances[machine].store.probe_insert(
            pid, StreamTuple(stream=stream, seq=seq0 + i, key=key,
                             ts=dep.sim.now)
        )


def control_msg(dep, dst, kind, payload):
    return Message(src="gc", dst=dst, kind=kind, payload=payload,
                   size_bytes=64, sent_at=dep.sim.now)


class TestModeGating:
    def test_engine_starts_normal(self):
        dep = make_dep()
        assert all(e.mode == MODE_NORMAL for e in dep.engines.values())

    def test_cptv_deferred_while_spilling(self):
        dep = make_dep(strategy=StrategyName.LAZY_DISK)
        engine = dep.engines["m1"]
        feed(dep, "m1", 0, "A", 0, n=50)
        engine._start_spill(amount=1000, forced=False)
        assert engine.mode == MODE_SS
        engine.deliver(control_msg(dep, "m1", "cptv", CptvRequest(amount=500)))
        assert engine._pending_cptv is not None
        dep.sim.run()  # spill completes -> deferred cptv proceeds
        assert engine._pending_cptv is None
        # ptv was sent to the coordinator (session was never opened at the
        # GC in this hand-driven test, so just check the QE returned to a
        # consistent mode: SR while awaiting transfer)
        assert engine.mode in (MODE_SR, MODE_NORMAL)

    def test_cptv_with_empty_store_returns_to_normal(self):
        dep = make_dep()
        engine = dep.engines["m1"]
        engine.deliver(control_msg(dep, "m1", "cptv", CptvRequest(amount=500)))
        assert engine.mode == MODE_NORMAL

    def test_forced_spill_refused_outside_normal_mode(self):
        dep = make_dep(strategy=StrategyName.ACTIVE_DISK)
        engine = dep.engines["m1"]
        feed(dep, "m1", 0, "A", 0, n=50)
        engine.mode = MODE_SR
        engine.deliver(
            control_msg(dep, "m1", "start_ss", ForcedSpillRequest(amount=500))
        )
        # refusal ack goes back to the GC with zero bytes
        dep.sim.run()
        assert dep.coordinator.stats.forced_spill_bytes == 0
        assert engine.instance.store.total_bytes > 0  # nothing spilled

    def test_ss_timer_noop_when_below_threshold(self):
        dep = make_dep(memory_threshold=10**9)
        engine = dep.engines["m1"]
        feed(dep, "m1", 0, "A", 0, n=5)
        engine._ss_timer_expired()
        assert engine.mode == MODE_NORMAL
        assert dep.disks["m1"].segments == ()

    def test_ss_timer_spills_when_above_threshold(self):
        dep = make_dep(memory_threshold=1_000)
        engine = dep.engines["m1"]
        feed(dep, "m1", 0, "A", 0, n=50)
        engine._ss_timer_expired()
        assert engine.mode == MODE_SS
        dep.sim.run()
        assert engine.mode == MODE_NORMAL
        assert dep.disks["m1"].segments


class TestStatsReporting:
    def test_stats_reach_coordinator(self):
        dep = make_dep()
        feed(dep, "m1", 0, "A", 0, n=10)
        dep.engines["m1"]._report_stats()
        dep.sim.run()
        report = dep.coordinator.latest["m1"]
        assert isinstance(report, StatsReport)
        assert report.state_bytes == dep.instances["m1"].store.total_bytes
        assert report.group_count == 1

    def test_outputs_delta_resets_between_reports(self):
        dep = make_dep()
        feed(dep, "m1", 0, "A", 1, n=1)
        feed(dep, "m1", 0, "B", 1, n=1)
        feed(dep, "m1", 0, "C", 1, n=1)  # produces 1 result
        engine = dep.engines["m1"]
        engine._report_stats()
        dep.sim.run()
        assert dep.coordinator.latest["m1"].outputs_delta == 1
        engine._report_stats()
        dep.sim.run()
        assert dep.coordinator.latest["m1"].outputs_delta == 0

    def test_unknown_kind_rejected(self):
        dep = make_dep()
        with pytest.raises(ValueError):
            dep.engines["m1"].deliver(control_msg(dep, "m1", "bogus", None))
        with pytest.raises(ValueError):
            dep.source_host.deliver(control_msg(dep, "source", "bogus", None))


class TestFullProtocolThroughDeployment:
    def test_relocation_session_runs_to_completion(self):
        """Drive a whole 8-step session via the real timers and messages."""
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.9, "m2": 0.1},
            n_partitions=8, join_rate=4.0, tuple_range=240,
            interarrival=0.01,
        )
        dep.run(duration=40, sample_interval=10)
        assert dep.relocation_count >= 1
        events = dep.metrics.events.of_kind("relocation")
        for event in events:
            assert event.details["duration"] is not None
            assert event.details["duration"] >= 0
        # routing tables converged: every split agrees on every owner
        maps = [s.partition_map.as_dict() for s in dep.splits.values()]
        assert all(m == maps[0] for m in maps[1:])
        # the moved partitions are live at their new owner
        for event in events:
            receiver = event.details["receiver"]
            __ = dep.instances[receiver]  # receiver exists

    def test_no_markers_left_dangling(self):
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.9, "m2": 0.1},
            n_partitions=8, join_rate=4.0, tuple_range=240,
            interarrival=0.02,
        )
        dep.run(duration=40, sample_interval=10)
        for engine in dep.engines.values():
            assert engine._pending_motion is None
            assert engine.mode == MODE_NORMAL

    def test_split_buffers_empty_after_quiesce(self):
        dep = small_deployment(
            strategy=StrategyName.RELOCATION_ONLY,
            assignment={"m1": 0.9, "m2": 0.1},
            n_partitions=8, join_rate=4.0, tuple_range=240,
            interarrival=0.02,
        )
        dep.run(duration=40, sample_interval=10)
        for split in dep.splits.values():
            assert split.buffered_now == 0
            assert split.paused_partitions == frozenset()
