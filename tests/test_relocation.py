"""Tests for the relocation protocol payloads and session state machine."""

import pytest

from repro.core.coordinator import DrainSession
from repro.core.relocation import (
    MOTION_KINDS,
    CptvRequest,
    MotionSession,
    PartsList,
    StatsReport,
)
from repro.recovery import RecoverySession


def make_session(kind="relocate", **overrides):
    defaults = dict(
        kind=kind,
        sender="m1",
        receiver="m1" if kind in ("split", "merge") else "m2",
        amount=1000,
        split_hosts=("source",),
        started_at=0.0,
    )
    defaults.update(overrides)
    return MotionSession(**defaults)


class TestSession:
    """The one session class, over every kind of state motion: only the
    phase labels differ (relocation's for relocate/drain, repartition's for
    split/merge)."""

    def test_initial_phase(self):
        for kind, spec in MOTION_KINDS.items():
            session = make_session(kind)
            assert session.phase == spec.phases[0]
            assert not session.terminal
            assert session.duration is None
        assert make_session("drain").phase == "cptv_sent"
        assert make_session("merge").phase == "ordered"

    def test_advance_through_phases(self):
        for kind, moving in (("relocate", "transferring"), ("drain", "transferring"),
                             ("split", "installing"), ("merge", "installing")):
            session = make_session(kind)
            for phase in ("pausing", moving, "remapping", "done"):
                session.advance(phase)
            assert session.terminal
            stepped = make_session(kind)
            for phase in ("pausing", moving, "remapping", "done"):
                stepped.step()
                assert stepped.phase == phase

    def test_cannot_regress(self):
        for kind in MOTION_KINDS:
            session = make_session(kind)
            session.advance("remapping")
            with pytest.raises(ValueError, match="cannot regress"):
                session.advance("pausing")

    def test_abort_allowed_from_any_phase(self):
        for kind in MOTION_KINDS:
            for reached in range(4):
                session = make_session(kind)
                for _ in range(reached):
                    session.step()
                session.advance("aborted")
                assert session.terminal

    def test_unknown_phase_rejected(self):
        for kind, spec in MOTION_KINDS.items():
            with pytest.raises(ValueError, match=f"unknown {spec.noun} phase"):
                make_session(kind).advance("teleporting")
        # the moving phase carries a per-kind label
        with pytest.raises(ValueError, match="unknown repartition phase"):
            make_session("split").advance("transferring")
        with pytest.raises(ValueError, match="unknown relocation phase"):
            make_session("drain").advance("installing")

    def test_duration_after_completion(self):
        for kind in MOTION_KINDS:
            session = make_session(kind, started_at=10.0)
            session.completed_at = 16.0
            assert session.duration == pytest.approx(6.0)

    def test_phase_order_constant_is_consistent(self):
        assert MOTION_KINDS["relocate"].phases[0] == "cptv_sent"
        assert MOTION_KINDS["drain"] is MOTION_KINDS["relocate"]
        assert MOTION_KINDS["split"] is MOTION_KINDS["merge"]
        for spec in MOTION_KINDS.values():
            assert spec.phases[-2:] == ("done", "aborted")
            assert len(spec.phases) == 6

    def test_drain_and_recovery_sessions_share_the_phase_rules(self):
        drain = DrainSession(machine="m1", requested_at=0.0, deadline=9.0)
        assert drain.phase == "queued" and drain.duration is None
        drain.advance("collecting")
        with pytest.raises(ValueError, match="cannot regress"):
            drain.advance("cptv_sent")
        with pytest.raises(ValueError, match="unknown drain phase"):
            drain.advance("pausing")
        drain.advance("aborted")
        drain.completed_at = 4.0
        assert drain.terminal and drain.duration is None  # never started
        recovery = RecoverySession(machine="m1", started_at=1.0)
        recovery.advance("rerouting")
        with pytest.raises(ValueError, match="cannot regress"):
            recovery.advance("restoring")
        with pytest.raises(ValueError, match="unknown recovery phase"):
            recovery.advance("aborted")
        recovery.advance("done")
        recovery.completed_at = 3.5
        assert recovery.terminal and recovery.duration == pytest.approx(2.5)


class TestPayloads:
    def test_payloads_are_frozen(self):
        request = CptvRequest(amount=10)
        with pytest.raises(AttributeError):
            request.amount = 20  # type: ignore[misc]

    def test_parts_list_fields(self):
        parts = PartsList(sender="m1", partition_ids=(1, 2), total_bytes=300)
        assert parts.partition_ids == (1, 2)

    def test_stats_report_fields(self):
        report = StatsReport(
            machine="m1", state_bytes=100, outputs_delta=5,
            group_count=2, queue_depth=0, sent_at=1.0,
        )
        assert report.machine == "m1"
        assert report.outputs_delta == 5
