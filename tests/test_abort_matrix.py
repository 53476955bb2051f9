"""The state-motion abort table, cell by cell.

Every kind of state motion runs through the coordinator's one bracket, so
one table says what a participant's death costs: kind ∈ {relocate, drain,
split, merge} × the phase the crash is injected in ∈ {pausing, moving,
remapping} × the victim ∈ {sender, receiver} (one axis for split/merge,
whose owner is both).  Each cell is a seeded full run: the simulator is
stepped event by event until the session of that kind enters the phase,
the victim crashes on the spot, and the run must record the table's
outcome — remapped back / adopted by recovery / left paused for recovery
with ``pause_handoff`` — stay exactly-once against ``reference_join`` and
leave a trace and ledger the checker accepts.

The ``pausing`` and ``remapping`` windows are one network round trip wide,
while an abort is only ever decided on a coordinator tick seconds later,
so for those cells the split hosts' ``paused`` / ``resumed`` acks are held
back until the session has aborted (a slow control link; the stale acks
are then dropped as unsolicited) — that is what makes every cell
deterministic, and none is skipped.

Cells no test reached before the bracket was shared: every ``merge`` row
(nothing crashed the owner of a merge session in any phase), every
``drain`` row with the *receiver* as victim and every ``drain`` row past
the drain's own select phases (only the leaving machine was ever killed,
and only while queued/collecting), and every ``pausing`` and ``remapping``
row of every kind — the remap-back outcome included — since pinned-time
crashes only ever found a session ``transferring`` / ``installing``.
"""

import pytest

from repro import Tracer
from repro.obs.ledger import DecisionLedger

from tests.test_membership import elastic_deployment
from tests.test_recovery import _skewed_deployment
from tests.test_repartition_differential import (
    build as repartition_deployment,
    check_against_reference,
    check_observability,
)

PHASES = ("pausing", "moving", "remapping")
#: the ack a split host sends back in each held phase
HELD_ACK = {"pausing": "paused", "remapping": "resumed"}


def scenario(kind, tracer, ledger):
    """``(deployment, run length, when to start looking, drain request)``
    for a run whose first ``kind`` session after that instant has state
    worth losing."""
    obs = dict(tracer=tracer, ledger=ledger)
    if kind == "relocate":
        return _skewed_deployment(**obs), 50.0, 20.0, None
    if kind == "drain":
        dep = elastic_deployment(workers=3, checkpoint=True, collect=True, **obs)
        return dep, 60.0, 20.0, "m2"
    dep = repartition_deployment(checkpoint=True, **obs)
    return (dep, 50.0, 20.0, None) if kind == "split" else (dep, 90.0, 55.0, None)


def hold(dep, ack_kind):
    """Park every ``ack_kind`` message addressed to the coordinator;
    returns the function that delivers them after all."""
    endpoints, name = dep.network._endpoints, dep.coordinator.name
    deliver, held = endpoints[name], []

    def gate(message):
        (held.append if message.kind == ack_kind else deliver)(message)

    endpoints[name] = gate

    def release():
        endpoints[name] = deliver
        for message in held:
            deliver(message)

    return release


def crash_in_phase(kind, phase, victim):
    """Run the ``kind`` scenario, crashing ``victim`` the moment the first
    session of that kind enters ``phase``; returns what the run recorded."""
    tracer, ledger = Tracer(), DecisionLedger()
    dep, duration, after, leaving = scenario(kind, tracer, ledger)
    gc = dep.coordinator
    dep.launch(duration)
    dep.sim.run(until=after)
    if leaving:
        dep.drain_machine(leaving)
    while True:
        session = gc.session
        if (session is not None and session.kind == kind
                and PHASES.index(phase) + 1 == session.phases.index(session.phase)):
            break
        assert dep.sim.now < duration, f"no {kind} session reached {phase}"
        dep.sim.run(max_events=1)
    release = hold(dep, HELD_ACK[phase]) if phase in HELD_ACK else (lambda: None)
    dep.engines[getattr(session, victim)].crash()
    assert dep.sim.now + 15.0 < duration
    while gc.session is session:
        assert dep.sim.now < duration, "the session never aborted"
        dep.sim.run(until=dep.sim.now + 1.0)
    # no new session can open before the next coordinator tick
    tries = [dict(gc.repartition.refinement),
             *(dict(split.refinement) for split in dep.splits.values())]
    release()
    dep.sim.run(until=dep.sim.now + 2.0)  # recovery has re-homed the state
    dep.engines[getattr(session, victim)].restart()
    dep.sim.run(until=duration)
    dep.stop_components()
    dep.sim.run()
    dep.flush_outputs()
    dep.sim.run()
    return dep, session, tries, tracer, ledger


def expected_outcome(kind, phase, victim):
    """The abort table: ``(outcome, pause_handoff)``."""
    if kind in ("split", "merge"):
        # the owner died: recovery re-homes whatever is paused
        return "left_paused", True
    if victim == "receiver" and phase == "pausing":
        return "remapped_back", False
    if victim == "receiver" and phase == "moving":
        return "adopted", True
    # a dead sender is recovery's to re-home; in ``remapping`` the hosts
    # already flushed towards the receiver themselves
    return "left_paused", phase != "remapping"


CELLS = [
    (kind, phase, victim)
    for kind in ("relocate", "drain", "split", "merge")
    for phase in PHASES
    for victim in (("sender",) if kind in ("split", "merge")
                   else ("sender", "receiver"))
]


@pytest.mark.parametrize("kind,phase,victim", CELLS)
def test_abort_matrix(kind, phase, victim):
    dep, session, tries, tracer, ledger = crash_in_phase(kind, phase, victim)
    outcome, pause_handoff = expected_outcome(kind, phase, victim)
    label = session.phases[PHASES.index(phase) + 1]
    assert session.phase == "aborted" and dep.recovery_count == 1

    # what the session recorded: adaptation event, span end, ledger entry
    repartition = kind in ("split", "merge")
    (event,) = [
        e for e in dep.metrics.events.of_kind(
            "repartition_aborted" if repartition else "relocation_aborted")
        if e.time == session.completed_at
    ]
    assert event.details["phase_reached"] == label
    (end,) = [e for e in tracer.events
              if e.span == session.trace_span and e.fields.get("status")]
    assert end.fields["status"] == "aborted"
    assert end.fields["pause_handoff"] is pause_handoff
    realized = ledger.get(session.ledger_entry)["realized"]
    assert realized["status"] == "aborted"
    # a drain's entry is the drain's own: it ends up telling how far the
    # drain got, the motion's ``adopted`` beside it
    assert realized["phase_reached"] == ("relocating" if kind == "drain" else label)
    flushed_back = [
        e for e in tracer.events
        if e.name == "split.flush" and e.span == session.trace_span
        and e.fields["new_owner"] == session.sender != session.receiver
    ]
    assert bool(flushed_back) == (outcome == "remapped_back")
    if repartition:
        assert event.details["reason"] == realized["reason"] == "owner_died"
        action, parent, children = session.refinement
        # the GC's trie mirrors the sources' tables, and both flipped
        # exactly when the routing flip was already on the wire
        assert all(trie == tries[0] for trie in tries)
        flipped = (tries[0].get(parent) == children) == (action == "split")
        assert flipped == (phase == "remapping")
    else:
        assert event.details["adopted"] is (outcome == "adopted")
        assert realized["adopted"] is (outcome == "adopted")
        assert realized["reason"] == "participant_died"
        assert dep.coordinator.stats.relocations_aborted == 1
    if kind == "drain":
        (drain,) = dep.coordinator.drain_history
        assert drain.phase == "aborted" and drain.reloc is session
        (aborted,) = dep.metrics.events.of_kind("drain_aborted")
        assert aborted.details["reason"] == "participant_died"
        assert session.sender in dep.coordinator.workers  # never retired

    check_against_reference(dep, dep.cleanup(materialize=True))
    check_observability(tracer, ledger)
