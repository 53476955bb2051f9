"""The rule cascades as pure functions (repro.core.policy): thresholds,
ordering, and the live = replay contract."""

import importlib

import pytest

from repro.core import policy
from repro.obs.ledger import _POLICY, replay_decision


def overflow(state, mode="normal"):
    return {"machine": "m1", "state_bytes": state, "memory_threshold": 500,
            "spill_fraction": 0.3, "mode": mode}


GC_INPUTS = {
    "now": 100.0, "last_relocation_time": 0.0,
    "reports": [
        {"machine": "m1", "state_bytes": 9000, "group_count": 3, "rate": 30.0},
        {"machine": "m2", "state_bytes": 1000, "group_count": 2, "rate": 1.0},
    ],
    "theta_r": 0.8, "tau_m": 45.0, "min_relocation_bytes": 1024,
    "lambda_productivity": 2.0,
    "relocation_enabled": True, "forced_spill_enabled": True,
    "forced_spill_cap": 10_000, "forced_spill_bytes_used": 0,
    "forced_spill_fraction": 0.5, "forced_spill_pressure_floor": 4000.0,
}
DRAIN_INPUTS = {"event": "drain", "machine": "m1", "reports": [
    {"machine": "m3", "state_bytes": 5, "group_count": 1},
    {"machine": "m2", "state_bytes": 5, "group_count": 1}]}


def test_overflow_threshold_is_strict_and_tested_before_mode():
    decide = policy.decide_overflow
    assert decide(overflow(500))[:2] == ("none", "under_threshold")
    assert decide(overflow(501))[:2] == ("spill", "memory_threshold")
    # a busy engine with memory to spare is under_threshold, not busy
    assert decide(overflow(10, "sr_mode"))[1] == "under_threshold"
    assert decide(overflow(900, "sr_mode"))[:2] == ("none", "busy")


def test_gc_cascade_order_and_predicates():
    action, rule, choice, alts = policy.decide_gc(GC_INPUTS)
    assert (action, rule) == ("relocate", "theta_r")
    assert choice == {"sender": "m1", "receiver": "m2", "amount": 4000}
    assert alts[-1]["outcome"] == "chosen"
    # denied the relocation slot, the tick falls through to forced spill
    action, rule, choice, _ = policy.decide_gc(
        {**GC_INPUTS, "arbitration_denied": True})
    assert (action, rule) == ("forced_spill", "lambda")
    assert choice == {"machine": "m2", "amount": 500, "ratio": 30.0}
    action, rule, _, alts = policy.decide_gc(
        {**GC_INPUTS, "last_relocation_time": 90.0,
         "forced_spill_enabled": False})
    assert (action, rule) == ("none", "idle")
    assert "10.0 s < tau_m = 45.0 s" in alts[0]["predicate"]


def test_drain_receiver_ties_break_on_machine_name():
    assert policy.decide_membership(DRAIN_INPUTS)[2] == {"receiver": "m2"}


def test_live_sites_and_replay_call_the_same_function_objects():
    sites = {
        "decide_gc": "repro.core.coordinator",
        "decide_membership": "repro.core.coordinator",
        "decide_repartition": "repro.core.repartition",
        "decide_overflow": "repro.engine.query_engine",
        "decide_cluster_gc": "repro.serving.gc",
        "decide_admission": "repro.serving.server",
    }
    assert set(sites) == {name for module, name in _POLICY.values()
                          if module == "repro.core.policy"}
    for name, module in sites.items():
        live = getattr(importlib.import_module(module), name)
        assert live is getattr(policy, name)


@pytest.mark.parametrize("decide, inputs", [
    (policy.decide_gc, GC_INPUTS),
    (policy.decide_gc, {**GC_INPUTS, "relocation_enabled": False}),
    (policy.decide_overflow, overflow(10)),
    (policy.decide_overflow, overflow(900)),
    (policy.decide_membership, DRAIN_INPUTS),
])
def test_explain_off_decides_the_same_without_formatting(decide, inputs):
    action, rule, choice, alts = decide(inputs)
    assert alts
    assert decide(inputs, explain=False) == (action, rule, choice, [])


def test_replay_decision_returns_action_rule_and_choice():
    assert replay_decision({"kind": "gc_tick", "inputs": GC_INPUTS}) == {
        "action": "relocate", "rule": "theta_r",
        "sender": "m1", "receiver": "m2", "amount": 4000,
    }
    with pytest.raises(ValueError, match="unknown ledger entry kind"):
        replay_decision({"kind": "nope", "inputs": {}})
