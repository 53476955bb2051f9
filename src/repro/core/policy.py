"""The adaptation rules as pure functions: inputs in, decision out.

Every threshold rule of the system — the paper's ``M_least/M_max < θ_r``
spaced by ``τ_m``, ``R_max/R_min > λ`` under the forced-spill budget and
``QE_memory > threshold``, plus the serving layer's budgets, the
split/merge skew rules and the drain-receiver choice — lives here and
nowhere else.  Each ``decide_*`` reads nothing but the JSON-typed
``inputs`` dict its caller records in the decision ledger and returns
``(action, rule, choice, alternatives)``:

* ``action`` / ``rule`` — what to do and the predicate that decided it;
* ``choice`` — the parameters of the action (who, how much); the caller
  records them as ``chosen_<key>`` beside the inputs;
* ``alternatives`` — the branches considered, each with the concrete
  (numbers-substituted) predicate that rejected or chose it.  Formatting
  them is the expensive part, so the functions called on every timer
  tick take ``explain``; ``False`` (ledger disabled) returns ``[]``.

The live callers gather inputs, call the function, record and act;
:func:`repro.obs.ledger.replay_decision` calls the *same* function on a
recorded entry — replay is the policy, not a mirror of it.
"""

from __future__ import annotations

from typing import Any

Decision = tuple[str, str, dict[str, Any], list[dict]]

def _alt(action: str, predicate: str, outcome: str = "rejected") -> dict:
    """One decision-ledger alternative: the branch and the concrete
    (numbers-substituted) predicate that rejected or chose it."""
    return {"action": action, "outcome": outcome, "predicate": predicate}


def with_choice(inputs: dict, choice: dict) -> dict:
    """What an executed decision records as its ledger inputs: what the
    rule saw plus the parameters it chose, as ``chosen_<key>``."""
    return {**inputs, **{f"chosen_{k}": v for k, v in choice.items()}}


def _load_key(report: dict) -> tuple:
    """(bytes, machine): the deterministic load tie-break."""
    return (report["state_bytes"], report["machine"])


# ----------------------------------------------------------------------
# GC tick: relocation (§4), then forced spill (active-disk, Algorithm 2)
# ----------------------------------------------------------------------
def decide_gc(inputs: dict, explain: bool = True) -> Decision:
    """One pass of the global coordinator's rule cascade over the stats
    reports, in the worker order the coordinator saw them."""
    if inputs.get("deferred"):
        why = f"deferred: {inputs.get('reason')}"
        return "none", "deferred", {}, [
            _alt("relocate", why), _alt("forced_spill", why),
        ]
    alts: list[dict] = []
    # ``arbitration_denied`` marks ticks on which the serving layer's
    # cross-deployment arbiter refused the relocation slot.
    if inputs["relocation_enabled"] and not inputs.get("arbitration_denied"):
        choice, alt = _relocation(inputs, explain)
        alts += alt
        if choice is not None:
            return "relocate", "theta_r", choice, alts
    if inputs["forced_spill_enabled"]:
        choice, alt = _forced_spill(inputs, explain)
        alts += alt
        if choice is not None:
            return "forced_spill", "lambda", choice, alts
    return "none", "idle", {}, alts


def _relocation(inputs: dict, explain: bool) -> tuple[dict | None, list[dict]]:
    """``M_least/M_max < θ_r`` spaced by ``τ_m``: the choice (``None`` =
    rejected) and the one alternative line that says why."""
    reports = inputs["reports"]
    max_r = max(reports, key=_load_key)
    min_r = min(reports, key=_load_key)
    max_load, min_load = max_r["state_bytes"], min_r["state_bytes"]
    if max_load <= 0 or max_r["machine"] == min_r["machine"]:
        return None, [_alt(
            "relocate",
            f"no load to balance: M_max = {max_load} B "
            f"on {max_r['machine']!r}",
        )] if explain else []
    theta_r = inputs["theta_r"]
    if min_load / max_load >= theta_r:
        return None, [_alt(
            "relocate",
            f"M_least/M_max = {min_load}/{max_load} = "
            f"{min_load / max_load:.4f} >= theta_r = {theta_r}",
        )] if explain else []
    since = inputs["now"] - inputs["last_relocation_time"]
    tau_m = inputs["tau_m"]
    if since < tau_m:
        return None, [_alt(
            "relocate",
            f"now - last_relocation = {since:.1f} s < tau_m = {tau_m} s",
        )] if explain else []
    amount = (max_load - min_load) // 2
    if amount < inputs["min_relocation_bytes"]:
        return None, [_alt(
            "relocate",
            f"amount = (M_max - M_least)/2 = {amount} B "
            f"< min_relocation_bytes = {inputs['min_relocation_bytes']} B",
        )] if explain else []
    choice = {
        "sender": max_r["machine"],
        "receiver": min_r["machine"],
        "amount": amount,
    }
    return choice, [_alt(
        "relocate",
        f"M_least/M_max = {min_load}/{max_load} = "
        f"{min_load / max_load:.4f} < theta_r = {theta_r} "
        f"and now - last_relocation = {since:.1f} s >= tau_m = "
        f"{tau_m} s -> move (M_max - M_least)/2 = "
        f"{amount} B from {max_r['machine']!r} to {min_r['machine']!r}",
        outcome="chosen",
    )] if explain else []


def _forced_spill(inputs: dict, explain: bool) -> tuple[dict | None, list[dict]]:
    """``R_max/R_min > λ`` under memory pressure and within the
    cumulative forced-spill budget (``M_query − M_cluster``)."""
    reports = inputs["reports"]
    used, cap = inputs["forced_spill_bytes_used"], inputs["forced_spill_cap"]
    if used >= cap:
        return None, [_alt(
            "forced_spill",
            f"budget exhausted: forced_spill_bytes = {used} B >= cap "
            f"(M_query - M_cluster) = {cap} B",
        )] if explain else []
    floor = inputs["forced_spill_pressure_floor"]
    if not any(r["state_bytes"] >= floor for r in reports):
        # "only if extra memory is needed" (§5.4)
        return None, [_alt(
            "forced_spill",
            f"no memory pressure: max machine state = "
            f"{max(r['state_bytes'] for r in reports)} B < pressure "
            f"floor = {floor:.0f} B",
        )] if explain else []
    rated = [r for r in reports if r["group_count"] > 0]
    if len(rated) < 2:
        return None, [_alt(
            "forced_spill",
            f"only {len(rated)} machine(s) hold partition groups",
        )] if explain else []
    # max()/min() return the FIRST extreme in report order: the
    # list-order tie-break.
    max_rate = max(r["rate"] for r in rated)
    min_r = min(rated, key=lambda r: r["rate"])
    min_rate = min_r["rate"]
    if min_rate <= 0:
        ratio = float("inf") if max_rate > 0 else 0.0
    else:
        ratio = max_rate / min_rate
    lam = inputs["lambda_productivity"]
    if ratio <= lam:
        return None, [_alt(
            "forced_spill",
            f"R_max/R_min = {max_rate:.3f}/{min_rate:.3f} = "
            f"{ratio:.3f} <= lambda = {lam}",
        )] if explain else []
    fraction = inputs["forced_spill_fraction"]
    amount = min(int(min_r["state_bytes"] * fraction), cap - used)
    if amount <= 0:
        return None, [_alt(
            "forced_spill",
            f"amount = min({min_r['state_bytes']} B x {fraction}, "
            f"{cap - used} B remaining) = {amount} B <= 0",
        )] if explain else []
    choice = {"machine": min_r["machine"], "amount": amount, "ratio": ratio}
    return choice, [_alt(
        "forced_spill",
        f"R_max/R_min = {max_rate:.3f}/{min_rate:.3f} = {ratio:.3f} "
        f"> lambda = {lam} -> spill {amount} B on least productive "
        f"machine {min_r['machine']!r}",
        outcome="chosen",
    )] if explain else []


# ----------------------------------------------------------------------
# ss_timer: the local overflow check (Algorithm 1 lines 24-32)
# ----------------------------------------------------------------------
def decide_overflow(inputs: dict, explain: bool = True) -> Decision:
    """``QE_memory > threshold`` and the engine is free to spill."""
    state, threshold = inputs["state_bytes"], inputs["memory_threshold"]
    if state <= threshold:
        return "none", "under_threshold", {}, [_alt(
            "spill",
            f"QE memory = {state} B <= threshold = {threshold} B",
        )] if explain else []
    if inputs["mode"] != "normal":
        # "don't spill now, wait until next timer expires"
        return "none", "busy", {}, [_alt(
            "spill",
            f"memory exceeded but engine is in {inputs['mode']!r} — "
            f"wait until the next timer expires",
        )] if explain else []
    return "spill", "memory_threshold", {}, [_alt(
        "spill",
        f"QE memory = {state} B > threshold = {threshold} B -> spill "
        f"{inputs['spill_fraction']:.0%} of resident state",
        outcome="chosen",
    )] if explain else []


# ----------------------------------------------------------------------
# Serving layer: cross-query GC and admission control
# ----------------------------------------------------------------------
def decide_cluster_gc(inputs: dict, explain: bool = True) -> Decision:
    """Order the highest-scoring engine of an over-budget tenant to
    spill; (score, engine-name) tie-break."""
    tenants = inputs["tenants"]
    if not any(t["usage"] > t["budget"] for t in tenants):
        return "none", "within_budget", {}, [_alt(
            "forced_spill",
            "every tenant within budget: " + ", ".join(
                f"{t['name']}={t['usage']}/{t['budget']} B" for t in tenants
            ),
        )] if explain else []
    scored = [v for v in inputs["victims"] if v["score"] > 0]
    if not scored:
        return "none", "no_victims", {}, [_alt(
            "forced_spill",
            "no engine serves an over-budget tenant with "
            "positive-score state",
        )] if explain else []
    best = max(scored, key=lambda v: (v["score"], v["engine"]))
    fraction = inputs["spill_fraction"]
    amount = int(best["state_bytes"] * fraction)
    if amount < inputs["min_spill_bytes"]:
        return "none", "too_small", {}, [_alt(
            "forced_spill",
            f"amount = {best['state_bytes']} B x {fraction} = {amount} B < "
            f"min_spill_bytes = {inputs['min_spill_bytes']} B",
        )] if explain else []
    alts: list[dict] = []
    if explain:
        alts = [
            _alt(
                "forced_spill",
                f"victim {loser['engine']!r} (tenant {loser['tenant']!r}): "
                f"score = {loser['score']:.1f} < chosen {best['score']:.1f}",
            )
            for loser in scored
            if loser is not best
        ]
        alts.append(_alt(
            "forced_spill",
            f"tenant {best['tenant']!r} over budget -> spill "
            f"{amount} B on {best['engine']!r} (score "
            f"{best['score']:.1f}: overuse x {best['state_bytes']} B "
            f"/ (1 + {best['productivity']:.3f}))",
            outcome="chosen",
        ))
    choice = {
        "machine": best["engine"], "amount": amount, "tenant": best["tenant"],
    }
    return "forced_spill", "tenant_budget", choice, alts


def decide_admission(inputs: dict) -> Decision:
    """Fold onto a running group when the signature matches, else admit
    within the tenant budget and the cluster capacity.  Always explained:
    a rejection's predicate is also the reason on the query's handle."""
    if inputs.get("fold_group"):
        # The chosen alternative quotes the group's member count, which
        # only the server knows: it appends that line itself.
        return "fold", "fold_signature", {}, []
    demand = inputs["memory_demand"]
    usage, budget = inputs["tenant_usage"], inputs["tenant_budget"]
    used, capacity = inputs["cluster_used"], inputs["cluster_capacity"]
    if usage + demand > budget:
        return "reject", "tenant_budget", {}, [_alt(
            "admit",
            f"tenant {inputs['tenant']!r} budget exceeded: "
            f"{usage} + {demand} B > {budget} B",
        )]
    if used + demand > capacity:
        return "reject", "cluster_capacity", {}, [_alt(
            "admit",
            f"cluster capacity exceeded: {used} + {demand} B > {capacity} B",
        )]
    return "admit", "capacity", {}, [_alt(
        "admit",
        f"tenant {usage} + {demand} B <= {budget} B and "
        f"cluster {used} + {demand} B <= {capacity} B",
        outcome="chosen",
    )]


# ----------------------------------------------------------------------
# Repartition: split the skewed hot group, fold cold leaf siblings
# ----------------------------------------------------------------------
def decide_repartition(inputs: dict, explain: bool = True) -> Decision:
    """Split/merge rule cascade over one tick's reports and the
    coordinator's refinement trie."""
    since = inputs["now"] - inputs["last_repartition_time"]
    if since < inputs["tau_p"]:
        why = (
            f"now - last_repartition = {since:.1f} s"
            f" < tau_p = {inputs['tau_p']} s"
        )
        return "none", "tau_p", {}, [
            _alt("split", why), _alt("merge", why),
        ] if explain else []
    reports = inputs["reports"]
    depths = {int(k): v for k, v in inputs["depths"].items()}
    refinement = [tuple(node) for node in inputs["refinement"]]
    refined = {parent for parent, _, _ in refinement}
    # Rule 1 — split the most skewed hot group.  A group is "hot" when it
    # exceeds split_skew_factor times the *cluster-wide* average group
    # size and is worth the protocol cost.  The cluster average (not the
    # owner's own) is the yardstick because relocation tends to isolate a
    # monster group alone on one machine — per-machine skew then reads as
    # zero exactly when the group most needs splitting.
    total_bytes = sum(r["state_bytes"] for r in reports)
    total_groups = sum(r["group_count"] for r in reports)
    avg_group = total_bytes / total_groups if total_groups else 0.0
    best = None
    for r in reports:
        if r["max_group_pid"] < 0:
            continue
        if r["max_group_bytes"] < inputs["split_min_bytes"]:
            continue
        if r["max_group_bytes"] <= inputs["split_skew_factor"] * avg_group:
            continue
        if depths.get(r["max_group_pid"], 0) >= inputs["max_depth"]:
            continue
        if best is None or (r["max_group_bytes"], r["machine"]) > (
            best["max_group_bytes"],
            best["machine"],
        ):
            best = r
    if best is not None:
        parent, nxt = best["max_group_pid"], inputs["next_child_pid"]
        choice = {
            "machine": best["machine"],
            "parent": parent,
            "children": [nxt, nxt + 1],
        }
        return "split", "skew", choice, [_alt(
            "split",
            f"group {parent} on {best['machine']!r} dominates: "
            f"max_group_bytes > split_skew_factor x cluster-average "
            f"group size and max_group_bytes >= "
            f"{inputs['split_min_bytes']} B -> "
            f"split into {(nxt, nxt + 1)!r} at depth {depths.get(parent, 0)}",
            outcome="chosen",
        )] if explain else []
    # Rule 2 — fold a cold leaf sibling pair.  Both children must appear in
    # ONE machine's small-groups report (they are then co-resident on the
    # owner, so the merge is a local rebuild, not a state transfer).
    # Reports scan in worker order, refinements in sorted-parent order.
    for r in reports:
        small = {pid: size for pid, size in r["small_groups"]}
        for parent, c0, c1 in refinement:
            if c0 in refined or c1 in refined:
                continue  # only leaf pairs fold back
            if (
                c0 in small
                and c1 in small
                and small[c0] + small[c1] <= inputs["merge_max_bytes"]
            ):
                choice = {
                    "machine": r["machine"],
                    "parent": parent,
                    "children": [c0, c1],
                }
                return "merge", "cold_siblings", choice, [_alt(
                    "merge",
                    f"cold leaf siblings {(c0, c1)!r} co-resident on "
                    f"{r['machine']!r} fit merge_max_bytes = "
                    f"{inputs['merge_max_bytes']} B -> fold into {parent}",
                    outcome="chosen",
                )] if explain else []
    if not explain:
        return "none", "idle", {}, []
    hot = max((r["max_group_bytes"] for r in reports), default=0)
    return "none", "idle", {}, [
        _alt(
            "split",
            f"no skewed group: largest reported group = {hot} B "
            f"fails max > split_skew_factor x cluster-average "
            f"group size (factor = {inputs['split_skew_factor']}) with "
            f"min size {inputs['split_min_bytes']} B",
        ),
        _alt(
            "merge",
            f"no co-resident leaf sibling pair within "
            f"merge_max_bytes = {inputs['merge_max_bytes']} B "
            f"among {len(refinement)} refinement node(s)",
        ),
    ]


# ----------------------------------------------------------------------
# Elastic membership: join, and the drain's receiver
# ----------------------------------------------------------------------
def decide_membership(inputs: dict, explain: bool = True) -> Decision:
    """A join is always admitted; a drain moves everything onto the
    least-loaded live candidate, (bytes, machine) tie-break."""
    if inputs["event"] == "join":
        rebalance = inputs["rebalance_on_join"]
        return "join", "admit", {}, [_alt(
            "rebalance",
            "rebalance_on_join -> reset last_relocation_time "
            "so theta_r may target the empty joiner next tick"
            if rebalance
            else "rebalance_on_join disabled -> tau_m spacing "
            "unchanged; the joiner waits for organic imbalance",
            outcome="chosen" if rebalance else "rejected",
        )] if explain else []
    candidates = inputs["reports"]
    if not candidates:
        return "none", "no_target", {}, []
    target = min(candidates, key=_load_key)
    alts: list[dict] = []
    if explain:
        alts = [
            _alt(
                "drain",
                f"receiver {r['machine']!r}: state = {r['state_bytes']} B "
                f"> least-loaded {target['machine']!r} = "
                f"{target['state_bytes']} B",
            )
            for r in candidates
            if r["machine"] != target["machine"]
        ]
        alts.append(_alt(
            "drain",
            f"receiver {target['machine']!r} is least loaded "
            f"({target['state_bytes']} B) among {len(candidates)} live "
            f"candidate(s) -> move all of {inputs['machine']!r}'s state "
            f"there",
            outcome="chosen",
        ))
    return "drain", "drain", {"receiver": target["machine"]}, alts
