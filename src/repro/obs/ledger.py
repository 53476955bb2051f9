"""Adaptation decision ledger: *why* the run-time adaptation did what it did.

PR 3's tracer records *what happened* (spans around every spill and
relocation).  The ledger records *why*: every GC decision tick and every
local-controller overflow check appends one structured entry carrying

* the full rule inputs at decision time — per-machine memory, the
  ``M_least/M_max`` ratio vs ``θ_r``, time since the last relocation vs
  ``τ_m``, the machine productivity rates ``R`` vs ``λ``, the forced-spill
  byte budget (``M_query − M_cluster``);
* the rule that fired and the **alternatives considered**, each with the
  concrete predicate (numbers substituted in) that rejected it;
* the chosen victim partition groups with their productivity scores at
  selection time (added by :meth:`DecisionLedger.annotate` once the
  sender's local controller picks them);
* the realized cost — bytes moved/spilled, pause duration, cleanup debt
  delta (added by :meth:`DecisionLedger.realize` when the action lands);
* the PR 3 ``trace_span`` id of the resulting spill/relocation span, so
  the two records cross-link.

The recorded inputs are complete enough to **re-evaluate the decision
offline**: every rule cascade is a pure function of exactly these inputs
(:mod:`repro.core.policy`), so :func:`replay_decision` calls the function
the live site called and must reproduce the recorded action, rule and
chosen parameters; :func:`check_ledger_trace` asserts the span↔entry
mapping is bijective — every spill/relocation span is justified by
exactly one executed ledger entry and vice versa.

Like the tracer, the ledger follows the zero-overhead-when-disabled
pattern: every producer holds :data:`NULL_LEDGER` unless a run opts in,
and guards all record-assembly work behind ``ledger.enabled``.  Recording
consumes no simulated time.
"""

from __future__ import annotations

import importlib
import json
from typing import Any, Callable, Iterable

from repro.obs.invariants import Violation
from repro.obs.trace import PHASE_BEGIN, PHASE_INSTANT, TraceEvent, _json_safe

__all__ = [
    "DecisionLedger",
    "NULL_LEDGER",
    "NullLedger",
    "check_ledger_trace",
    "load_jsonl",
    "replay_decision",
    "write_run_jsonl",
]

#: ledger entry kinds
KIND_GC_TICK = "gc_tick"
KIND_OVERFLOW_CHECK = "overflow_check"
KIND_CLUSTER_GC = "cluster_gc"
KIND_ADMISSION = "admission"
KIND_REPARTITION = "repartition"
KIND_MEMBERSHIP = "membership"
KIND_SLO = "slo_check"

#: actions (``none`` marks a tick that chose to do nothing)
ACTION_RELOCATE = "relocate"
ACTION_FORCED_SPILL = "forced_spill"
ACTION_SPILL = "spill"
ACTION_NONE = "none"
ACTION_SPLIT = "split"
ACTION_MERGE = "merge"
ACTION_DRAIN = "drain"

#: which trace-span name each executed action must be justified by.
#: Actions absent here (admission verdicts, idle ticks) never produce an
#: adaptation span and are exempt from the bijection.
_SPAN_NAME_FOR_ACTION = {
    ACTION_RELOCATE: "relocation",
    ACTION_FORCED_SPILL: "spill",
    ACTION_SPILL: "spill",
    ACTION_SPLIT: "repartition",
    ACTION_MERGE: "repartition",
    # a drain's state motion runs the standard relocation protocol, so an
    # executed drain decision is justified by a "relocation" span; drains
    # of an empty machine realize ``executed=False`` and are exempt
    ACTION_DRAIN: "relocation",
}


class NullLedger:
    """Shared no-op ledger; every producer site must guard record-assembly
    work behind ``ledger.enabled`` so disabled runs pay nothing."""

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def record(self, *args: Any, **kwargs: Any) -> int:
        return 0

    def annotate(self, entry_id: int, **fields: Any) -> None:
        pass

    def realize(self, entry_id: int, **realized: Any) -> None:
        pass


NULL_LEDGER = NullLedger()


class DecisionLedger:
    """Append-only structured log of adaptation decisions.

    Entries are plain dicts (JSON-ready) with this schema::

        {
          "id": 1,                    # 1-based, append order
          "ts": 12.5,                 # simulator time of the decision
          "site": "gc" | machine,     # who decided
          "kind": "gc_tick" | "overflow_check",
          "action": "relocate" | "forced_spill" | "spill" | "none",
          "rule": "theta_r",          # the predicate that fired (or "idle"/...)
          "inputs": {...},            # everything replay_decision needs
          "alternatives": [           # the rejected branches, with numbers
            {"action": "...", "outcome": "rejected",
             "predicate": "min/max = 0.91 >= theta_r = 0.80"},
            ...
          ],
          "trace_span": 7,            # PR 3 span id (0 = tracing disabled)
          "victims": [...],           # via annotate(): picked groups + scores
          "realized": {...},          # via realize(): bytes, durations, status
        }
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock
        self.entries: list[dict[str, Any]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def record(
        self,
        site: str,
        kind: str,
        action: str,
        rule: str,
        inputs: dict[str, Any],
        alternatives: list[dict[str, Any]] | None = None,
        *,
        trace_span: int = 0,
    ) -> int:
        """Append one decision entry; returns its id for later
        :meth:`annotate` / :meth:`realize` calls."""
        entry = {
            "id": len(self.entries) + 1,
            "ts": self.now,
            "site": site,
            "kind": kind,
            "action": action,
            "rule": rule,
            "inputs": _json_safe(inputs),
            "alternatives": _json_safe(alternatives or []),
            "trace_span": trace_span,
            "victims": [],
            "realized": {},
        }
        self.entries.append(entry)
        return entry["id"]

    def get(self, entry_id: int) -> dict[str, Any]:
        if not 1 <= entry_id <= len(self.entries):
            raise KeyError(f"no ledger entry {entry_id}")
        return self.entries[entry_id - 1]

    def annotate(self, entry_id: int, **fields: Any) -> None:
        """Attach follow-up facts to an entry (victim groups with their
        productivity scores, the trace span once it exists)."""
        if not entry_id:
            return
        entry = self.get(entry_id)
        for key, value in fields.items():
            entry[key] = _json_safe(value)

    def realize(self, entry_id: int, **realized: Any) -> None:
        """Merge realized-cost facts (bytes moved/spilled, pause duration,
        cleanup debt delta, final status) into an entry."""
        if not entry_id:
            return
        entry = self.get(entry_id)
        entry["realized"].update(_json_safe(realized))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in self.entries
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())


def load_jsonl(path) -> list[dict[str, Any]]:
    """Load ledger entries written by :meth:`DecisionLedger.write_jsonl`."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


# ----------------------------------------------------------------------
# Offline replay: the recorded inputs must reproduce the decision
# ----------------------------------------------------------------------
#: entry kind -> (module, function) of the pure rule cascade the live
#: decision site called.  Resolved on first use: the obs layer imports
#: nothing from ``repro.core`` at import time.
_POLICY = {
    KIND_GC_TICK: ("repro.core.policy", "decide_gc"),
    KIND_OVERFLOW_CHECK: ("repro.core.policy", "decide_overflow"),
    KIND_CLUSTER_GC: ("repro.core.policy", "decide_cluster_gc"),
    KIND_ADMISSION: ("repro.core.policy", "decide_admission"),
    KIND_REPARTITION: ("repro.core.policy", "decide_repartition"),
    KIND_MEMBERSHIP: ("repro.core.policy", "decide_membership"),
    KIND_SLO: ("repro.obs.slo", "_slo_cascade"),
}


def replay_decision(entry: dict[str, Any]) -> dict[str, Any]:
    """Re-evaluate a ledger entry's decision from its recorded inputs by
    calling the very function the live decision site called.

    Returns ``action`` and ``rule`` plus the choice parameters (machine(s),
    amount, pids) of an executed decision.  The acceptance criterion is
    that all of them equal what the entry recorded, for every entry of a
    run (:func:`verify_replay`).
    """
    try:
        module, name = _POLICY[entry["kind"]]
    except KeyError:
        raise ValueError(f"unknown ledger entry kind {entry['kind']!r}") from None
    decide = getattr(importlib.import_module(module), name)
    action, rule, choice, _ = decide(entry["inputs"])
    return {"action": action, "rule": rule, **choice}


def verify_replay(entries: Iterable[dict[str, Any]]) -> list[Violation]:
    """Replay every entry offline; report entries whose recorded inputs do
    not reproduce the recorded action, rule or chosen parameters."""
    violations = []

    def mismatch(entry, what, recorded, replayed):
        violations.append(
            Violation(
                check="ledger_replay",
                message=(
                    f"entry {entry['id']} recorded {what}{recorded!r} "
                    f"but inputs replay to {replayed!r}"
                ),
                seq=entry["id"],
            )
        )

    for entry in entries:
        replayed = replay_decision(entry)
        action = replayed.pop("action")
        if action != entry["action"]:
            mismatch(entry, "action ", entry["action"], action)
            continue
        rule = replayed.pop("rule")
        if rule != entry["rule"]:
            mismatch(entry, "rule=", entry["rule"], rule)
        for key, value in replayed.items():
            recorded = entry["inputs"].get(f"chosen_{key}")
            if recorded not in (None, value):
                mismatch(entry, f"{key}=", recorded, value)
    return violations


# ----------------------------------------------------------------------
# Ledger ↔ trace consistency (the InvariantChecker's new check)
# ----------------------------------------------------------------------
def _executed(entry: dict[str, Any]) -> bool:
    """Whether the entry's action actually produced a spill/relocation
    span.  Entries whose action never ran (engine busy, no victims —
    ``realized.executed == False``) are exempt from the bijection."""
    if entry["action"] == ACTION_NONE:
        return False
    return entry.get("realized", {}).get("executed", True) is not False


def check_ledger_trace(
    events: Iterable[TraceEvent],
    entries: Iterable[dict[str, Any]],
) -> list[Violation]:
    """Assert the span↔entry mapping is bijective: every ``spill`` /
    ``relocation`` / ``repartition`` trace span is justified by exactly
    one executed ledger entry, and every executed entry points at exactly
    one span of the right name.  SLO breaches are instant events rather
    than spans, so they get their own bijection: every ``slo.alert``
    trace event names exactly one breaching ``slo_check`` entry and vice
    versa (a dropped alert event or a forged alert entry both surface)."""
    violations = []
    entries = list(entries)
    spans: dict[int, TraceEvent] = {}
    alert_events: list[TraceEvent] = []
    for event in events:
        if event.phase == PHASE_BEGIN and event.name in (
            "spill", "relocation", "repartition",
        ):
            spans[event.span] = event
        elif event.phase == PHASE_INSTANT and event.name == "slo.alert":
            alert_events.append(event)
    violations.extend(_check_slo_alerts(alert_events, entries))
    claimed: dict[int, int] = {}  # span id -> entry id
    for entry in entries:
        if not _executed(entry):
            continue
        span_id = entry.get("trace_span", 0)
        expected_name = _SPAN_NAME_FOR_ACTION.get(entry["action"])
        if expected_name is None:
            continue  # admission verdicts etc. never open adaptation spans
        if not span_id:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"executed ledger entry {entry['id']} "
                        f"({entry['action']}) has no trace span"
                    ),
                    seq=entry["id"],
                )
            )
            continue
        if span_id not in spans:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"ledger entry {entry['id']} points at span "
                        f"{span_id}, which is not an adaptation span "
                        f"in the trace"
                    ),
                    seq=entry["id"],
                )
            )
            continue
        if spans[span_id].name != expected_name:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"ledger entry {entry['id']} ({entry['action']}) "
                        f"points at a {spans[span_id].name!r} span, expected "
                        f"{expected_name!r}"
                    ),
                    seq=entry["id"],
                )
            )
            continue
        if span_id in claimed:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"span {span_id} justified by both ledger entries "
                        f"{claimed[span_id]} and {entry['id']}"
                    ),
                    seq=entry["id"],
                )
            )
            continue
        claimed[span_id] = entry["id"]
    for span_id in sorted(set(spans) - set(claimed)):
        event = spans[span_id]
        violations.append(
            Violation(
                check="ledger_trace",
                message=(
                    f"{event.name} span {span_id} on {event.machine!r} has "
                    f"no justifying ledger entry"
                ),
                seq=event.seq,
            )
        )
    return violations


#: slo_check actions that must be mirrored by a ``slo.alert`` trace event
_SLO_ALERT_ACTIONS = ("alert", "budget_exhausted")


def _check_slo_alerts(
    alert_events: list[TraceEvent],
    entries: list[dict[str, Any]],
) -> list[Violation]:
    violations = []
    alert_entries = {
        entry["id"]: entry
        for entry in entries
        if entry["kind"] == KIND_SLO and entry["action"] in _SLO_ALERT_ACTIONS
    }
    claimed: set[int] = set()
    for event in alert_events:
        entry_id = event.get("entry")
        if not isinstance(entry_id, int) or entry_id not in alert_entries:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"slo.alert event for query "
                        f"{event.get('query')!r} names ledger entry "
                        f"{entry_id!r}, which is not a breaching slo_check "
                        f"entry"
                    ),
                    seq=event.seq,
                )
            )
        elif entry_id in claimed:
            violations.append(
                Violation(
                    check="ledger_trace",
                    message=(
                        f"slo_check entry {entry_id} claimed by more than "
                        f"one slo.alert event"
                    ),
                    seq=event.seq,
                )
            )
        else:
            claimed.add(entry_id)
    for entry_id in sorted(set(alert_entries) - claimed):
        entry = alert_entries[entry_id]
        violations.append(
            Violation(
                check="ledger_trace",
                message=(
                    f"breaching slo_check entry {entry_id} "
                    f"({entry['action']}) has no slo.alert trace event"
                ),
                seq=entry_id,
            )
        )
    return violations


# ----------------------------------------------------------------------
# Run files: what `python -m repro.obs report` consumes
# ----------------------------------------------------------------------
def write_run_jsonl(
    path,
    *,
    ledger: DecisionLedger | None = None,
    registry=None,
    meta: dict[str, Any] | None = None,
) -> None:
    """Write a self-contained run file: one ``meta`` record, every ledger
    ``decision``, every tracked-gauge ``series`` and every histogram
    (``hist`` records, per-batch efficiency distributions included) from
    the registry.

    All content is simulator-clock data serialised with sorted keys, so
    same-seed runs produce byte-identical files.
    """
    records: list[dict[str, Any]] = [{"kind": "meta", **_json_safe(meta or {})}]
    if ledger is not None:
        for entry in ledger.entries:
            # nested: the entry has its own "kind" (gc_tick/overflow_check)
            records.append({"kind": "decision", "decision": entry})
    if registry is not None:
        for name in registry.timeseries_names():
            series = registry.timeseries(name)
            records.append(
                {
                    "kind": "series",
                    "name": name,
                    "times": list(series.times),
                    "values": list(series.values),
                }
            )
        for row in registry.histogram_rows():
            records.append({"kind": "hist", **row})
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            handle.write("\n")
