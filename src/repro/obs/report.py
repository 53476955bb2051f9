"""Per-run report generator: turn a run file into an explained story.

``python -m repro.obs report run.jsonl`` renders the self-contained run
file written by :func:`repro.obs.ledger.write_run_jsonl` — run metadata,
every decision-ledger entry and every sampled time series — into a
markdown (or, with ``--html``, HTML) report showing

* the throughput timeline and each machine's memory timeline, annotated
  with the adaptation decisions that shaped them, and
* a chronological decision log where every entry carries a plain-English
  *why* line derived from its recorded rule inputs (numbers substituted
  into the predicate that fired), and
* for runs that tracked latency (``--latency``), the per-cause latency
  breakdown rebuilt from the run file's sketch histograms, a "why was
  p99 high" narrative naming the dominant adaptation cause, and the
  final SLO status per monitored query.

``--diff other.jsonl`` compares two runs side by side — same workload
under two strategies, or a before/after of a tuning change.

Everything here is pure string formatting over simulator-clock data, so
same-seed runs render byte-identical reports (an acceptance criterion
tested in ``tests/test_obs_report.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.obs.sketch import LatencySketch

__all__ = [
    "RunData",
    "load_run",
    "render_diff",
    "render_html",
    "render_markdown",
    "why",
]

#: glyph column rendered under a timeline, one per decision action
_MARKS = {
    "relocate": "R",
    "forced_spill": "F",
    "spill": "S",
    "split": "P",
    "merge": "M",
    "join": "J",
    "drain": "D",
    "alert": "!",
    "budget_exhausted": "!",
}

#: run-file histogram family holding the per-cause latency sketches
_LATENCY_HIST = "repro_latency_seconds"

#: cause order mirrored from :mod:`repro.obs.slo` (report has no live hub)
_ADAPT_CAUSES = ("spilled", "relocating", "recovering", "repartitioning")
_CAUSE_ORDER = ("e2e", "processing", "queueing") + _ADAPT_CAUSES

_BLOCKS = " ▁▂▃▄▅▆▇█"
_CHART_WIDTH = 64


@dataclass
class RunData:
    """One parsed run file."""

    meta: dict[str, Any] = field(default_factory=dict)
    decisions: list[dict[str, Any]] = field(default_factory=list)
    #: series name -> (times, values)
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    #: histogram rows: {"name", "labels", "buckets", "sum", "count"}
    hists: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        end = 0.0
        for times, _ in self.series.values():
            if times:
                end = max(end, times[-1])
        for d in self.decisions:
            end = max(end, float(d.get("ts", 0.0)))
        return end

    def machines(self) -> list[str]:
        return sorted(
            name.split(":", 1)[1]
            for name in self.series
            if name.startswith("memory:")
        )

    def output_series_names(self) -> list[str]:
        """Cumulative-output series, standalone (``outputs``) or
        namespaced per serving runtime (``q1:outputs``)."""
        return sorted(
            name for name in self.series
            if name == "outputs" or name.endswith(":outputs")
        )


def load_run(path) -> RunData:
    """Parse a run file written by :func:`~repro.obs.ledger.write_run_jsonl`.

    A line that is not JSON, or a record missing what its kind needs,
    raises ``ValueError``; a record of an unknown kind is skipped.
    """
    run = RunData()
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                _load_record(run, json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"line {number}: not a run record "
                                 f"({type(exc).__name__}: {exc})") from exc
    return run


def _load_record(run: RunData, record: Any) -> None:
    if not isinstance(record, dict):
        raise TypeError("not a JSON object")
    kind = record.pop("kind", None)
    if kind == "meta":
        run.meta = record
    elif kind == "decision":
        run.decisions.append(record["decision"])
    elif kind == "series":
        run.series[record["name"]] = (
            [float(t) for t in record["times"]],
            [float(v) for v in record["values"]],
        )
    elif kind == "hist":
        run.hists.append(record)


# ----------------------------------------------------------------------
# Plain-English "why" lines
# ----------------------------------------------------------------------
def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit, scale in (("GB", 1e9), ("MB", 1e6), ("KB", 1e3)):
        if abs(n) >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{int(n)} B"


def _fmt_num(x: float) -> str:
    x = float(x)
    if x == float("inf"):
        return "inf"
    if x == int(x):
        return str(int(x))
    return f"{x:.2f}"


def _gc_ratio(inputs: dict[str, Any]) -> str:
    reports = inputs.get("reports", [])
    if len(reports) < 2:
        return ""
    loads = [r["state_bytes"] for r in reports]
    lo, hi = min(loads), max(loads)
    ratio = lo / hi if hi > 0 else 0.0
    return (
        f"M_least/M_max = {_fmt_bytes(lo)}/{_fmt_bytes(hi)} = {ratio:.2f}"
    )


def _why_admission(action: str, rule: str, inputs: dict[str, Any]) -> str:
    query = inputs.get("query")
    tenant = inputs.get("tenant")
    demand = _fmt_bytes(inputs.get("memory_demand", 0))
    if action == "fold":
        return (
            f"folded query {query!r} (tenant {tenant!r}) onto shared group "
            f"{inputs.get('fold_group')!r}: identical fold signature, so its "
            f"{demand} demand is served from already-resident state"
        )
    if action == "reject" and rule == "tenant_budget":
        return (
            f"rejected query {query!r}: tenant {tenant!r} usage "
            f"{_fmt_bytes(inputs.get('tenant_usage', 0))} + demand {demand} "
            f"> budget {_fmt_bytes(inputs.get('tenant_budget', 0))}"
        )
    if action == "reject":
        return (
            f"rejected query {query!r} (tenant {tenant!r}): cluster used "
            f"{_fmt_bytes(inputs.get('cluster_used', 0))} + demand {demand} "
            f"> capacity {_fmt_bytes(inputs.get('cluster_capacity', 0))}"
        )
    return (
        f"admitted query {query!r} for tenant {tenant!r}: demand {demand} "
        f"fits the tenant budget "
        f"({_fmt_bytes(inputs.get('tenant_usage', 0))} of "
        f"{_fmt_bytes(inputs.get('tenant_budget', 0))} used) and cluster "
        f"capacity ({_fmt_bytes(inputs.get('cluster_used', 0))} of "
        f"{_fmt_bytes(inputs.get('cluster_capacity', 0))} used)"
    )


def _why_cluster_gc(inputs: dict[str, Any]) -> str:
    tenant = inputs.get("chosen_tenant")
    usage = next(
        (t for t in inputs.get("tenants", []) if t.get("name") == tenant),
        None,
    )
    over = (
        f" ({_fmt_bytes(usage['usage'])} used of "
        f"{_fmt_bytes(usage['budget'])} budget)"
        if usage is not None
        else ""
    )
    return (
        f"ordered {inputs.get('chosen_machine')} to spill "
        f"{_fmt_bytes(inputs.get('chosen_amount', 0))} because tenant "
        f"{tenant!r} is over budget{over} and that engine scored highest "
        f"among {len(inputs.get('victims', []))} cross-query candidates "
        f"(overuse-weighted state bytes per unit of productivity)"
    )


def _why_repartition(
    action: str, inputs: dict[str, Any], realized: dict[str, Any]
) -> str:
    machine = inputs.get("chosen_machine")
    parent = inputs.get("chosen_parent")
    children = inputs.get("chosen_children", [])
    report = next(
        (r for r in inputs.get("reports", []) if r.get("machine") == machine),
        {},
    )
    if action == "split":
        reports = inputs.get("reports", [])
        total_bytes = sum(r.get("state_bytes", 0) for r in reports)
        total_groups = sum(r.get("group_count", 0) for r in reports)
        avg = total_bytes / total_groups if total_groups else 0.0
        sentence = (
            f"split group {parent} on {machine} into "
            f"{tuple(children)} because it dominates the cluster: "
            f"{_fmt_bytes(report.get('max_group_bytes', 0))} > "
            f"split_skew_factor = "
            f"{_fmt_num(inputs.get('split_skew_factor', 0))} x average "
            f"group size {_fmt_bytes(avg)}"
        )
    else:
        small = dict(
            (pid, size) for pid, size in report.get("small_groups", [])
        )
        total = sum(small.get(c, 0) for c in children)
        sentence = (
            f"merged cold siblings {tuple(children)} on {machine} back into "
            f"group {parent}: together {_fmt_bytes(total)} <= "
            f"merge_max_bytes = {_fmt_bytes(inputs.get('merge_max_bytes', 0))}"
        )
    if realized.get("status") == "aborted":
        sentence += f"; aborted ({realized.get('reason', 'unknown')})"
    elif "bytes_rebuilt" in realized:
        sentence += (
            f"; rebuilt {_fmt_bytes(realized['bytes_rebuilt'])} in "
            f"{_fmt_num(realized.get('duration', 0))}s"
        )
    return sentence


def _why_membership(
    action: str, inputs: dict[str, Any], realized: dict[str, Any]
) -> str:
    machine = inputs.get("machine")
    if action == "join":
        sentence = (
            f"admitted {machine} into the cluster "
            f"(incarnation {inputs.get('incarnation', 0)}, now "
            f"{len(inputs.get('workers', []))} workers)"
        )
        if inputs.get("rebalance_on_join"):
            sentence += (
                "; relocation spacing reset so the next evaluation may "
                "target the empty joiner"
            )
        else:
            sentence += "; tau_m spacing unchanged (rebalance_on_join off)"
        return sentence
    # action == "drain"
    candidates = len(inputs.get("reports", []))
    sentence = (
        f"draining {machine}: chose {inputs.get('chosen_receiver')} as the "
        f"least-loaded receiver among {candidates} live candidate(s)"
    )
    if realized.get("status") == "aborted":
        sentence += f"; aborted ({realized.get('reason', 'unknown')})"
    elif realized.get("executed") is False:
        sentence += (
            f"; nothing moved ({realized.get('reason', 'unknown')}) — "
            f"retired immediately"
        )
    elif "bytes_moved" in realized:
        sentence += (
            f"; handed off {_fmt_bytes(realized['bytes_moved'])} in "
            f"{_fmt_num(realized.get('duration', 0))}s, then retired"
        )
    return sentence


def _why_slo(action: str, inputs: dict[str, Any]) -> str:
    query = inputs.get("query")
    tenant = inputs.get("tenant")
    target = float(inputs.get("target_p99", 0.0)) * 1000.0
    budget = inputs.get("error_budget", 0)
    burn = _fmt_num(inputs.get("burn_rate", 0))
    window = (
        f"{inputs.get('window_bad', 0)} of {inputs.get('window_total', 0)} "
        f"results in the burn window over the {target:.0f} ms target"
    )
    if action == "no_results":
        return (
            f"slo check for query {query!r} (tenant {tenant!r}): no results "
            f"emitted inside the burn window"
        )
    if action == "budget_exhausted":
        return (
            f"SLO breach for query {query!r} (tenant {tenant!r}): cumulative "
            f"bad {inputs.get('bad', 0)} >= error_budget "
            f"{_fmt_num(budget)} x total {inputs.get('total', 0)} "
            f"({target:.0f} ms p99 target) — error budget exhausted"
        )
    if action == "alert":
        return (
            f"SLO burn alert for query {query!r} (tenant {tenant!r}): "
            f"burn rate {burn} >= alert threshold "
            f"{_fmt_num(inputs.get('burn_alert', 0))} ({window})"
        )
    return (
        f"query {query!r} (tenant {tenant!r}) within budget: burn rate "
        f"{burn} < {_fmt_num(inputs.get('burn_alert', 0))} ({window})"
    )


def why(decision: dict[str, Any]) -> str:
    """One plain-English sentence explaining a ledger entry's decision,
    with the recorded numbers substituted into the rule that fired."""
    inputs = decision.get("inputs", {})
    action = decision.get("action")
    rule = decision.get("rule", "")
    realized = decision.get("realized", {})
    kind = decision.get("kind")

    if kind == "admission":
        return _why_admission(action, rule, inputs)
    if kind == "slo_check":
        return _why_slo(action, inputs)
    if kind == "cluster_gc" and action == "forced_spill":
        return _why_cluster_gc(inputs)
    if kind == "repartition" and action in ("split", "merge"):
        return _why_repartition(action, inputs, realized)
    if kind == "membership":
        return _why_membership(action, inputs, realized)

    if action == "relocate":
        elapsed = float(inputs.get("now", 0)) - float(
            inputs.get("last_relocation_time", 0)
        )
        spacing = (
            "no relocation had run yet"
            if elapsed == float("inf")
            else f"{_fmt_num(elapsed)}s since the last relocation"
        )
        sentence = (
            f"relocated {_fmt_bytes(inputs.get('chosen_amount', 0))} from "
            f"{inputs.get('chosen_sender')} to {inputs.get('chosen_receiver')} "
            f"because {_gc_ratio(inputs)} < "
            f"theta_r = {_fmt_num(inputs.get('theta_r', 0))} and "
            f"{spacing} (tau_m = {_fmt_num(inputs.get('tau_m', 0))}s)"
        )
        if realized.get("status") == "aborted":
            sentence += f"; aborted ({realized.get('reason', 'unknown')})"
        return sentence
    if action == "forced_spill":
        return (
            f"ordered {inputs.get('chosen_machine')} to spill "
            f"{_fmt_bytes(inputs.get('chosen_amount', 0))} because the "
            f"productivity imbalance R_max/R_min = "
            f"{_fmt_num(inputs.get('chosen_ratio', 0))} > "
            f"lambda = {_fmt_num(inputs.get('lambda_productivity', 0))} "
            f"within the forced-spill budget "
            f"({_fmt_bytes(inputs.get('forced_spill_bytes_used', 0))} of "
            f"{_fmt_bytes(inputs.get('forced_spill_cap', 0))} used)"
        )
    if action == "spill":
        sentence = (
            f"spilled because resident state "
            f"{_fmt_bytes(inputs.get('state_bytes', 0))} > "
            f"threshold = {_fmt_bytes(inputs.get('memory_threshold', 0))}"
        )
        if inputs.get("forced"):
            sentence = (
                f"executed a coordinator-forced spill of "
                f"{_fmt_bytes(inputs.get('requested_amount', 0))}"
            )
        if realized.get("executed") is False:
            sentence += f"; nothing happened ({realized.get('reason', 'unknown')})"
        elif "bytes_spilled" in realized:
            sentence += (
                f"; moved {_fmt_bytes(realized['bytes_spilled'])} to disk in "
                f"{_fmt_num(realized.get('duration', 0))}s"
            )
        return sentence
    # action == "none"
    if rule == "deferred":
        return f"did nothing: deferred ({inputs.get('reason', 'unknown')})"
    if rule == "busy":
        return (
            f"did nothing: the engine was mid-adaptation "
            f"(mode {inputs.get('mode', '?')!r})"
        )
    if rule == "under_threshold":
        return (
            f"did nothing: resident state {_fmt_bytes(inputs.get('state_bytes', 0))} "
            f"<= threshold = {_fmt_bytes(inputs.get('memory_threshold', 0))}"
        )
    # GC idle tick: surface the nearest-miss rejection predicate
    alternatives = decision.get("alternatives", [])
    if alternatives:
        last = alternatives[-1]
        return f"did nothing: {last.get('predicate', 'no rule fired')}"
    return "did nothing: no rule fired"


def _decision_site(decision: dict[str, Any]) -> str:
    if decision.get("kind") == "membership":
        return str(decision["inputs"].get("machine", ""))
    if decision.get("kind") in ("gc_tick", "cluster_gc", "repartition"):
        if decision.get("action") == "relocate":
            return str(decision["inputs"].get("chosen_sender", ""))
        if decision.get("action") in ("forced_spill", "split", "merge"):
            return str(decision["inputs"].get("chosen_machine", ""))
        return ""
    return str(decision.get("site", ""))


def _headline(decision: dict[str, Any]) -> str:
    return (
        f"t={float(decision.get('ts', 0)):.1f}s  #{decision.get('id')} "
        f"[{decision.get('site')}/{decision.get('kind')}] "
        f"{decision.get('action')}: {why(decision)}"
    )


# ----------------------------------------------------------------------
# ASCII timelines
# ----------------------------------------------------------------------
def _chart(
    times: list[float],
    values: list[float],
    *,
    duration: float,
    width: int = _CHART_WIDTH,
) -> str:
    """Render a series as one row of block glyphs, bucketed to ``width``
    columns over ``[0, duration]``; each column shows its bucket maximum."""
    if not times or duration <= 0:
        return " " * width
    buckets = [float("-inf")] * width
    for t, v in zip(times, values):
        col = min(int(t / duration * width), width - 1)
        buckets[col] = max(buckets[col], v)
    # forward-fill empty buckets so sparse sampling still reads as a line
    last = values[0]
    filled = []
    for b in buckets:
        if b == float("-inf"):
            b = last
        last = b
        filled.append(b)
    top = max(filled)
    if top <= 0:
        return _BLOCKS[0] * width
    return "".join(
        _BLOCKS[min(int(v / top * (len(_BLOCKS) - 1)), len(_BLOCKS) - 1)]
        for v in filled
    )


def _marker_row(
    decisions: list[dict[str, Any]],
    *,
    duration: float,
    width: int = _CHART_WIDTH,
) -> str:
    """One row of R/F/S marks aligned under a chart's time axis."""
    row = [" "] * width
    if duration <= 0:
        return "".join(row)
    for d in decisions:
        mark = _MARKS.get(d.get("action", ""))
        if mark is None:
            continue
        col = min(int(float(d.get("ts", 0)) / duration * width), width - 1)
        row[col] = "*" if row[col] not in (" ", mark) else mark
    return "".join(row)


def _axis(duration: float, width: int = _CHART_WIDTH) -> str:
    left = "0s"
    right = f"{duration:.0f}s"
    pad = max(width - len(left) - len(right), 1)
    return left + " " * pad + right


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
def _summarize(run: RunData) -> dict[str, Any]:
    counts: dict[str, int] = {}
    bytes_spilled = 0
    bytes_relocated = 0
    for d in run.decisions:
        key = f"{d.get('kind')}/{d.get('action')}"
        counts[key] = counts.get(key, 0) + 1
        realized = d.get("realized", {})
        bytes_spilled += int(realized.get("bytes_spilled", 0))
        if d.get("action") == "relocate" and realized.get("status") == "done":
            bytes_relocated += int(realized.get("bytes_moved", 0))
    outputs = 0
    for name in run.output_series_names():
        values = run.series[name][1]
        if values:
            outputs += int(values[-1])
    return {
        "outputs": outputs,
        "decision_counts": dict(sorted(counts.items())),
        "bytes_spilled": bytes_spilled,
        "bytes_relocated": bytes_relocated,
        "decisions": len(run.decisions),
    }


def _acted(decisions: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return [d for d in decisions if d.get("action") != "none"]


# ----------------------------------------------------------------------
# Latency attribution (rebuilt from the run file's sketch histograms)
# ----------------------------------------------------------------------
def _latency_sketches(
    run: RunData,
) -> dict[tuple[str, str], dict[str, LatencySketch]]:
    """Per-(query, tenant) per-cause sketches, rebuilt losslessly from the
    ``repro_latency_seconds`` histogram rows (bucket counts are the
    sketch's native representation, so quantiles here equal the live
    hub's)."""
    groups: dict[tuple[str, str], dict[str, LatencySketch]] = {}
    for hist in run.hists:
        if hist.get("name") != _LATENCY_HIST:
            continue
        labels = hist.get("labels", {})
        counts = [
            int(n)
            for _, n in sorted(
                hist.get("buckets", {}).items(), key=lambda kv: float(kv[0])
            )
        ]
        key = (labels.get("query", ""), labels.get("tenant", ""))
        groups.setdefault(key, {})[labels.get("cause", "")] = (
            LatencySketch.from_bucket_counts(counts)
        )
    return groups


def _why_p99(causes: dict[str, LatencySketch]) -> list[str]:
    """The "why was p99 high" narrative for one query's cause breakdown:
    name the adaptation cause carrying the most latency mass, or call the
    latency steady-state when no adaptation contributed."""
    e2e = causes.get("e2e")
    if e2e is None or e2e.count == 0:
        return []
    mass = {
        cause: causes[cause].sum()
        for cause in _CAUSE_ORDER[1:]
        if cause in causes
    }
    total = sum(mass.values())
    head = (
        f"Why was p99 high? e2e p99 = {e2e.quantile(0.99):.4f}s over "
        f"{e2e.count:,} results."
    )
    if total <= 0:
        return [head, "No latency mass recorded beyond the e2e sketch."]
    dominant = max(mass, key=lambda c: mass[c])
    adapt = {c: m for c, m in mass.items() if c in _ADAPT_CAUSES and m > 0}
    if dominant in _ADAPT_CAUSES:
        sketch = causes[dominant]
        detail = (
            f"Dominant cause: `{dominant}` — {mass[dominant] / total:.0%} "
            f"of the total latency mass (cause p99 "
            f"{sketch.quantile(0.99):.4f}s): the tail is adaptation-made."
        )
    else:
        detail = (
            f"Dominant cause: `{dominant}` — {mass[dominant] / total:.0%} "
            f"of the total latency mass (cause p99 "
            f"{causes[dominant].quantile(0.99):.4f}s)."
        )
        if adapt:
            worst = max(adapt, key=lambda c: adapt[c])
            detail += (
                f" Largest adaptation contributor: `{worst}` "
                f"({adapt[worst] / total:.0%}, cause p99 "
                f"{causes[worst].quantile(0.99):.4f}s)."
            )
        else:
            detail += " No adaptation latency was recorded."
    return [head, detail]


def _slo_decision_lines(run: RunData) -> list[str]:
    """One line per SLO-monitored query: final recorded status + alert
    tally, derived purely from the replayable ``slo_check`` entries."""
    last: dict[tuple[str, str], dict[str, Any]] = {}
    alerts: dict[tuple[str, str], int] = {}
    for d in run.decisions:
        if d.get("kind") != "slo_check":
            continue
        inputs = d.get("inputs", {})
        key = (str(inputs.get("query", "")), str(inputs.get("tenant", "")))
        last[key] = d
        if d.get("action") in ("alert", "budget_exhausted"):
            alerts[key] = alerts.get(key, 0) + 1
    lines = []
    for key in sorted(last):
        d = last[key]
        inputs = d.get("inputs", {})
        status = {
            "alert": "breaching",
            "budget_exhausted": "breaching",
            "within_budget": "meeting",
            "no_results": "no results",
        }.get(d.get("action", ""), d.get("action", "?"))
        lines.append(
            f"- SLO `{key[0]}` (tenant `{key[1] or 'default'}`): "
            f"p99 target {float(inputs.get('target_p99', 0)) * 1000:.0f} ms, "
            f"final status **{status}**, {alerts.get(key, 0)} alert(s) fired."
        )
    return lines


def _latency_section(run: RunData) -> list[str]:
    """The ``## Latency`` markdown block (empty when the run had latency
    tracking disabled — disabled runs stay byte-identical to pre-SLO
    reports)."""
    groups = _latency_sketches(run)
    if not groups:
        return []
    lines = ["## Latency", ""]
    lines.append(
        "End-to-end result latency decomposed by cause (sketches are "
        "quarter-octave log histograms, so every statistic is accurate "
        "to bucket tolerance; per-cause counts sum to the e2e count)."
    )
    lines.append("")
    for (query, tenant), causes in sorted(groups.items()):
        if len(groups) > 1 or query or tenant:
            lines.append(
                f"### query `{query or '-'}` / tenant `{tenant or 'default'}`"
            )
            lines.append("")
        lines.append("| cause | count | p50 | p99 | mean |")
        lines.append("| --- | --- | --- | --- | --- |")
        for cause in _CAUSE_ORDER:
            sketch = causes.get(cause)
            if sketch is None:
                continue
            lines.append(
                f"| {cause} | {sketch.count:,} "
                f"| {sketch.quantile(0.5):.4f}s "
                f"| {sketch.quantile(0.99):.4f}s "
                f"| {sketch.mean():.4f}s |"
            )
        lines.append("")
        story = _why_p99(causes)
        if story:
            lines.extend(story)
            lines.append("")
    slo_lines = _slo_decision_lines(run)
    if slo_lines:
        lines.extend(slo_lines)
        lines.append("")
    return lines


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def render_markdown(run: RunData, *, max_log: int | None = None) -> str:
    """Render one run as a markdown report."""
    duration = run.duration
    summary = _summarize(run)
    lines: list[str] = ["# Run report", ""]

    tenants = run.meta.get("tenants") or []
    meta = {k: v for k, v in run.meta.items() if k != "tenants"}
    if meta:
        lines.append("## Run")
        lines.append("")
        lines.append("| key | value |")
        lines.append("| --- | --- |")
        for key in sorted(meta):
            lines.append(f"| {key} | {meta[key]} |")
        lines.append("")

    if tenants:
        lines.append("## Tenants")
        lines.append("")
        lines.append("| tenant | budget | admitted demand | live state |")
        lines.append("| --- | --- | --- | --- |")
        for t in tenants:
            lines.append(
                f"| {t.get('name')} "
                f"| {_fmt_bytes(t.get('budget', 0))} "
                f"| {_fmt_bytes(t.get('admitted', 0))} "
                f"| {_fmt_bytes(t.get('state_bytes', 0))} |"
            )
        lines.append("")

    lines.append("## Summary")
    lines.append("")
    lines.append("| metric | value |")
    lines.append("| --- | --- |")
    lines.append(f"| outputs | {summary['outputs']} |")
    lines.append(f"| decisions recorded | {summary['decisions']} |")
    for key, count in summary["decision_counts"].items():
        lines.append(f"| {key} | {count} |")
    lines.append(f"| bytes spilled | {_fmt_bytes(summary['bytes_spilled'])} |")
    lines.append(f"| bytes relocated | {_fmt_bytes(summary['bytes_relocated'])} |")
    lines.append("")

    acted = _acted(run.decisions)
    output_names = run.output_series_names()
    if output_names:
        lines.append("## Throughput (cumulative outputs)")
        lines.append("")
        for name in output_names:
            times, values = run.series[name]
            if len(output_names) > 1:
                lines.append(f"### {name}")
                lines.append("")
            lines.append("```")
            lines.append(_chart(times, values, duration=duration))
            lines.append(_marker_row(acted, duration=duration))
            lines.append(_axis(duration))
            lines.append("```")
            lines.append("")
        lines.append(
            "Markers: `R` relocation, `S` spill, `F` forced spill, "
            "`P` partition split, `M` partition merge, `!` SLO alert, "
            "`*` several decisions in one column."
        )
        lines.append("")

    machines = run.machines()
    if machines:
        lines.append("## Per-machine memory")
        lines.append("")
        for machine in machines:
            times, values = run.series[f"memory:{machine}"]
            peak = max(values) if values else 0
            mine = [d for d in acted if _decision_site(d) == machine]
            lines.append(f"### {machine} (peak {_fmt_bytes(peak)})")
            lines.append("")
            lines.append("```")
            lines.append(_chart(times, values, duration=duration))
            lines.append(_marker_row(mine, duration=duration))
            lines.append(_axis(duration))
            lines.append("```")
            lines.append("")
            for d in mine:
                lines.append(f"- {_headline(d)}")
            if mine:
                lines.append("")

    lines.extend(_latency_section(run))

    batch_hists = [h for h in run.hists if h.get("name") != _LATENCY_HIST]
    if batch_hists:
        lines.append("## Batch efficiency")
        lines.append("")
        lines.append(
            "Per-batch distributions recorded by the engines (bucket "
            "upper edges; counts are per bucket)."
        )
        lines.append("")
        for hist in batch_hists:
            labels = hist.get("labels", {})
            label = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
            title = hist["name"] + (f" ({label})" if label else "")
            count = int(hist.get("count", 0))
            mean = (float(hist.get("sum", 0.0)) / count) if count else 0.0
            lines.append(f"### {title}")
            lines.append("")
            lines.append(
                f"{count} observations, mean {_fmt_num(mean)}"
            )
            lines.append("")
            buckets = hist.get("buckets", {})
            peak = max([int(c) for c in buckets.values()] or [0])
            lines.append("| ≤ bucket | count | |")
            lines.append("| --- | --- | --- |")
            # JSON serialisation sorts keys lexically; restore numeric
            # edge order (with +Inf last)
            for edge, n in sorted(buckets.items(), key=lambda kv: float(kv[0])):
                n = int(n)
                bar = ""
                if peak:
                    bar = _BLOCKS[-1] * round(n / peak * 16)
                lines.append(f"| {edge} | {n} | {bar} |")
            lines.append("")

    lines.append("## Decision log")
    lines.append("")
    log = run.decisions if max_log is None else run.decisions[:max_log]
    for d in log:
        lines.append(f"- {_headline(d)}")
        for victim in d.get("victims", []):
            lines.append(
                f"  - victim partition {victim.get('pid')}: "
                f"{_fmt_bytes(victim.get('bytes', 0))}, "
                f"productivity {_fmt_num(victim.get('score', 0))}"
            )
    if max_log is not None and len(run.decisions) > max_log:
        lines.append(f"- ... {len(run.decisions) - max_log} more entries")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
def _svg_series(
    times: list[float],
    values: list[float],
    decisions: list[dict[str, Any]],
    *,
    duration: float,
    w: int = 640,
    h: int = 120,
) -> str:
    """Inline SVG polyline with decision markers (no dependencies)."""
    if not times or duration <= 0:
        return f'<svg width="{w}" height="{h}"></svg>'
    top = max(max(values), 1)
    pts = " ".join(
        f"{t / duration * w:.1f},{h - v / top * (h - 10):.1f}"
        for t, v in zip(times, values)
    )
    marks = []
    for d in decisions:
        mark = _MARKS.get(d.get("action", ""))
        if mark is None:
            continue
        x = float(d.get("ts", 0)) / duration * w
        color = {
            "R": "#c0392b", "S": "#2980b9", "F": "#8e44ad",
            "P": "#27ae60", "M": "#d35400", "!": "#e74c3c",
        }.get(mark, "#7f8c8d")
        marks.append(
            f'<line x1="{x:.1f}" y1="0" x2="{x:.1f}" y2="{h}" '
            f'stroke="{color}" stroke-dasharray="2,2">'
            f"<title>{_esc(_headline(d))}</title></line>"
        )
    return (
        f'<svg width="{w}" height="{h}" style="background:#f8f8f8">'
        f'<polyline fill="none" stroke="#2c3e50" stroke-width="1.5" '
        f'points="{pts}"/>' + "".join(marks) + "</svg>"
    )


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_html(run: RunData) -> str:
    """Render one run as a standalone HTML page with inline SVG charts."""
    duration = run.duration
    summary = _summarize(run)
    acted = _acted(run.decisions)
    parts = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8"><title>Run report</title>',
        "<style>body{font-family:sans-serif;max-width:720px;margin:2em auto}"
        "table{border-collapse:collapse}td,th{border:1px solid #ccc;"
        "padding:2px 8px;text-align:left}li{margin:4px 0}</style>",
        "</head><body>",
        "<h1>Run report</h1>",
    ]
    tenants = run.meta.get("tenants") or []
    meta = {k: v for k, v in run.meta.items() if k != "tenants"}
    if meta:
        parts.append("<h2>Run</h2><table>")
        for key in sorted(meta):
            parts.append(
                f"<tr><th>{_esc(key)}</th><td>{_esc(meta[key])}</td></tr>"
            )
        parts.append("</table>")
    if tenants:
        parts.append(
            "<h2>Tenants</h2><table><tr><th>tenant</th><th>budget</th>"
            "<th>admitted demand</th><th>live state</th></tr>"
        )
        for t in tenants:
            parts.append(
                f"<tr><th>{_esc(t.get('name'))}</th>"
                f"<td>{_esc(_fmt_bytes(t.get('budget', 0)))}</td>"
                f"<td>{_esc(_fmt_bytes(t.get('admitted', 0)))}</td>"
                f"<td>{_esc(_fmt_bytes(t.get('state_bytes', 0)))}</td></tr>"
            )
        parts.append("</table>")
    parts.append("<h2>Summary</h2><table>")
    parts.append(f"<tr><th>outputs</th><td>{summary['outputs']}</td></tr>")
    parts.append(
        f"<tr><th>decisions recorded</th><td>{summary['decisions']}</td></tr>"
    )
    for key, count in summary["decision_counts"].items():
        parts.append(f"<tr><th>{_esc(key)}</th><td>{count}</td></tr>")
    parts.append(
        f"<tr><th>bytes spilled</th>"
        f"<td>{_esc(_fmt_bytes(summary['bytes_spilled']))}</td></tr>"
    )
    parts.append(
        f"<tr><th>bytes relocated</th>"
        f"<td>{_esc(_fmt_bytes(summary['bytes_relocated']))}</td></tr>"
    )
    parts.append("</table>")
    output_names = run.output_series_names()
    if output_names:
        parts.append("<h2>Throughput (cumulative outputs)</h2>")
        for name in output_names:
            times, values = run.series[name]
            if len(output_names) > 1:
                parts.append(f"<h3>{_esc(name)}</h3>")
            parts.append(_svg_series(times, values, acted, duration=duration))
    for machine in run.machines():
        times, values = run.series[f"memory:{machine}"]
        mine = [d for d in acted if _decision_site(d) == machine]
        peak = max(values) if values else 0
        parts.append(f"<h2>{_esc(machine)} memory (peak {_fmt_bytes(peak)})</h2>")
        parts.append(_svg_series(times, values, mine, duration=duration))
    parts.append("<h2>Decision log</h2><ul>")
    for d in run.decisions:
        parts.append(f"<li>{_esc(_headline(d))}</li>")
    parts.append("</ul></body></html>")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def _latency_diff_section(a: RunData, b: RunData, label_a: str,
                          label_b: str) -> list[str]:
    """Per-cause p99 comparison naming the adaptation cause whose tail
    grew the most — how "the adaptation that broke p99" is found."""
    la, lb = _latency_sketches(a), _latency_sketches(b)
    keys = sorted(set(la) | set(lb))
    if not keys:
        return []
    lines = ["## Latency (per-cause p99)", ""]
    for key in keys:
        ca, cb = la.get(key, {}), lb.get(key, {})
        if len(keys) > 1 or any(key):
            lines.append(
                f"### query `{key[0] or '-'}` / tenant `{key[1] or 'default'}`"
            )
            lines.append("")
        lines.append(f"| cause | {label_a} | {label_b} | delta |")
        lines.append("| --- | --- | --- | --- |")
        worst: tuple[str | None, float] = (None, 0.0)
        for cause in _CAUSE_ORDER:
            sa, sb = ca.get(cause), cb.get(cause)
            if sa is None and sb is None:
                continue
            pa = sa.quantile(0.99) if sa is not None else 0.0
            pb = sb.quantile(0.99) if sb is not None else 0.0
            delta = pb - pa
            sign = "+" if delta >= 0 else ""
            lines.append(
                f"| {cause} | {pa:.4f}s | {pb:.4f}s | {sign}{delta:.4f}s |"
            )
            if cause in _ADAPT_CAUSES and delta > worst[1]:
                worst = (cause, delta)
        lines.append("")
        if worst[0] is not None:
            lines.append(
                f"Largest adaptation regression: `{worst[0]}` "
                f"(+{worst[1]:.4f}s p99 from {label_a} to {label_b}) — "
                f"the adaptation that moved the tail."
            )
            lines.append("")
    return lines


def render_diff(a: RunData, b: RunData, *, label_a: str = "A",
                label_b: str = "B") -> str:
    """Compare two runs side by side (markdown)."""
    sa, sb = _summarize(a), _summarize(b)
    lines = [f"# Run diff: {label_a} vs {label_b}", ""]

    meta_keys = sorted((set(a.meta) | set(b.meta)) - {"tenants"})
    if meta_keys:
        lines.append("## Run")
        lines.append("")
        lines.append(f"| key | {label_a} | {label_b} |")
        lines.append("| --- | --- | --- |")
        for key in meta_keys:
            va, vb = a.meta.get(key, "-"), b.meta.get(key, "-")
            flag = "" if va == vb else " **≠**"
            lines.append(f"| {key} | {va} | {vb}{flag} |")
        lines.append("")

    lines.append("## Summary")
    lines.append("")
    lines.append(f"| metric | {label_a} | {label_b} | delta |")
    lines.append("| --- | --- | --- | --- |")

    def _row(name: str, va: float, vb: float, fmt=lambda x: str(int(x))):
        delta = vb - va
        sign = "+" if delta >= 0 else ""
        lines.append(
            f"| {name} | {fmt(va)} | {fmt(vb)} | {sign}{fmt(delta)} |"
        )

    _row("outputs", sa["outputs"], sb["outputs"])
    _row("decisions recorded", sa["decisions"], sb["decisions"])
    for key in sorted(set(sa["decision_counts"]) | set(sb["decision_counts"])):
        _row(
            key,
            sa["decision_counts"].get(key, 0),
            sb["decision_counts"].get(key, 0),
        )
    _row("bytes spilled", sa["bytes_spilled"], sb["bytes_spilled"], _fmt_bytes)
    _row("bytes relocated", sa["bytes_relocated"], sb["bytes_relocated"],
         _fmt_bytes)
    lines.append("")

    lines.extend(_latency_diff_section(a, b, label_a, label_b))

    machines = sorted(set(a.machines()) | set(b.machines()))
    if machines:
        lines.append("## Peak memory per machine")
        lines.append("")
        lines.append(f"| machine | {label_a} | {label_b} |")
        lines.append("| --- | --- | --- |")
        for machine in machines:
            pa = max(a.series.get(f"memory:{machine}", ([], [0]))[1] or [0])
            pb = max(b.series.get(f"memory:{machine}", ([], [0]))[1] or [0])
            lines.append(
                f"| {machine} | {_fmt_bytes(pa)} | {_fmt_bytes(pb)} |"
            )
        lines.append("")

    duration = max(a.duration, b.duration)
    for label, run in ((label_a, a), (label_b, b)):
        if "outputs" not in run.series:
            continue
        times, values = run.series["outputs"]
        lines.append(f"## Throughput — {label}")
        lines.append("")
        lines.append("```")
        lines.append(_chart(times, values, duration=duration))
        lines.append(_marker_row(_acted(run.decisions), duration=duration))
        lines.append(_axis(duration))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
