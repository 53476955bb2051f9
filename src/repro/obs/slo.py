"""End-to-end latency attribution, event-time watermarks and SLO burn.

This module is the run-time half of ``repro.obs.slo``: the deterministic
sketches live in :mod:`repro.obs.sketch`, the offline checks in
:mod:`repro.obs.invariants` (check 11) and :mod:`repro.obs.ledger`
(``slo_check`` replay + alert bijection).  Everything here is driven by
the simulator clock and is **disabled by default**: a deployment without
a :class:`LatencyHub` on its :class:`~repro.obs.hub.ObsHub` pays a single
``is not None`` test per batch and produces byte-identical outputs,
traces and run files — the PR 3/5 zero-overhead contract.

Latency model
-------------
Every emitted join result carries its triggering (probing) tuple's ingest
timestamp ``ts``, so all results of one probing row share one latency
and are recorded as a single observation weighted by their count —
sketch records are integer adds, which makes that bit-identical to one
observation per result.  The engine's task model makes the decomposition
exact: a batch's processing task *begins* at ``t_run`` and *credits* its
results at ``credit = t_run + duration``; checkpointed engines hold the
results in the output buffer until the commit ``flush`` at ``emit``.
For a result ``r``::

    e2e(r)        = emit - ts(r)
    processing(r) = credit - t_run                 (exact, per batch)
    pre(r)        = t_run - ts(r)                  (waiting to be processed)
    hold(r)       = emit - credit                  (output-commit buffering)

The *pre + hold* budget is attributed to causes by intersecting it with
the engine's :class:`CauseClock` windows — opened and closed at the very
mode transitions the adaptation protocols already perform (``ss_mode``
spills ⇒ ``spilled``; ``sr_mode`` ⇒ ``relocating`` or
``repartitioning``; an active recovery session ⇒ ``recovering`` on every
monitored engine).  Whatever the windows don't explain is ``queueing``.
When concurrent windows overlap (a recovery racing a spill) their
intersections would double-count, so the attributed components are
scaled down to the budget — the decomposition always sums exactly to
``e2e`` per result, and to bucket tolerance after sketching.

Fold fan-out is deliberately *not* a cause: the
:class:`~repro.serving.folding.FanOutCollector` delivers synchronously
at credit/flush time and adds zero delay.

Watermarks
----------
Each engine tracks, per input stream, the largest event time it has
processed (arrival order is event-time order per source, so this is the
stream's low-watermark at that operator).  Watermarks are monotone at a
live engine — only a crash resets them, under a bumped incarnation,
which is exactly the exemption invariant check 11 grants.  The
:class:`SLOMonitor` flags a stalled cluster watermark and names the
blocking machine and stream.

SLO engine
----------
A query's :class:`SLOConfig` (target p99 + error budget) is evaluated by
an :class:`SLOMonitor` from the coordinator's own evaluation loop.  Each
tick records a replayable ``slo_check`` decision-ledger entry; the
cascade (no traffic → budget exhausted → burn-rate alert → within
budget) re-evaluates offline from the recorded inputs like every other
ledgered decision.  Breaching queries additionally emit ``slo.alert``
trace events (entry-linked, so the ledger ↔ trace bijection covers
them) and are shielded by the cluster GC: fairness-weighted spill
prefers victims of queries that are *meeting* their SLO.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Mapping

from repro.obs.sketch import BUCKET_BOUNDS, LatencySketch

__all__ = [
    "ADAPT_CAUSES",
    "CAUSES",
    "CauseClock",
    "EngineTracker",
    "LatencyHub",
    "SLOConfig",
    "SLOMonitor",
]

#: Adaptation causes with explicit clock windows.
ADAPT_CAUSES = ("spilled", "relocating", "recovering", "repartitioning")

#: Every component of the decomposition plus the end-to-end total.
CAUSES = ("e2e", "processing", "queueing") + ADAPT_CAUSES

#: Engine mode strings (mirrors repro.engine.query_engine; kept as
#: literals to avoid an obs -> engine import cycle).
_MODE_SS = "ss_mode"
_MODE_SR = "sr_mode"

#: Deferred hot-path entries (3 per batch) an engine tracker holds before
#: folding them into its sketches: bounds the list at a few KB.
_FOLD_AT = 3 * 256


@dataclass(frozen=True)
class SLOConfig:
    """One query's latency objective.

    ``target_p99`` is the end-to-end latency target in **seconds**;
    ``error_budget`` the fraction of results allowed to exceed it;
    ``window`` the burn-rate evaluation window; ``burn_alert`` the burn
    rate (window error rate / budget) at which an alert fires;
    ``stall_timeout`` how long a cluster watermark may stagnate before
    the stall detector flags it.
    """

    target_p99: float
    error_budget: float = 0.01
    window: float = 30.0
    burn_alert: float = 1.0
    stall_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.target_p99 <= 0:
            raise ValueError("target_p99 must be positive")
        if not 0.0 < self.error_budget < 1.0:
            raise ValueError("error_budget must be in (0, 1)")
        if self.window <= 0 or self.burn_alert <= 0 or self.stall_timeout <= 0:
            raise ValueError("window, burn_alert and stall_timeout must be positive")


class _Intervals:
    """Closed blocking intervals of one cause, with prefix sums for O(log n)
    overlap queries, plus at most one open interval."""

    __slots__ = ("starts", "ends", "prefix", "open_since")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.prefix: list[float] = []  # blocked time before interval i
        self.open_since: float | None = None

    def begin(self, now: float) -> None:
        if self.open_since is None:
            self.open_since = now

    def end(self, now: float) -> None:
        if self.open_since is None:
            return
        total = (
            self.prefix[-1] + (self.ends[-1] - self.starts[-1])
            if self.starts else 0.0
        )
        self.starts.append(self.open_since)
        self.ends.append(max(now, self.open_since))
        self.prefix.append(total)
        self.open_since = None

    def cum(self, t: float) -> float:
        """Total blocked time in (-inf, t]."""
        total = 0.0
        idx = bisect_right(self.starts, t) - 1
        if idx >= 0:
            total = self.prefix[idx] + max(
                0.0, min(t, self.ends[idx]) - self.starts[idx]
            )
        if self.open_since is not None and t > self.open_since:
            total += t - self.open_since
        return total

    def blocked(self, a: float, b: float) -> float:
        if b <= a or (not self.starts and self.open_since is None):
            return 0.0
        return self.cum(b) - self.cum(a)


class CauseClock:
    """Per-engine blocking windows, one interval list per adaptation cause."""

    __slots__ = ("_causes", "any_blocking")

    def __init__(self) -> None:
        self._causes: dict[str, _Intervals] = {c: _Intervals() for c in ADAPT_CAUSES}
        #: fast-path flag: False until the first window ever opens
        self.any_blocking = False

    def begin(self, cause: str, now: float) -> None:
        self._causes[cause].begin(now)
        self.any_blocking = True

    def end(self, cause: str, now: float) -> None:
        self._causes[cause].end(now)

    def blocked(self, cause: str, a: float, b: float) -> float:
        return self._causes[cause].blocked(a, b)

    def close_open(self, now: float) -> None:
        for intervals in self._causes.values():
            intervals.end(now)


class EngineTracker:
    """One engine's latency state: cause clock, sketches, watermarks."""

    __slots__ = (
        "hub", "machine", "labels", "clock", "_sketches", "watermarks",
        "_mode_cause", "_pending", "_cause_sketches", "_s_e2e",
        "_s_processing", "_s_queueing", "_zero_pad", "_fast",
    )

    def __init__(
        self,
        hub: "LatencyHub",
        machine: str,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        self.hub = hub
        self.machine = machine
        self.labels = dict(labels or {})
        self.clock = CauseClock()
        self._sketches: dict[str, LatencySketch] = {c: LatencySketch() for c in CAUSES}
        #: per-stream low-watermark: largest event time processed
        self.watermarks: dict[str, float] = {}
        self._mode_cause: str | None = None
        #: checkpointer-buffered result batches awaiting the output commit:
        #: (t_run, credit, results-or-None, count, ts_rep)
        self._pending: list[tuple] = []
        # hot-path aliases: _observe_one runs once per credited batch
        sketches = self._sketches
        self._cause_sketches = tuple(sketches[c] for c in ADAPT_CAUSES)
        self._s_e2e = sketches["e2e"]
        self._s_processing = sketches["processing"]
        self._s_queueing = sketches["queueing"]
        #: zero-weight owed to every cause sketch, flushed on read: the
        #: common no-adaptation batch then costs one integer add instead
        #: of four sketch records
        self._zero_pad = 0
        #: no-adaptation batches not yet in the sketches, folded on read
        #: (or every ``_FOLD_AT``): flat ``processing, budget, count``
        self._fast: list = []

    def _fold(self) -> None:
        """Record the deferred no-adaptation batches.  Sketch records are
        integer adds, so folding late changes nothing a reader sees."""
        fast, self._fast = self._fast, []
        s_e2e, s_proc, s_queue = self._s_e2e, self._s_processing, self._s_queueing
        e2e, proc, queue = s_e2e.counts, s_proc.counts, s_queue.counts
        it = iter(fast)
        total = 0
        for processing, budget, count in zip(it, it, it):
            total += count
            idx = bisect_right(BUCKET_BOUNDS, processing + budget) - 1
            e2e[idx] = e2e.get(idx, 0) + count
            idx = bisect_right(BUCKET_BOUNDS, processing) - 1
            proc[idx] = proc.get(idx, 0) + count
            idx = bisect_right(BUCKET_BOUNDS, budget) - 1
            queue[idx] = queue.get(idx, 0) + count
        s_e2e.count += total
        s_proc.count += total
        s_queue.count += total
        self._zero_pad += total

    @property
    def sketches(self) -> dict[str, LatencySketch]:
        """Per-cause sketches (folds the deferred batches and flushes the
        zero-weight pad, so external readers always see every credited
        batch, with cause counts equal to e2e counts)."""
        if self._fast:
            self._fold()
        if self._zero_pad:
            pad, self._zero_pad = self._zero_pad, 0
            for sketch in self._cause_sketches:
                sketch.record_zero(pad)
        return self._sketches

    # ------------------------------------------------------------------
    # Hot-path hooks (called by the engine)
    # ------------------------------------------------------------------
    def advance_watermarks(self, batch_max: Mapping[str, float]) -> float:
        """Merge one batch's per-stream max event times (max-merge, so a
        recovery replay of an old suffix can never regress a survivor's
        watermark); returns the batch's overall max event time."""
        wm = self.watermarks
        rep = -1.0
        for sid, ts in batch_max.items():
            if ts > wm.get(sid, -1.0):
                wm[sid] = ts
            if ts > rep:
                rep = ts
        return rep

    def advance_one(self, stream: str, ts: float) -> float:
        """Single-stream shortcut for :meth:`advance_watermarks` (sources
        batch per stream, so this is the per-batch common case)."""
        wm = self.watermarks
        if ts > wm.get(stream, -1.0):
            wm[stream] = ts
        return ts

    def on_mode(self, new_mode: str, repartition: bool, now: float) -> None:
        """Engine mode transition: open/close the matching cause window."""
        clock = self.clock
        if self._mode_cause is not None:
            clock.end(self._mode_cause, now)
            self._mode_cause = None
        if new_mode == _MODE_SS:
            cause = "spilled"
        elif new_mode == _MODE_SR:
            cause = "repartitioning" if repartition else "relocating"
        else:
            return
        clock.begin(cause, now)
        self._mode_cause = cause

    def observe(self, t_run: float, credit: float, emit: float, *,
                results=None, count: int = 0, ts_rep: float = 0.0) -> None:
        """Record one credited batch: per probing row when materialized —
        all results of one row share its event time, so each maximal run
        of equal ``ts`` is one weighted observation — and one weighted
        observation at the batch's max event time otherwise.

        ``results`` is a sequence of join results; a lazy
        :class:`~repro.engine.columns.ResultBatch` is read through its
        ``ts_counts()`` (one pair per probing row) and never boxed.  Row
        lists and lazy batches merge the same runs, so every data path
        makes the same observations."""
        if results:
            ts_counts = getattr(results, "ts_counts", None)
            pairs = (ts_counts() if ts_counts is not None
                     else ((r.ts, 1) for r in results))
            for ts, run in groupby(pairs, key=itemgetter(0)):
                self._observe_one(ts, t_run, credit, emit,
                                  sum(map(itemgetter(1), run)))
            return
        if count <= 0:
            return
        processing = credit - t_run
        pre = t_run - ts_rep
        if pre < 0.0:
            pre = 0.0
        budget = pre + (emit - credit)
        if self.clock.any_blocking and budget > 0.0:
            self._observe_one(ts_rep, t_run, credit, emit, count)
            return
        # Deferred LatencySketch.record x3 + cause zeros: this runs once
        # per credited batch and is the bulk of the enabled mode's cost,
        # gated <5% by ``benchmarks/bench_latency_overhead.py``.
        fast = self._fast
        fast += (processing, budget, count)
        if len(fast) >= _FOLD_AT:
            self._fold()

    def hold(self, t_run: float, credit: float, results, count: int,
             ts_rep: float) -> None:
        """Park a credited batch until the engine's output commit."""
        self._pending.append((t_run, credit, results, count, ts_rep))

    def flush_pending(self, now: float) -> None:
        """Output commit: buffered batches become externally visible."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for t_run, credit, results, count, ts_rep in pending:
            self.observe(t_run, credit, now, results=results, count=count,
                         ts_rep=ts_rep)

    def on_crash(self, now: float) -> None:
        """Crash epoch: buffered results are lost (recovery re-produces
        them), watermarks reset under the engine's bumped incarnation,
        open cause windows close at the crash instant (their history
        stays — replayed tuples legitimately overlap pre-crash windows)."""
        self._pending.clear()
        self.watermarks.clear()
        self.clock.close_open(now)
        self._mode_cause = None

    # ------------------------------------------------------------------
    def _observe_one(self, ts: float, t_run: float, credit: float,
                     emit: float, weight: int) -> None:
        processing = credit - t_run
        pre = t_run - ts
        if pre < 0.0:
            pre = 0.0
        hold = emit - credit
        budget = pre + hold
        clock = self.clock
        if clock.any_blocking and budget > 0.0:
            earliest = t_run - pre  # == ts clipped to t_run
            blocked = []
            total_blocked = 0.0
            for cause in ADAPT_CAUSES:
                b = clock.blocked(cause, earliest, t_run)
                if hold > 0.0:
                    b += clock.blocked(cause, credit, emit)
                blocked.append(b)
                total_blocked += b
            if total_blocked > budget:
                scale = budget / total_blocked
                blocked = [b * scale for b in blocked]
                total_blocked = budget
            for sketch, b in zip(self._cause_sketches, blocked):
                sketch.record(b, weight)
            queueing = budget - total_blocked
        else:
            self._zero_pad += weight
            queueing = budget
        self._s_e2e.record(processing + budget, weight)
        self._s_processing.record(processing, weight)
        self._s_queueing.record(queueing, weight)


class LatencyHub:
    """All trackers and SLO monitors of one deployment (or shared server).

    Lives as ``hub.latency`` on the :class:`~repro.obs.hub.ObsHub` —
    ``None`` unless a run opts in (the zero-overhead default).
    """

    #: always True on a real hub (``hub.latency is None`` is the off switch)
    enabled = True

    def __init__(self, *, materialize: bool = True) -> None:
        #: record every result of a materialized batch at its own probing
        #: row's event time when True; one weighted observation per batch
        #: otherwise (the O(1) mode the overhead benchmark runs)
        self.materialize = materialize
        self.trackers: dict[str, EngineTracker] = {}
        self.monitors: dict[str, SLOMonitor] = {}

    def tracker(self, machine: str, *,
                labels: Mapping[str, str] | None = None) -> EngineTracker:
        tracker = self.trackers.get(machine)
        if tracker is None:
            tracker = EngineTracker(self, machine, labels)
            self.trackers[machine] = tracker
        return tracker

    # ------------------------------------------------------------------
    # Recovery windows (driven by the RecoveryManager, query-level: the
    # engine-side restore path records nothing, so a recovery is never
    # double-counted)
    # ------------------------------------------------------------------
    def recovering_begin(self, machines: Iterable[str], now: float) -> None:
        for machine in machines:
            tracker = self.trackers.get(machine)
            if tracker is not None:
                tracker.clock.begin("recovering", now)

    def recovering_end(self, machines: Iterable[str], now: float) -> None:
        for machine in machines:
            tracker = self.trackers.get(machine)
            if tracker is not None:
                tracker.clock.end("recovering", now)

    # ------------------------------------------------------------------
    # Roll-ups
    # ------------------------------------------------------------------
    def merged(self, cause: str, *, query: str | None = None,
               tenant: str | None = None,
               machines: Iterable[str] | None = None) -> LatencySketch:
        """Merge one cause's sketch over matching trackers."""
        out = LatencySketch()
        names = sorted(machines) if machines is not None else sorted(self.trackers)
        for name in names:
            tracker = self.trackers.get(name)
            if tracker is None:
                continue
            if query is not None and tracker.labels.get("query") != query:
                continue
            if tenant is not None and tracker.labels.get("tenant") != tenant:
                continue
            out.merge(tracker.sketches[cause])
        return out

    def breakdown(self, **filters) -> dict[str, LatencySketch]:
        """All causes merged under the same filter — the CLI table input."""
        return {cause: self.merged(cause, **filters) for cause in CAUSES}

    def breaching(self, query: str) -> bool:
        monitor = self.monitors.get(query)
        return monitor is not None and monitor.status == "breaching"

    # ------------------------------------------------------------------
    # Exposition (pull collector registered by ObsHub.enable_latency)
    # ------------------------------------------------------------------
    def publish_metrics(self, registry) -> None:
        groups: dict[tuple, LatencySketch] = {}
        for name in sorted(self.trackers):
            tracker = self.trackers[name]
            for sid in sorted(tracker.watermarks):
                registry.gauge(
                    "repro_watermark_ts",
                    help="Per-stream low-watermark (largest event time "
                    "processed) per engine",
                    labels={"machine": name, "stream": sid, **tracker.labels},
                ).set(tracker.watermarks[sid])
            key = (
                tracker.labels.get("query", ""),
                tracker.labels.get("tenant", ""),
            )
            for cause in CAUSES:
                sketch = tracker.sketches[cause]
                if sketch.count:
                    groups.setdefault(
                        key + (cause,), LatencySketch()
                    ).merge(sketch)
        for (query, tenant, cause), sketch in sorted(groups.items()):
            registry.histogram(
                "repro_latency_seconds",
                help="End-to-end result latency decomposed by cause "
                "(quarter-octave log buckets)",
                buckets=BUCKET_BOUNDS,
                labels={"cause": cause, "query": query, "tenant": tenant},
            ).set_counts(
                sketch.bucket_counts(),
                sum=sketch.sum(),
                count=sketch.count,
            )
        for query in sorted(self.monitors):
            self.monitors[query].publish_metrics(registry)


class SLOMonitor:
    """One query's burn-rate evaluator + watermark stall detector.

    ``evaluate`` runs from the owning coordinator's evaluation loop, so
    its cadence is the deterministic GC tick.  Every tick records one
    replayable ``slo_check`` ledger entry; breaches additionally emit an
    entry-linked ``slo.alert`` trace event and an EventLog record.
    """

    def __init__(
        self,
        hub: LatencyHub,
        *,
        query: str,
        tenant: str,
        slo: SLOConfig,
        machines: Iterable[str],
        site: str,
        ledger=None,
        tracer=None,
        events=None,
    ) -> None:
        self.hub = hub
        self.query = query
        self.tenant = tenant
        self.slo = slo
        self.machines = tuple(machines)
        self.site = site
        self.ledger = ledger
        self.tracer = tracer
        self.events = events
        #: "meeting" | "breaching" | None (no traffic yet)
        self.status: str | None = None
        self.alerts = 0
        self.stalls = 0
        #: (time, total, bad) samples, pruned to the burn window
        self._history: list[tuple[float, int, int]] = []
        self._wm_last: dict[str, float] = {}
        self._wm_changed: dict[str, float] = {}
        self._wm_stalled: set[str] = set()

    # ------------------------------------------------------------------
    def _totals(self) -> tuple[int, int]:
        """Cumulative (results, SLO-violating results) over this query's
        engines.  ``bad`` is read off the e2e sketch — exceeding the
        target is judged at bucket granularity, so two monitors with
        different targets (folded members share one runtime's trackers)
        each count against their own target."""
        total = bad = 0
        target = self.slo.target_p99
        for machine in self.machines:
            tracker = self.hub.trackers.get(machine)
            if tracker is not None:
                sketch = tracker.sketches["e2e"]
                total += sketch.count
                bad += sketch.count_above(target)
        return total, bad

    def evaluate(self, now: float) -> str:
        """One burn-rate tick; returns the recorded action."""
        total, bad = self._totals()
        history = self._history
        history.append((now, total, bad))
        # Baseline: the newest sample at least one window old (kept so the
        # delta always spans >= window once the run is old enough).
        base = history[0]
        while len(history) > 1 and history[1][0] <= now - self.slo.window:
            history.pop(0)
            base = history[0]
        delta_total = total - base[1]
        delta_bad = bad - base[2]
        slo = self.slo
        burn = (
            (delta_bad / delta_total) / slo.error_budget
            if delta_total > 0 else 0.0
        )
        inputs = {
            "now": now,
            "query": self.query,
            "tenant": self.tenant,
            "target_p99": slo.target_p99,
            "error_budget": slo.error_budget,
            "window": slo.window,
            "burn_alert": slo.burn_alert,
            "total": total,
            "bad": bad,
            "window_total": delta_total,
            "window_bad": delta_bad,
            "burn_rate": burn,
        }
        action, rule, _, alternatives = _slo_cascade(inputs)
        if action in ("budget_exhausted", "alert"):
            self.status = "breaching"
            self.alerts += 1
        elif action == "within_budget":
            self.status = "meeting"
        entry_id = None
        ledger = self.ledger
        if ledger is not None and ledger.enabled:
            from repro.obs.ledger import KIND_SLO

            entry_id = ledger.record(
                self.site, KIND_SLO, action, rule, inputs, alternatives
            )
        if action in ("budget_exhausted", "alert"):
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.event(
                    "slo.alert", machine=self.site, query=self.query,
                    tenant=self.tenant, action=action, burn=burn,
                    entry=entry_id,
                )
            if self.events is not None:
                self.events.record(
                    now, "slo_alert", self.site, query=self.query,
                    tenant=self.tenant, action=action, burn=burn,
                )
        self._check_watermarks(now)
        return action

    # ------------------------------------------------------------------
    def _check_watermarks(self, now: float) -> None:
        """Stall detector: the cluster watermark of a stream (min over the
        query's engines) must keep advancing; a stagnant one is flagged
        once per episode, naming the blocking machine."""
        streams: dict[str, tuple[float, str]] = {}
        for machine in self.machines:
            tracker = self.hub.trackers.get(machine)
            if tracker is None:
                continue
            for sid, ts in tracker.watermarks.items():
                low = streams.get(sid)
                if low is None or ts < low[0]:
                    streams[sid] = (ts, machine)
        for sid in sorted(streams):
            wm, machine = streams[sid]
            if wm > self._wm_last.get(sid, -1.0):
                self._wm_last[sid] = wm
                self._wm_changed[sid] = now
                self._wm_stalled.discard(sid)
            elif (
                sid not in self._wm_stalled
                and now - self._wm_changed.get(sid, now)
                >= self.slo.stall_timeout
            ):
                self._wm_stalled.add(sid)
                self.stalls += 1
                if self.events is not None:
                    self.events.record(
                        now, "watermark_stall", machine,
                        query=self.query, stream=sid, watermark=wm,
                        stalled_for=now - self._wm_changed[sid],
                    )
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.event(
                        "watermark.stall", machine=machine,
                        query=self.query, stream=sid, watermark=wm,
                    )

    def publish_metrics(self, registry) -> None:
        labels = {"query": self.query, "tenant": self.tenant}
        registry.gauge(
            "repro_slo_target_p99_seconds",
            help="Configured end-to-end p99 target", labels=labels,
        ).set(self.slo.target_p99)
        registry.gauge(
            "repro_slo_breaching",
            help="1 while the query is breaching its SLO", labels=labels,
        ).set(1.0 if self.status == "breaching" else 0.0)
        registry.counter(
            "repro_slo_alerts_total",
            help="Burn-rate / budget-exhaustion alerts fired", labels=labels,
        ).set_total(self.alerts)
        registry.counter(
            "repro_watermark_stalls_total",
            help="Watermark stall episodes flagged", labels=labels,
        ).set_total(self.stalls)


def _slo_cascade(inputs: Mapping) -> tuple[str, str, dict, list[dict]]:
    """The pure burn-rate rule cascade, shared verbatim by the live
    monitor and the offline ledger replay: the recorded inputs fully
    determine the action.  Returns ``(action, rule, choice, alternatives)``
    like the ``repro.core.policy`` functions; the choice is always empty."""
    error_budget = float(inputs["error_budget"])
    burn_alert = float(inputs["burn_alert"])
    total = int(inputs["total"])
    bad = int(inputs["bad"])
    delta_total = int(inputs["window_total"])
    delta_bad = int(inputs["window_bad"])
    alternatives: list[dict] = []
    if delta_total == 0:
        return "no_results", "no_results", {}, [{
            "action": "within_budget", "outcome": "rejected",
            "predicate": "no results emitted inside the burn window",
        }]
    alternatives.append({
        "action": "no_results", "outcome": "rejected",
        "predicate": f"{delta_total} results emitted inside the burn window",
    })
    # Budget exhaustion fires *at* the boundary: >= not > (the edge case
    # pinned by the tests).
    if bad > 0 and bad >= error_budget * total:
        return "budget_exhausted", "error_budget", {}, alternatives + [{
            "action": "within_budget", "outcome": "rejected",
            "predicate": (
                f"cumulative bad {bad} >= error_budget {error_budget} * "
                f"total {total}"
            ),
        }]
    alternatives.append({
        "action": "budget_exhausted", "outcome": "rejected",
        "predicate": (
            f"cumulative bad {bad} < error_budget {error_budget} * "
            f"total {total}"
        ),
    })
    burn = (delta_bad / delta_total) / error_budget
    if burn >= burn_alert:
        return "alert", "burn_rate", {}, alternatives + [{
            "action": "within_budget", "outcome": "rejected",
            "predicate": f"burn rate {burn} >= alert threshold {burn_alert}",
        }]
    return "within_budget", "burn_rate", {}, alternatives + [{
        "action": "alert", "outcome": "rejected",
        "predicate": f"burn rate {burn} < alert threshold {burn_alert}",
    }]
