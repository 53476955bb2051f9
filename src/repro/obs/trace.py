"""Structured adaptation tracing: spans and events on the simulator clock.

The adaptation machinery of this reproduction executes multi-step
distributed protocols — the 8-step relocation hand-off, spill
freeze/evict/cleanup, checkpoint commits, crash recovery — whose
*correctness argument* is a statement about step ordering, not about end
state.  This module makes every protocol step observable as a structured
trace record so the sequence itself can be exported, inspected, and
machine-checked (see :mod:`repro.obs.invariants`).

Design points
-------------
* **Zero overhead when disabled.**  Components reach the tracer through
  :attr:`ObsHub.tracer <repro.obs.hub.ObsHub>`, which
  defaults to the shared :data:`NULL_TRACER`.  Every instrumentation site
  guards on ``tracer.enabled`` before building event fields, so a run
  without a tracer pays one attribute read and one branch per site — and
  tracing never consumes simulated time, so enabling it cannot change a
  run's results either.
* **Simulator-clock timestamps.**  Event times come from the bound
  discrete-event clock; no wall-clock value ever enters a trace, which is
  what makes two runs with the same seed produce byte-identical exports.
* **Causal parent ids.**  A protocol session opens a *span*; the span id
  travels inside the protocol messages (``trace_span`` payload fields), so
  events recorded on other machines attach to the session that caused
  them even though no component reads another machine's state.
* **Two export formats.**  JSONL (one event per line, sorted keys — the
  invariant checker's input and the CI failure artifact) and the Chrome
  ``trace_event`` format (load into ``chrome://tracing`` / Perfetto for a
  visual timeline of a run's adaptations).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "load_jsonl",
]

#: Event phases: span begin / span end / instant event.
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_INSTANT = "I"


def _json_safe(value: Any) -> Any:
    """Convert a field value into a deterministic, JSON-serialisable form."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record.

    ``seq`` is a trace-wide monotonic counter (the total order the
    invariant checker replays); ``ts`` is the simulator clock.  ``span``
    is the id of the span this event belongs to (its causal parent) —
    for ``B`` events, the id of the span being opened; ``parent`` is the
    enclosing span of a ``B`` event, if any.
    """

    seq: int
    ts: float
    phase: str
    name: str
    machine: str
    span: int | None
    parent: int | None
    fields: Mapping[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def to_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "phase": self.phase,
            "name": self.name,
            "machine": self.machine,
            "span": self.span,
            "parent": self.parent,
            "fields": _json_safe(self.fields),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            seq=data["seq"],
            ts=data["ts"],
            phase=data["phase"],
            name=data["name"],
            machine=data.get("machine", ""),
            span=data.get("span"),
            parent=data.get("parent"),
            fields=dict(data.get("fields", {})),
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumentation sites check :attr:`enabled` before assembling event
    fields, so the disabled path costs one attribute read and a branch.
    """

    enabled = False

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def begin_span(self, name: str, *, machine: str = "",
                   parent: int | None = None, **fields: Any) -> int:
        return 0

    def end_span(self, span: int, **fields: Any) -> None:
        pass

    def event(self, name: str, *, machine: str = "",
              span: int | None = None, **fields: Any) -> None:
        pass

    def open_span(self, name: str) -> int | None:
        return None


#: Shared disabled tracer — the default everywhere tracing is optional.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Recording tracer: collects :class:`TraceEvent` records in memory.

    Usage::

        tracer = Tracer()
        dep = Deployment(..., tracer=tracer)
        dep.run(duration=600)
        dep.cleanup()
        tracer.write_jsonl("run.jsonl")
        tracer.write_chrome("run.trace.json")   # chrome://tracing

    The deployment binds the simulator clock; until then (and for trace
    annotations made outside a run) timestamps are 0.0.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.events: list[TraceEvent] = []
        self._clock = clock
        self._next_seq = 0
        self._next_span = 1
        #: open span id -> name (for open_span lookup / leak detection)
        self._open: dict[int, str] = {}
        #: per-name stack of open span ids, most recent last
        self._open_by_name: dict[str, list[int]] = {}

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator clock (done by the deployment wiring)."""
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record(self, phase: str, name: str, machine: str,
                span: int | None, parent: int | None,
                fields: dict[str, Any]) -> TraceEvent:
        event = TraceEvent(
            seq=self._next_seq,
            ts=self.now,
            phase=phase,
            name=name,
            machine=machine,
            span=span,
            parent=parent,
            fields=fields,
        )
        self._next_seq += 1
        self.events.append(event)
        return event

    def begin_span(self, name: str, *, machine: str = "",
                   parent: int | None = None, **fields: Any) -> int:
        """Open a span; returns its id (pass to :meth:`end_span`)."""
        span = self._next_span
        self._next_span += 1
        self._open[span] = name
        self._open_by_name.setdefault(name, []).append(span)
        self._record(PHASE_BEGIN, name, machine, span, parent or None, fields)
        return span

    def end_span(self, span: int, **fields: Any) -> None:
        """Close a span (unknown/already-closed ids are ignored: a crash
        may legitimately orphan a span)."""
        name = self._open.pop(span, None)
        if name is None:
            return
        stack = self._open_by_name.get(name)
        if stack and span in stack:
            stack.remove(span)
        self._record(PHASE_END, name, "", span, None, fields)

    def event(self, name: str, *, machine: str = "",
              span: int | None = None, **fields: Any) -> None:
        """Record an instant event, optionally attached to a span."""
        self._record(PHASE_INSTANT, name, machine, span or None, None, fields)

    def open_span(self, name: str) -> int | None:
        """Id of the most recently opened, still-open span called ``name``."""
        stack = self._open_by_name.get(name)
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The trace as JSONL text (one event per line, sorted keys).

        Deterministic: two runs with the same seed and configuration
        produce byte-identical output (no wall-clock fields exist).
        """
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in self.events
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            if self.events:
                handle.write("\n")

    def to_chrome(self) -> dict[str, Any]:
        """The trace in Chrome ``trace_event`` format (async spans).

        Machines map to threads of one process; spans become async
        begin/end pairs keyed by span id, instants become ``i`` events.
        """
        tids: dict[str, int] = {}
        records: list[dict[str, Any]] = []

        def tid_of(machine: str) -> int:
            if machine not in tids:
                tids[machine] = len(tids) + 1
                records.append({
                    "ph": "M", "name": "thread_name", "pid": 0,
                    "tid": tids[machine],
                    "args": {"name": machine or "(cluster)"},
                })
            return tids[machine]

        for e in self.events:
            base = {
                "name": e.name,
                "cat": "repro",
                "ts": e.ts * 1e6,  # Chrome wants microseconds
                "pid": 0,
                "tid": tid_of(e.machine),
                "args": _json_safe(dict(e.fields)),
            }
            if e.phase == PHASE_BEGIN:
                base.update(ph="b", id=e.span)
            elif e.phase == PHASE_END:
                base.update(ph="e", id=e.span)
            else:
                base.update(ph="i", s="p")
                if e.span is not None:
                    base["args"]["span"] = e.span
            records.append(base)
        return {"traceEvents": records, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome(), handle, sort_keys=True)
            handle.write("\n")


def load_jsonl(path_or_lines) -> list[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records.

    Accepts a file path or an iterable of JSON lines; the result feeds
    straight into :class:`~repro.obs.invariants.InvariantChecker`.  A line
    that is not JSON or not a trace event raises ``ValueError``.
    """
    if isinstance(path_or_lines, (str, bytes)) or hasattr(path_or_lines, "__fspath__"):
        with open(path_or_lines, "r", encoding="utf-8") as handle:
            lines: Iterable[str] = handle.readlines()
    else:
        lines = path_or_lines
    events = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if line:
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"line {number}: not a trace event "
                                 f"({type(exc).__name__}: {exc})") from exc
    return events
