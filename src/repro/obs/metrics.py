"""Unified metrics registry with Prometheus-style exposition.

Before this module existed the reproduction's numbers lived in three
disjoint places: :class:`~repro.obs.hub.ObsHub` time series
(what the figures plot), ad-hoc counter attributes scattered over the
network / disk / store / coordinator objects (what the tests poke), and
the adaptation event log.  :class:`MetricsRegistry` is the single
collection point all of them now publish into:

* **Counters** — monotonically increasing totals (messages sent, outputs
  produced, relocations completed).  Components that already keep their
  own cheap integer attributes publish through *collectors*: callbacks
  run at exposition time that copy the current totals into the registry,
  so the hot paths pay nothing.
* **Gauges** — point-in-time values (resident state bytes, queue depth).
  A *tracked* gauge additionally retains its full sample history as a
  :class:`TimeSeries` — exactly the series every paper figure is read
  off, which is how deployments sample figure series into the registry
  without changing a single plotted number.
* **Histograms** — bucketed distributions (spill sizes, relocation
  durations) observed directly by the event log.

Every update is stamped with the **simulator clock** (bound by the
deployment), never the wall clock, so two same-seed runs produce
byte-identical expositions in both formats:

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text format
  (``# HELP`` / ``# TYPE`` headers, sorted families, sorted label sets,
  millisecond timestamps);
* :meth:`MetricsRegistry.to_json` — a JSON document that additionally
  carries the tracked gauges' full series (the report generator's
  input).
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "TimeSeries",
]

#: Characters legal in a Prometheus metric name ([a-zA-Z0-9_:]).
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets for byte-sized observations (powers of ten
#: spanning one tuple to a full machine's state).
DEFAULT_BYTE_BUCKETS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7)

#: Default histogram buckets for simulated durations in seconds.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class Sample:
    """One (time, value) observation."""

    time: float
    value: float


class TimeSeries:
    """Append-only series of :class:`Sample` observations.

    Samples must be appended in nondecreasing time order (the simulator
    clock guarantees this for the harness).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def append(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"series {self.name!r}: sample at {time!r} precedes last "
                f"sample at {self._times[-1]!r}"
            )
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[Sample]:
        return (Sample(t, v) for t, v in zip(self._times, self._values))

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(self._times)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self._values)

    def last(self) -> Sample:
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        return Sample(self._times[-1], self._values[-1])

    def value_at(self, time: float) -> float:
        """Step-interpolated value at ``time`` (last sample at or before it)."""
        if not self._times:
            raise IndexError(f"series {self.name!r} is empty")
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise ValueError(f"series {self.name!r} has no sample at or before {time!r}")
        return self._values[idx]

    def max(self) -> float:
        return max(self._values)

    def mean(self) -> float:
        return sum(self._values) / len(self._values)

    def rate_between(self, t0: float, t1: float) -> float:
        """Average growth rate (Δvalue/Δtime) between two instants.

        For a cumulative-output series this is exactly the paper's notion
        of throughput over a window.
        """
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got {t0!r}..{t1!r}")
        return (self.value_at(t1) - self.value_at(t0)) / (t1 - t0)


def _fmt(value: float) -> str:
    """Deterministic Prometheus value rendering (ints stay integral)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(labels: tuple[tuple[str, str], ...], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + body + "}"


class _Instrument:
    """One instrument child (a concrete label combination of a family)."""

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]) -> None:
        self.family = family
        self.labels = labels
        #: simulator-clock time of the last update (``None`` = never).
        self.last_ts: float | None = None

    def _stamp(self, ts: float | None) -> None:
        if ts is not None:
            self.last_ts = ts
        else:
            clock = self.family.registry._clock
            if clock is not None:
                self.last_ts = clock()


class Counter(_Instrument):
    """Monotonically increasing total."""

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]) -> None:
        super().__init__(family, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0, *, ts: float | None = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.family.name!r} cannot decrease")
        self.value += amount
        self._stamp(ts)

    def set_total(self, value: float, *, ts: float | None = None) -> None:
        """Pull-collection entry point: overwrite with the component's own
        running total (collectors call this at exposition time)."""
        if value < self.value:
            raise ValueError(
                f"counter {self.family.name!r} total regressed "
                f"({value!r} < {self.value!r})"
            )
        self.value = float(value)
        self._stamp(ts)


class Gauge(_Instrument):
    """Point-in-time value; optionally tracks its full sample history."""

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...],
                 *, tracked: bool = False) -> None:
        super().__init__(family, labels)
        self.value = 0.0
        self.series: TimeSeries | None = TimeSeries(family.name) if tracked else None

    def set(self, value: float, *, ts: float | None = None) -> None:
        self.value = float(value)
        self._stamp(ts)
        if self.series is not None and self.last_ts is not None:
            self.series.append(self.last_ts, float(value))


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    def __init__(self, family: "_Family", labels: tuple[tuple[str, str], ...]) -> None:
        super().__init__(family, labels)
        self._buckets = family.buckets
        self.bucket_counts = [0] * (len(family.buckets) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, *, ts: float | None = None) -> None:
        self.bucket_counts[bisect.bisect_left(self._buckets, value)] += 1
        self.sum += value
        self.count += 1
        if ts is None:
            self._stamp(None)
        else:  # the per-batch data path: three of these per delivery
            self.last_ts = ts

    def set_counts(self, bucket_counts, *, sum: float, count: int,
                   ts: float | None = None) -> None:
        """Pull-collection entry point: overwrite the whole distribution
        with a component-owned one (e.g. a latency sketch's bucket counts
        copied in at exposition time).  ``bucket_counts`` must have one
        slot per bucket plus the +Inf slot."""
        if len(bucket_counts) != len(self.family.buckets) + 1:
            raise ValueError(
                f"histogram {self.family.name!r} expects "
                f"{len(self.family.buckets) + 1} bucket counts, got "
                f"{len(bucket_counts)}"
            )
        self.bucket_counts = [int(n) for n in bucket_counts]
        self.sum = float(sum)
        self.count = int(count)
        self._stamp(ts)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family holding all its labeled children."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str, buckets: tuple[float, ...] | None = None,
                 tracked: bool = False) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.tracked = tracked
        self.buckets: tuple[float, ...] = tuple(sorted(buckets or ())) if kind == "histogram" else ()
        self.children: dict[tuple[tuple[str, str], ...], _Instrument] = {}

    def child(self, labels: Mapping[str, Any] | None) -> _Instrument:
        key = tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))
        inst = self.children.get(key)
        if inst is None:
            if self.kind == "gauge":
                inst = Gauge(self, key, tracked=self.tracked)
            else:
                inst = _KINDS[self.kind](self, key)
            self.children[key] = inst
        return inst


class MetricsRegistry:
    """The cluster-wide instrument registry.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the simulator time; bound by the
        deployment via :meth:`bind_clock`.  Updates made without a bound
        clock (or an explicit ``ts``) carry no timestamp.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    # ------------------------------------------------------------------
    # Instrument access (get-or-create)
    # ------------------------------------------------------------------
    def _family(self, name: str, kind: str, help: str,
                buckets: tuple[float, ...] | None = None,
                tracked: bool = False) -> _Family:
        if not _NAME_OK.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(self, name, kind, help, buckets, tracked)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"not a {kind}"
            )
        if help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, *, help: str = "",
                labels: Mapping[str, Any] | None = None) -> Counter:
        return self._family(name, "counter", help).child(labels)  # type: ignore[return-value]

    def gauge(self, name: str, *, help: str = "",
              labels: Mapping[str, Any] | None = None) -> Gauge:
        return self._family(name, "gauge", help).child(labels)  # type: ignore[return-value]

    def histogram(self, name: str, *, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BYTE_BUCKETS,
                  labels: Mapping[str, Any] | None = None) -> Histogram:
        return self._family(name, "histogram", help, buckets).child(labels)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Tracked gauges = the figure time series
    # ------------------------------------------------------------------
    def timeseries(self, name: str) -> TimeSeries:
        """The sample history of the tracked gauge called ``name``
        (created on first use)."""
        # Series names predate the registry ("memory:m1") — keep them
        # verbatim; colons are legal Prometheus name characters.
        gauge: Gauge = self._family(name, "gauge", "", tracked=True).child(None)  # type: ignore[assignment]
        if gauge.series is None:  # pre-existing plain gauge: start tracking
            gauge.series = TimeSeries(name)
        return gauge.series

    def sample(self, time: float, name: str, value: float) -> None:
        """Record one tracked-gauge observation at simulator time ``time``."""
        gauge: Gauge = self._family(name, "gauge", "", tracked=True).child(None)  # type: ignore[assignment]
        if gauge.series is None:
            gauge.series = TimeSeries(name)
        gauge.set(value, ts=time)

    def has_timeseries(self, name: str) -> bool:
        family = self._families.get(name)
        if family is None or family.kind != "gauge":
            return False
        child = family.children.get(())
        return bool(child is not None and getattr(child, "series", None))

    def timeseries_names(self) -> tuple[str, ...]:
        return tuple(sorted(
            name for name in self._families if self.has_timeseries(name)
        ))

    # ------------------------------------------------------------------
    # Pull collection
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Add a callback run before every exposition; collectors copy
        component-owned totals into registry instruments, keeping the hot
        paths free of metrics work."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def to_prometheus(self) -> str:
        """Deterministic Prometheus text-format exposition."""
        self.collect()
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if not family.children:
                continue
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.children):
                inst = family.children[key]
                ts = ""
                if inst.last_ts is not None:
                    ts = f" {int(round(inst.last_ts * 1000))}"
                if isinstance(inst, Histogram):
                    cumulative = 0
                    edges = [* family.buckets, math.inf]
                    for edge, count in zip(edges, inst.bucket_counts):
                        cumulative += count
                        label = _label_str(key, (("le", _fmt(edge)),))
                        lines.append(f"{name}_bucket{label} {cumulative}{ts}")
                    lines.append(f"{name}_sum{_label_str(key)} {_fmt(inst.sum)}{ts}")
                    lines.append(f"{name}_count{_label_str(key)} {inst.count}{ts}")
                else:
                    lines.append(
                        f"{name}{_label_str(key)} {_fmt(inst.value)}{ts}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """JSON exposition: all instruments plus tracked-gauge series."""
        self.collect()
        out: dict[str, Any] = {"counters": [], "gauges": [], "histograms": []}
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.children):
                inst = family.children[key]
                row: dict[str, Any] = {"name": name, "labels": dict(key)}
                if inst.last_ts is not None:
                    row["ts"] = inst.last_ts
                if isinstance(inst, Histogram):
                    row["buckets"] = {
                        _fmt(edge): count
                        for edge, count in zip(
                            [*family.buckets, math.inf], inst.bucket_counts
                        )
                    }
                    row["sum"] = inst.sum
                    row["count"] = inst.count
                    out["histograms"].append(row)
                elif isinstance(inst, Gauge):
                    row["value"] = inst.value
                    if inst.series is not None:
                        row["series"] = {
                            "times": list(inst.series.times),
                            "values": list(inst.series.values),
                        }
                    out["gauges"].append(row)
                else:
                    row["value"] = inst.value
                    out["counters"].append(row)
        return out

    def histogram_rows(self) -> list[dict[str, Any]]:
        """All histogram children as plain summary rows.

        One row per (family, label set), sorted by name then labels:
        ``{"name", "labels", "buckets": {upper_edge: count}, "sum",
        "count"}`` with per-bucket (not cumulative) counts — the shape the
        run ledger records and the report generator plots.
        """
        self.collect()
        rows: list[dict[str, Any]] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.kind != "histogram":
                continue
            for key in sorted(family.children):
                inst = family.children[key]
                assert isinstance(inst, Histogram)
                rows.append({
                    "name": name,
                    "labels": dict(key),
                    "buckets": {
                        _fmt(edge): count
                        for edge, count in zip(
                            [*family.buckets, math.inf], inst.bucket_counts
                        )
                    },
                    "sum": inst.sum,
                    "count": inst.count,
                })
        return rows

    def write_prometheus(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_prometheus())

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, sort_keys=True, separators=(",", ":"))
            handle.write("\n")
