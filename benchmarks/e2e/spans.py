"""Wall-clock spans recorded from outside the program.

The benchmark may not put timers inside ``repro``, so every span comes
from a wrapper this module installs around a *public* name:

* ``Simulator.schedule`` / ``schedule_at`` / ``Timer``, ``Task.begin`` and
  ``DynamicTask.begin`` hand the program's callbacks to the wrappers; each
  callback runs as a span labelled with the module (and, where one module
  holds two layers, the class) that defines it.  All work of a run happens
  inside some callback, so this alone attributes everything;
* the layer entry points in :data:`TARGETS` run as child spans, so work a
  callback merely passes through lands on the layer that does it.  An
  endless generator is timed per ``__next__``; a short one that its
  caller consumes at once produces all its items inside one span.

Spans aggregate into a call-path tree (layer under layer under layer): a
node's self time is its total minus its children's totals.  The wrappers
cost time themselves; :func:`calibrate` measures that cost per call and
:meth:`SpanTracer.layers` moves it out of the layers into
``bench.wrapper``.

Targets are resolved by name when installed.  One that no longer exists
is reported in :attr:`SpanTracer.absent` instead of failing, because the
program is allowed to delete it; :meth:`SpanTracer.uninstall` puts back
exactly the objects it replaced.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

ROOT_LAYER = "bench.unattributed"
WRAPPER_LAYER = "bench.wrapper"
#: how many individual spans the trace file keeps beside the aggregate tree
RAW_SPAN_CAP = 2000

#: kinds of wrapper
CALL = "call"            # the call is one span
GENERATOR = "generator"  # endless generator: every ``__next__`` is a span
DRAINED = "drained"      # short generator: producing all its items is one span
SCHEDULE = "schedule"    # (time, callback, *args): span + labelled callback
TIMER = "timer"          # Timer(sim, interval, callback): labelled callback
TASK = "task"            # Task/DynamicTask.begin: labelled payload + finish


@dataclass(frozen=True)
class Target:
    module: str
    path: str  # attribute path inside the module, e.g. "Split.process"
    layer: str
    kind: str = CALL


TARGETS: tuple[Target, ...] = (
    Target("repro.workloads.generator", "TupleGenerator.arrivals",
           "workloads.generator", GENERATOR),
    Target("repro.engine.streams", "OutputCollector.add",
           "engine.streams.collector"),
    Target("repro.engine.query_engine", "SourceHost.inject",
           "engine.query_engine.source_host"),
    Target("repro.engine.query_engine", "SourceHost.deliver",
           "engine.query_engine.source_host"),
    Target("repro.engine.query_engine", "QueryEngine.deliver",
           "engine.query_engine.engine"),
    Target("repro.engine.operators.split", "Split.process",
           "engine.operators.split", DRAINED),
    Target("repro.engine.columns", "ColumnBatch.from_routed", "engine.columns"),
    Target("repro.engine.state_store", "StateStore.probe_insert_columns",
           "engine.state_store.probe"),
    Target("repro.engine.state_store", "StateStore.probe_insert_batch",
           "engine.state_store.probe"),
    Target("repro.engine.state_store", "StateStore.probe_insert",
           "engine.state_store.probe"),
    Target("repro.engine.state_store", "StateStore.evict",
           "engine.state_store.motion"),
    Target("repro.engine.state_store", "StateStore.install",
           "engine.state_store.motion"),
    Target("repro.engine.state_store", "StateStore.split_group",
           "engine.state_store.motion"),
    Target("repro.engine.state_store", "StateStore.merge_groups",
           "engine.state_store.motion"),
    Target("repro.cluster.simulation", "Simulator.run", "cluster.simulation"),
    Target("repro.cluster.simulation", "Simulator.schedule",
           "cluster.simulation", SCHEDULE),
    Target("repro.cluster.simulation", "Simulator.schedule_at",
           "cluster.simulation", SCHEDULE),
    Target("repro.cluster.simulation", "Timer.__init__",
           "cluster.simulation", TIMER),
    Target("repro.cluster.network", "Network.send", "cluster.network"),
    Target("repro.cluster.machine", "Machine.submit", "cluster.machine"),
    Target("repro.cluster.machine", "Machine.submit_work", "cluster.machine"),
    Target("repro.cluster.machine", "Task.begin", "cluster.machine", TASK),
    Target("repro.cluster.machine", "DynamicTask.begin", "cluster.machine", TASK),
    Target("repro.cluster.disk", "Disk.store_segment", "cluster.disk"),
    Target("repro.cluster.disk", "Disk.take_segments", "cluster.disk"),
    Target("repro.core.coordinator", "GlobalCoordinator.evaluate",
           "core.coordinator"),
    Target("repro.core.coordinator", "GlobalCoordinator.deliver",
           "core.coordinator"),
    Target("repro.core.spill", "SpillExecutor.execute", "core.spill"),
    Target("repro.core.cleanup", "CleanupExecutor.run", "core.cleanup"),
    Target("repro.engine.plan", "Deployment.cleanup", "core.cleanup"),
    Target("repro.recovery.checkpoint", "CheckpointManager.commit",
           "recovery.checkpoint"),
    Target("repro.recovery.manager", "RecoveryManager.tick", "recovery.manager"),
    Target("repro.serving.server", "QueryServer.submit", "serving.server"),
    Target("repro.serving.server", "QueryServer.run_for", "serving.server"),
    Target("repro.serving.server", "QueryServer.finish", "serving.server"),
    Target("repro.serving.folding", "FanOutCollector.add", "serving.folding"),
    Target("repro.serving.gc", "ClusterGC.evaluate", "serving.gc"),
    Target("repro.obs.slo", "EngineTracker.observe", "obs.slo"),
    Target("repro.obs.slo", "EngineTracker.hold", "obs.slo"),
    Target("repro.obs.slo", "EngineTracker.flush_pending", "obs.slo"),
    Target("repro.obs.slo", "EngineTracker.advance_one", "obs.slo"),
    Target("repro.obs.slo", "EngineTracker.advance_watermarks", "obs.slo"),
    Target("repro.obs.slo", "SLOMonitor.evaluate", "obs.slo"),
    Target("repro.engine.plan", "Deployment.sample", "obs.metrics"),
    Target("repro.obs.metrics", "Histogram.observe", "obs.metrics"),
)

#: modules that hold two layers: callbacks are told apart by their class
CLASS_LAYERS = {
    ("engine.query_engine", "SourceHost"): "engine.query_engine.source_host",
    ("engine.query_engine", "QueryEngine"): "engine.query_engine.engine",
    ("engine.streams", "StreamSource"): "engine.streams.source",
    ("engine.streams", "OutputCollector"): "engine.streams.collector",
}


class Node:
    """One call path: ``layer`` reached through ``parent``'s path."""

    __slots__ = ("layer", "parent", "kids", "total", "count")

    def __init__(self, layer: str, parent: "Node | None") -> None:
        self.layer = layer
        self.parent = parent
        self.kids: dict[str, Node] = {}
        self.total = 0.0
        self.count = 0

    def kid(self, layer: str) -> "Node":
        node = self.kids[layer] = Node(layer, self)
        return node

    def walk(self):
        yield self
        for kid in self.kids.values():
            yield from kid.walk()

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.count,
            "total_s": self.total,
            "self_s": self.total - sum(k.total for k in self.kids.values()),
            "children": [k.to_json() for k in self.kids.values()],
        }


@dataclass(frozen=True)
class WrapperCost:
    """Seconds one span adds: ``inside`` its own measured interval, and
    ``outside`` it, in the interval of the span that made the call."""

    inside: float = 0.0
    outside: float = 0.0


def layer_of(func) -> str:
    """The layer a callback belongs to: where it was defined."""
    module = getattr(func, "__module__", None) or "builtins"
    if module.startswith("repro."):
        module = module[len("repro."):]
    owner = getattr(func, "__qualname__", "").split(".", 1)[0]
    return CLASS_LAYERS.get((module, owner), module)


class SpanTracer:
    def __init__(self) -> None:
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object, bool]] = []
        self._layer_cache: dict[object, str] = {}
        self.open()

    # ------------------------------------------------------------------
    # The measured window
    # ------------------------------------------------------------------
    def open(self) -> None:
        """Start the measured window: forget every span so far."""
        self.root = Node(ROOT_LAYER, None)
        self.cur = self.root
        #: the first RAW_SPAN_CAP spans: (label, start, end, depth)
        self.raw: list[tuple[str, float, float, int]] = []
        self.sampling = True
        self._t_open = time.perf_counter()

    def close(self) -> float:
        """End the window; returns its wall seconds."""
        wall = time.perf_counter() - self._t_open
        self.root.total = wall
        self.root.count = 1
        return wall

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def span(self, func, layer: str, *, keep_name: bool = True):
        """``func`` running as one span of ``layer``.

        ``keep_name`` copies the name and module onto the wrapper, so that
        a wrapped method handed on as a callback is still labelled with
        the layer that defines it.
        """
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = tracer.cur
            node = parent.kids.get(layer)
            if node is None:
                node = parent.kid(layer)
            tracer.cur = node
            t0 = perf()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = perf()
                node.total += t1 - t0
                node.count += 1
                tracer.cur = parent
                if tracer.sampling:
                    tracer.sample(node, t0, t1)

        if keep_name:
            functools.update_wrapper(wrapper, func)
        wrapper._e2e_span = True
        return wrapper

    def sample(self, node: Node, t0: float, t1: float) -> None:
        """Keep one of the first :data:`RAW_SPAN_CAP` spans as it was."""
        depth = 0
        parent = node.parent
        while parent is not None:
            depth += 1
            parent = parent.parent
        self.raw.append((node.layer, t0 - self._t_open, t1 - self._t_open, depth))
        self.sampling = len(self.raw) < RAW_SPAN_CAP

    def labelled(self, callback):
        """``callback`` as a span of the layer that defines it."""
        if callback is None or getattr(callback, "_e2e_span", False):
            return callback
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", func)
        try:
            layer = self._layer_cache[key]
        except KeyError:
            layer = self._layer_cache[key] = layer_of(func)
        return self.span(callback, layer, keep_name=False)

    def _generator(self, func, layer: str):
        """An endless generator: every ``__next__`` is a span."""
        tracer = self
        perf = time.perf_counter
        label = layer + ".next"

        class Timed:
            __slots__ = ("_iterator",)

            def __init__(self, iterator) -> None:
                self._iterator = iterator

            def __iter__(self):
                return self

            def __next__(self):
                parent = tracer.cur
                node = parent.kids.get(label)
                if node is None:
                    node = parent.kid(label)
                tracer.cur = node
                t0 = perf()
                try:
                    return next(self._iterator)
                finally:
                    node.total += perf() - t0
                    node.count += 1
                    tracer.cur = parent

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return Timed(func(*args, **kwargs))

        return wrapper

    def _drained(self, func, layer: str):
        """A short generator its caller consumes at once: produce every
        item inside one span and hand back an iterator over them."""
        def drained(*args, **kwargs):
            return iter(list(func(*args, **kwargs)))

        return functools.update_wrapper(self.span(drained, layer,
                                                  keep_name=False), func)

    def _schedule(self, func, layer: str):
        call = self.span(func, layer)
        labelled = self.labelled

        @functools.wraps(func)
        def wrapper(sim, when, callback, *args):
            return call(sim, when, labelled(callback), *args)

        return wrapper

    def _timer(self, func, layer: str):
        labelled = self.labelled

        @functools.wraps(func)
        def wrapper(timer, sim, interval, callback, **kwargs):
            return func(timer, sim, interval, labelled(callback), **kwargs)

        return wrapper

    def _task(self, func, layer: str):
        labelled = self.labelled

        @functools.wraps(func)
        def wrapper(task):
            # the payload attribute of Task / DynamicTask respectively
            for attr in ("action", "begin_fn"):
                payload = getattr(task, attr, None)
                if payload is not None:
                    setattr(task, attr, labelled(payload))
            service_time, finish = func(task)
            return service_time, labelled(finish)

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        makers = {CALL: self.span, GENERATOR: self._generator,
                  DRAINED: self._drained,
                  SCHEDULE: self._schedule, TIMER: self._timer,
                  TASK: self._task}
        for target in targets:
            name = f"{target.module}:{target.path}"
            try:
                owner = importlib.import_module(target.module)
                *parents, attr = target.path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            maker = makers[target.kind]
            label = f"{target.layer}#{attr}"
            if isinstance(original, classmethod):
                replacement = classmethod(maker(original.__func__, label))
            else:
                replacement = maker(original, label)
            self._patched.append((owner, attr, original, own))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put back exactly what :meth:`install` replaced."""
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layers(self, cost: WrapperCost = WrapperCost()) -> dict[str, dict]:
        """Self seconds, total seconds and span count per span label.

        A label is ``layer`` for a callback and ``layer#entry`` for a
        wrapped entry point.  The calibrated wrapper cost is taken out of
        each label's self time (never below zero) and collected under
        ``bench.wrapper``, so the self times still sum to the window.
        """
        out: dict[str, dict] = {}
        moved = 0.0
        spans = 0
        for node in self.root.walk():
            self_s = node.total - sum(k.total for k in node.kids.values())
            overhead = cost.outside * sum(k.count for k in node.kids.values())
            if node is not self.root:
                spans += node.count
                overhead += cost.inside * node.count
            overhead = min(overhead, max(self_s, 0.0))
            moved += overhead
            entry = out.setdefault(
                node.layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            entry["self_s"] += self_s - overhead
            entry["total_s"] += node.total
            entry["calls"] += node.count
        out[WRAPPER_LAYER] = {"self_s": moved, "total_s": moved, "calls": spans}
        return out

    def to_json(self) -> dict:
        return {
            "tree": self.root.to_json(),
            "raw_spans": [
                {"layer": layer, "start_s": t0, "end_s": t1, "depth": depth}
                for layer, t0, t1, depth in self.raw
            ],
            "raw_span_cap": RAW_SPAN_CAP,
            "absent": list(self.absent),
        }


def calibrate(calls: int = 200_000) -> WrapperCost:
    """Measure what one span costs, on an empty function."""

    def empty() -> None:
        pass

    tracer = SpanTracer()
    wrapped = tracer.span(empty, "calibrate")
    perf = time.perf_counter
    tracer.open()
    tracer.sampling = False  # the steady state of a run keeps no raw spans
    t0 = perf()
    for _ in range(calls):
        wrapped()
    t1 = perf()
    for _ in range(calls):
        empty()
    t2 = perf()
    inside = tracer.root.kids["calibrate"].total / calls
    per_call = ((t1 - t0) - (t2 - t1)) / calls
    return WrapperCost(inside=inside, outside=max(per_call - inside, 0.0))
