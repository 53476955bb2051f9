"""The workloads and metrics of the benchmark, as ``BENCHMARK.json`` lists them.

``BENCHMARK.json`` at the repository root is the one place that names the
workloads (with the reason each is there) and every metric (unit,
direction, and for end-to-end metrics the bound by which it may worsen).
This module reads it and adds only what the file's format has no room
for.  Nothing here imports the program, so the orchestrating process
never does either.

Every number is **host** (wall clock or memory of the Python process —
what a performance change moves) or **sim** (a simulated statistic or an
exact count — identical for a seed, the fixed point a performance change
may not move).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

CONTRACT = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: ``compare`` and ``aa`` let ``setup_s`` worsen by this much whatever its
#: bound says: a quarter of 0.2 s is less than one slow import
SETUP_SLACK_S = 0.05

_HOST_UNITS = {"s", "1/s", "MiB", "ratio"}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: share of the base's median by which it may worsen
    bound: float | None = None

    @property
    def clock(self) -> str:
        """``"host"`` or ``"sim"``; simulated seconds carry ``sim_``."""
        if self.unit in _HOST_UNITS and "sim_" not in self.name:
            return "host"
        return "sim"


#: workload -> the one-line reason it is in the benchmark
WORKLOADS: dict[str, str] = {w["name"]: w["why"] for w in CONTRACT["workloads"]}
END_TO_END = tuple(Metric(**m) for m in CONTRACT["end_to_end"])
PER_LAYER = tuple(Metric(**m) for m in CONTRACT["per_layer"])

#: traced layer -> the ``*_self_s`` metric that reports it; a layer not
#: listed here (a module this benchmark does not know) is summed into
#: ``bench.other_self_s`` and named in the trace file
SELF_METRIC_OF_LAYER = {
    "workloads.generator": "workloads.generator.self_s",
    "engine.streams.source": "engine.streams.source_self_s",
    "engine.streams.collector": "engine.streams.collector_self_s",
    "engine.query_engine.source_host": "engine.query_engine.source_host_self_s",
    "engine.query_engine.engine": "engine.query_engine.engine_self_s",
    "engine.operators.split": "engine.operators.split.self_s",
    "engine.columns": "engine.columns.from_routed_self_s",
    "engine.state_store.probe": "engine.state_store.probe_self_s",
    "engine.state_store.motion": "engine.state_store.motion_self_s",
    "cluster.simulation": "cluster.simulation.self_s",
    "cluster.network": "cluster.network.self_s",
    "cluster.machine": "cluster.machine.self_s",
    "cluster.disk": "cluster.disk.self_s",
    "core.coordinator": "core.coordinator.self_s",
    "core.spill": "core.spill.self_s",
    "core.cleanup": "core.cleanup.self_s",
    "recovery.checkpoint": "recovery.checkpoint.self_s",
    "recovery.manager": "recovery.manager.self_s",
    "serving.server": "serving.server.self_s",
    "serving.folding": "serving.folding.self_s",
    "serving.gc": "serving.gc.self_s",
    "obs.slo": "obs.slo.self_s",
    "obs.metrics": "obs.metrics.self_s",
    "bench.wrapper": "bench.wrapper_self_s",
}
