"""The simulated fixed point of the end-to-end workloads, as one file.

Runs each of the five workloads of ``benchmarks.e2e`` at smoke scale
(seed 11) with a ``Tracer`` and a ``DecisionLedger`` on, through its
run-time and cleanup phases, and writes
``benchmarks/results/fixed_point.json``: per workload the sha256 of the
trace JSONL, of the decision-ledger JSONL, of the run file
(``repro.obs.write_run_jsonl``: ledger, tracked series and histograms)
and of the Prometheus text, plus the ``sim`` counts the benchmark
compares (results, events, messages, spills, relocations, recoveries,
checkpoints).

Every one of these is simulator-clock data, so for one seed it is the
same on every run; a change that only claims host speed must reproduce
the committed file byte for byte (CI: ``git diff --exit-code
benchmarks/results/``).  The workloads' trace and ledger content depends
on set iteration order, so the script re-executes itself under
``PYTHONHASHSEED=0`` when the variable is not already ``0``.

From the repository root::

    PYTHONPATH=src python -m benchmarks.fixed_point [--out PATH]

About a minute on a two-core box.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEED = 11
SCALE = "smoke"
OUT = Path(__file__).parent / "results" / "fixed_point.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(workload: str) -> dict:
    """Hashes of one smoke-scale run's simulated artifacts, and its counts."""
    from repro.obs import DecisionLedger, Tracer
    from repro.obs.ledger import write_run_jsonl

    from benchmarks.e2e.stages import _complete, _distinct, _sim_counts
    from benchmarks.e2e.workloads import WORKLOADS

    tracer, ledger = Tracer(), DecisionLedger()
    job = WORKLOADS[workload].build(SEED, SCALE, tracer, ledger)
    reports = _complete(job)
    job.check()
    prometheus, run_files = [], []
    for hub in _distinct(job.deployments, "metrics"):
        prometheus.append(hub.registry.to_prometheus())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.jsonl"
            write_run_jsonl(path, ledger=ledger, registry=hub.registry,
                            meta={"workload": workload, "seed": SEED})
            run_files.append(path.read_text(encoding="utf-8"))
    return {
        "trace_events": len(tracer.events),
        "trace_sha256": _sha256(tracer.to_jsonl()),
        "ledger_entries": len(ledger.entries),
        "ledger_sha256": _sha256(ledger.to_jsonl()),
        "run_file_sha256": _sha256("".join(run_files)),
        "prometheus_sha256": _sha256("".join(prometheus)),
        "sim": _sim_counts(job, reports),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, "-m", "benchmarks.fixed_point",
                   *sys.argv[1:]], env)
    from benchmarks.e2e.workloads import WORKLOADS

    result = {
        "seed": SEED,
        "scale": SCALE,
        "workloads": {name: fingerprint(name) for name in WORKLOADS},
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"[written to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
