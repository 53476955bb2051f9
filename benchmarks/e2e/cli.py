"""Command line of the end-to-end benchmark.

Two ways in:

* the benchmark driver runs ``python3 benchmarks/e2e/run.py --workload W
  --seed N --seconds T --trace 0|1`` — one workload, and the last line of
  standard output is the result object the contract in ``BENCHMARK.json``
  describes;
* people run ``python -m benchmarks.e2e run | compare | aa`` (see
  ``README.md``).

Each measured run is a child interpreter (``child.py``); children run
strictly one after another, because the machine has two cores and a
second busy process would disturb the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from . import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 170
MIN_REPEATS = 3
#: the unit of the speed correction: host times are reported as seconds on
#: a machine that runs :func:`reference_loop` in exactly this long.  Only
#: its being the same on both sides of a comparison matters.
REFERENCE_LOOP_S = 0.24


class BenchmarkError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Running the stages
# ----------------------------------------------------------------------
def child(stage: str, workload: str, seed: int, scale: str, *flags: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    # str hashes differ per process otherwise; pin them so that dict
    # collisions are not one more source of run-to-run noise
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.child", stage, workload,
         str(seed), scale, *flags],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise BenchmarkError(
            f"{stage} run of {workload} failed (exit {done.returncode}):\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def reference_loop() -> float:
    """Seconds this machine needs, right now, for a fixed piece of
    pure-Python work that no change to the program can alter."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(2_000_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def timed_runs(workload: str, seed: int, scale: str, *,
               repeats: int | None = None, seconds: float | None = None
               ) -> tuple[list[dict], list[float]]:
    """``repeats`` runs, or as many as fit into ``seconds`` (at least
    :data:`MIN_REPEATS`); the work per run is fixed either way.  Also
    returns the reference-loop times taken before, between and after them.
    """
    runs: list[dict] = []
    loops = [reference_loop()]
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        runs.append(child("timed", workload, seed, scale))
        loops.append(reference_loop())
        now = time.perf_counter()
        if repeats is not None:
            if len(runs) >= repeats:
                return runs, loops
        elif len(runs) >= MIN_REPEATS and (now - started) + (now - t0) > seconds:
            return runs, loops


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: list[dict], loops: list[float], tuples_injected: int) -> dict:
    """Median (with quartiles and n) of every end-to-end metric.

    The box this runs on slows down by 10-60%, in bursts of a second and
    in phases of minutes, so the runs of an invocation slow down together
    and no statistic over them alone removes it.  The reference loops
    clocked right before and after a run slow down with it: each run's
    host times are divided by ``slowdown`` = mean of its two neighbouring
    loops / :data:`REFERENCE_LOOP_S`, and the median is taken afterwards.
    The median as clocked is kept beside each value as ``raw``.
    ``README.md`` records what this does to the spread between
    invocations, per workload, in a quiet and in a noisy phase.
    """
    slowdown = [(before + after) / 2 / REFERENCE_LOOP_S
                for before, after in zip(loops, loops[1:])]
    clocked = {
        "setup_s": [r["setup_s"] for r in runs],
        "input_tuples_per_s": [tuples_injected / r["run_s"] for r in runs],
        "complete_result_s": [r["complete_result_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "sim_runtime_outputs": [sum(r["sim"]["runtime_outputs"]) for r in runs],
    }
    power = {"setup_s": -1, "complete_result_s": -1, "input_tuples_per_s": 1}
    return {
        m.name: {
            **_summary([v * f ** power.get(m.name, 0)
                        for v, f in zip(clocked[m.name], slowdown)]),
            "unit": m.unit,
            "raw": statistics.median(clocked[m.name]),
        }
        for m in spec.END_TO_END
    }


def measure(workload: str, seed: int, scale: str, *, repeats: int | None = None,
            seconds: float | None = None, with_timed: bool = True,
            with_trace: bool = True, drop_one_result: bool = False) -> dict:
    """All stages of one workload; see ``stages.py``."""
    out: dict = {"workload": workload, "seed": seed, "scale": scale}
    problems: list[str] = []
    if with_trace and not with_timed:
        repeats = 1  # only the base the trace overhead is taken against
    runs, loops = timed_runs(workload, seed, scale, repeats=repeats,
                             seconds=seconds)
    flags = ("--drop-one-result",) if drop_one_result else ()
    verify = child("verify", workload, seed, scale, *flags)
    sims = [r["sim"] for r in runs] + [verify["sim"]]
    out["verify"] = verify
    problems += verify["violations"]
    if with_timed:
        out["timed_runs"] = runs
        out["machine_slowdown"] = statistics.median(loops) / REFERENCE_LOOP_S
        out["end_to_end"] = end_to_end(runs, loops, verify["tuples_injected"])
    if with_trace:
        traced = child("traced", workload, seed, scale)
        sims.append(traced.pop("sim"))
        base = statistics.median(r["complete_result_s"] for r in runs)
        traced["per_layer"]["bench.trace_overhead_frac"] = (
            traced["traced_wall_s"] / base - 1.0
        )
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{workload}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "scale": scale,
             **{k: traced.pop(k) for k in ("trace", "layers", "wrapper_cost_s")},
             "wall_s": traced["traced_wall_s"]},
            indent=1,
        ))
        out["traced"] = traced
    out["sim"] = sims[0]
    if any(sim != sims[0] for sim in sims):
        problems.append("simulated statistics differ between runs of one seed: "
                        + json.dumps(sims))
    out["ops_attempted"] = verify["ops_attempted"]
    out["ops_failed"] = verify["ops_failed"]
    out["results_wrong_frac"] = verify["ops_failed"] / verify["ops_attempted"]
    out["problems"] = problems
    out["correct"] = not problems and verify["ops_failed"] == 0
    return out


# ----------------------------------------------------------------------
# Driver mode
# ----------------------------------------------------------------------
def driver(args) -> int:
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.scale, seconds=args.seconds,
                     with_timed=not trace, with_trace=trace,
                     drop_one_result=args.drop_one_result)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if trace:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        values = result["traced"]["per_layer"]
        shown = {n: {"value": values[n], "unit": units[n]} for n in units}
        print_layers(args.workload, result["traced"])
    else:
        shown = {n: {"value": e["value"], "unit": e["unit"]}
                 for n, e in result["end_to_end"].items()}
        print_end_to_end(args.workload, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": shown,
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_end_to_end(workload: str, result: dict) -> None:
    clock = {m.name: m.clock for m in spec.END_TO_END}
    for name, e in result["end_to_end"].items():
        print(f"{workload:18s} {name:22s} {e['value']:>16.6g} {e['unit']:6s}"
              f" [{clock[name]}]  q1={e['q1']:.6g} q3={e['q3']:.6g} n={e['n']}"
              f" as clocked={e['raw']:.6g}")
    print(f"{workload:18s} machine_slowdown       "
          f"{result['machine_slowdown']:>16.6g} ratio   (median reference loop / "
          f"{REFERENCE_LOOP_S} s; each run above is divided by its own)")
    print(f"{workload:18s} {'results_wrong_frac':22s} "
          f"{result['results_wrong_frac']:>16.6g} ratio   "
          f"ops_attempted={result['ops_attempted']} "
          f"ops_failed={result['ops_failed']} "
          f"({result['verify']['check']}: "
          f"{len(result['verify']['violations'])} violations)")


def print_layers(workload: str, traced: dict) -> None:
    by_name = {m.name: m for m in spec.PER_LAYER}
    for name, value in traced["per_layer"].items():
        if value:
            m = by_name[name]
            print(f"{workload:18s} {name:42s} {value:>16.6g} {m.unit:6s}"
                  f" [{m.clock}]")
    for name in traced["absent"]:
        print(f"{workload:18s} {name:42s} calls=0 absent=true")


# ----------------------------------------------------------------------
# run / compare / aa
# ----------------------------------------------------------------------
def _git_head() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_set(seed: int, repeats: int, scale: str) -> dict:
    record = {
        "commit": _git_head(),
        "seed": seed,
        "scale": scale,
        "repeats": repeats,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host": platform.node(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    for name in spec.WORKLOADS:
        result = measure(name, seed, scale, repeats=repeats)
        print_end_to_end(name, result)
        print_layers(name, result["traced"])
        for problem in result["problems"]:
            print(f"PROBLEM in {name}: {problem}", file=sys.stderr)
        record["workloads"][name] = result
    record["correct"] = all(w["correct"] for w in record["workloads"].values())
    return record


def save(record: dict, out: Path | None) -> None:
    RESULTS.mkdir(exist_ok=True)
    text = json.dumps(record, indent=1)
    (RESULTS / "latest.json").write_text(text)
    if out is not None:
        out.write_text(text)
    line = {k: v for k, v in record.items() if k != "workloads"}
    line["workloads"] = {
        name: {
            "end_to_end": {m: e["value"] for m, e in w["end_to_end"].items()},
            "results_wrong_frac": w["results_wrong_frac"],
            "sim": w["sim"],
        }
        for name, w in record["workloads"].items()
    }
    with open(RESULTS / "history.jsonl", "a") as history:
        history.write(json.dumps(line) + "\n")


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """One row per workload x metric of ``b`` against base ``a``.

    Host metrics are held to their bound in ``BENCHMARK.json``; one whose
    base quartiles are further apart than that bound is *unresolved*: such
    runs cannot show whether it moved.  Simulated statistics and counts
    repeat exactly for a seed, so on the same seed any difference counts.
    """
    rows: list[str] = []
    regressed = False
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None:
            rows.append(f"{name:18s} missing from the second file")
            regressed = True
            continue
        same_input = (a.get("seed"), base.get("scale")) == (
            b.get("seed"), new.get("scale"))
        for m in spec.END_TO_END:
            ea, eb = base["end_to_end"][m.name], new["end_to_end"][m.name]
            va, vb = ea["value"], eb["value"]
            ratio = f"{vb:>14.6g} / {va:<14.6g} = {vb / va:.4f}  (base {va:.6g} {m.unit}"
            if m.clock == "sim":
                verdict = "identical" if va == vb else "DIFFERS"
                rows.append(f"{name:18s} {m.name:22s} {ratio}, exact)  {verdict}")
                continue
            worse = (vb - va) if m.better == "lower" else (va - vb)
            allowed = m.bound * abs(va)
            if m.name == "setup_s":
                allowed = max(allowed, spec.SETUP_SLACK_S)
            spread = (ea["q3"] - ea["q1"]) / abs(va)
            if spread > m.bound:
                verdict = "unresolved"
            elif worse > allowed:
                verdict = "REGRESSED"
                regressed = True
            elif -worse > allowed:
                verdict = "improved"
            else:
                verdict = "within bound"
            rows.append(f"{name:18s} {m.name:22s} {ratio}, spread {spread:.3f}, "
                        f"bound {m.bound:.2f})  {verdict}")
        if base["sim"] != new["sim"]:
            rows.append(f"{name:18s} simulated statistics and counts differ"
                        + ("" if same_input else " (different seed or scale)"))
            regressed = regressed or same_input
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    def seed_and_scale(p, seed=11, scale="full") -> None:
        p.add_argument("--seed", type=int, default=seed)
        p.add_argument("--scale", choices=("full", "smoke"), default=scale,
                       help="smoke: the self-tests' sizes, seconds in all")

    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        default=spec.CONTRACT["run_seconds"],
                        help="timed runs repeat until this much time is used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--drop-one-result", action="store_true",
                        help=argparse.SUPPRESS)  # the self-tests' mutation
    seed_and_scale(parser)
    sub = parser.add_subparsers(dest="command")
    for name in ("run", "aa"):
        p = sub.add_parser(name)
        # after the command too; unset there, the value before it stands
        seed_and_scale(p, argparse.SUPPRESS, argparse.SUPPRESS)
        p.add_argument("--repeats", type=int, default=5)
        p.add_argument("--out", type=Path, help="also write the set here")
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    try:
        if args.command is None:
            if args.workload is None:
                parser.error("give --workload, or one of: run, compare, aa")
            return driver(args)
        if args.command == "compare":
            rows, regressed = compare(json.loads(args.a.read_text()),
                                      json.loads(args.b.read_text()))
            print("\n".join(rows))
            return 1 if regressed else 0
        first = run_set(args.seed, args.repeats, args.scale)
        save(first, args.out)
        if args.command == "run":
            return 0 if first["correct"] else 1
        second = run_set(args.seed, args.repeats, args.scale)
        save(second, None)
        forward, bad_forward = compare(first, second)
        __, bad_backward = compare(second, first)
        print("\n".join(forward))
        agree = first["correct"] and second["correct"] and not (
            bad_forward or bad_backward)
        print("A/A: the two sets", "agree" if agree else "DISAGREE")
        return 0 if agree else 1
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1
