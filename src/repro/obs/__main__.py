"""Command-line entry points for the observability layer.

``python -m repro.obs report run.jsonl``
    Render a run file (written by a ``--ledger``-enabled benchmark or
    :func:`repro.obs.ledger.write_run_jsonl`) as markdown, ``--html`` for
    HTML, ``--out`` to write to a file, ``--diff other.jsonl`` to compare
    two runs.

``python -m repro.obs check --trace trace.jsonl [--ledger run.jsonl]``
    Re-run the protocol invariants over a recorded trace and, when a
    ledger/run file is given, the ledger↔trace bijection plus the offline
    decision replay.  Exits 1 if any contract is violated.

Either command exits 2 with one ``error:`` line when an input file is
missing or unreadable, or holds a line that is not JSON or not a record
of its kind.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.invariants import check_trace
from repro.obs.report import load_run, render_diff, render_html, render_markdown
from repro.obs.trace import load_jsonl as load_trace_jsonl


def _input_error(exc: Exception) -> int:
    """A missing or malformed input file: one line, exit code 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        run = load_run(args.run)
        base = None if args.diff is None else load_run(args.diff)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    if base is not None:
        text = render_diff(base, run,
                           label_a=str(args.diff), label_b=str(args.run))
    elif args.html:
        text = render_html(run)
    else:
        text = render_markdown(run)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _ledger_entries(path) -> list:
    # accept both raw ledger JSONL (no "kind" wrapper) and run files
    entries = load_run(path).decisions
    if not entries:
        from repro.obs.ledger import load_jsonl as load_ledger_jsonl

        entries = [e for e in load_ledger_jsonl(path) if "action" in e]
    return entries


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        events = load_trace_jsonl(args.trace)
        entries = None if args.ledger is None else _ledger_entries(args.ledger)
    except (OSError, ValueError) as exc:
        return _input_error(exc)
    violations = check_trace(events, ledger_entries=entries)
    for violation in violations:
        print(violation)
    checked = f"{len(events)} trace events"
    if entries is not None:
        checked += f", {len(entries)} ledger entries"
    if violations:
        print(f"{len(violations)} violation(s) over {checked}")
        return 1
    print(f"ok: {checked}, no violations")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render run reports and check recorded runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="render a run file")
    report.add_argument("run", help="run JSONL (bench --ledger output)")
    report.add_argument("--out", help="write the report here instead of stdout")
    report.add_argument("--html", action="store_true",
                        help="render HTML instead of markdown")
    report.add_argument("--diff", metavar="OTHER",
                        help="compare OTHER (baseline) against RUN")
    report.set_defaults(func=_cmd_report)

    check = sub.add_parser("check", help="run invariants over a recorded run")
    check.add_argument("--trace", required=True, help="trace JSONL")
    check.add_argument("--ledger",
                       help="run/ledger JSONL for the bijection + replay checks")
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
