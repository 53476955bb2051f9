"""One stage of one workload in a fresh interpreter.

``python -m benchmarks.e2e.child STAGE WORKLOAD SEED SCALE`` prints the
stage's result as one JSON line.  The clock for ``setup_s`` starts here,
before ``repro`` is imported, because a user pays for that import too.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    stage, workload, seed, scale, *flags = argv
    from . import stages

    if stage == "timed":
        result = stages.timed(workload, int(seed), scale, T_START)
    elif stage == "verify":
        result = stages.verify(workload, int(seed), scale,
                               drop_one_result="--drop-one-result" in flags)
    elif stage == "traced":
        result = stages.traced(workload, int(seed), scale)
    else:
        raise SystemExit(f"unknown stage {stage!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
