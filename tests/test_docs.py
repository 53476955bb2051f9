"""The module maps in the top-level documents name only files that exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: a package module (``repro/...py``, resolved under ``src/``) or a file /
#: directory under ``tests/``, ``benchmarks/`` or ``examples/``; a dotted
#: name after a module (``workloads._columnar``) stops at its directory
PATH = re.compile(
    r"(?<![\w./-])(?:src/)?"
    r"(repro/(?:\w+/)*\w+\.py"
    r"|(?:tests|benchmarks|examples)/(?:[\w-]+/)*(?:[\w-]+\.(?:py|md|json|yml))?)"
)

#: run outputs (``benchmarks/results/<test>.txt``, retired baselines), not
#: part of the source tree a module map describes
GENERATED = "benchmarks/results/"


def named_paths(doc: str) -> list[tuple[int, str]]:
    text = (ROOT / doc).read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(1))
        for m in PATH.finditer(text)
        if not m.group(1).startswith(GENERATED)
    ]


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_exist(doc):
    paths = named_paths(doc)
    assert paths, f"{doc} names no paths: the pattern no longer matches"
    missing = [
        f"{doc}:{line}: {path}"
        for line, path in paths
        if not (ROOT / ("src" if path.startswith("repro/") else "") / path).exists()
    ]
    assert not missing, "stale paths:\n" + "\n".join(missing)
