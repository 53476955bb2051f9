"""Smoke tests for the scripts in ``examples/``.

Every example must at least import cleanly (it is documentation that
executes), and the headline ones — ``quickstart.py``,
``adaptive_cluster.py``, ``pipeline_integration.py`` and more — are run
end-to-end at a drastically shortened simulated duration so a refactor
that breaks the public API surface they exercise fails the suite, not
the first user.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def load_example(filename):
    """Import one example file as a throwaway module."""
    path = EXAMPLES_DIR / filename
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    # examples import siblings' idioms only via repro; no package context
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


def test_examples_directory_is_populated():
    assert "quickstart.py" in ALL_EXAMPLES
    assert "adaptive_cluster.py" in ALL_EXAMPLES


@pytest.mark.parametrize("filename", ALL_EXAMPLES)
def test_example_imports_cleanly(filename):
    module = load_example(filename)
    assert callable(getattr(module, "main", None)), (
        f"{filename} should expose a main() entry point"
    )


def test_quickstart_runs_short(capsys):
    module = load_example("quickstart.py")
    module.main(duration=20.0)
    out = capsys.readouterr().out
    assert "complete answer" in out
    assert "cleanup phase" in out


def test_pipeline_integration_runs_short(capsys):
    module = load_example("pipeline_integration.py")
    module.main(duration=20.0)
    out = capsys.readouterr().out
    assert "cross-stage cleanup" in out
    assert "complete pipeline answer" in out


def test_adaptive_cluster_runs_short(capsys):
    module = load_example("adaptive_cluster.py")
    module.main(duration=15.0)
    out = capsys.readouterr().out
    # one row per strategy plus the comparison table
    assert out.count(": done") == 5
    assert "lazy_disk" in out


def test_explain_adaptation_runs_short(capsys):
    module = load_example("explain_adaptation.py")
    module.main(duration=60.0)
    out = capsys.readouterr().out
    # both strategies ran, their ledgers verified against their traces
    assert out.count("ledger vs trace: consistent") == 2
    assert "lazy_disk" in out and "active_disk" in out
    # decision summaries and at least one plain-English why line
    assert "decisions recorded" in out
    assert "because" in out
