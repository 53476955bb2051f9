"""Shared helpers for integration tests."""

from __future__ import annotations

from repro import AdaptationConfig, Deployment, StrategyName
from repro.workloads import WorkloadSpec, three_way_join

from tests.row_group import key_counts


def small_deployment(
    *,
    strategy=StrategyName.LAZY_DISK,
    workers=2,
    n_partitions=12,
    join_rate=4.0,
    tuple_range=400,
    interarrival=0.02,
    duration=60.0,
    memory_threshold=30_000,
    assignment=None,
    collect=False,
    seed=7,
    config_overrides=None,
    workload=None,
    **deployment_kwargs,
):
    """Build (but do not run) a fast, small deployment for integration tests.

    Scale: ~3k tuples/stream/minute, a dozen partitions — seconds of wall
    clock, while still triggering several spills and relocations.
    """
    overrides = dict(
        memory_threshold=memory_threshold,
        theta_r=0.9,
        tau_m=10.0,
        coordinator_interval=5.0,
        stats_interval=2.0,
        ss_interval=2.0,
        min_relocation_bytes=1024,
    )
    if config_overrides:
        overrides.update(config_overrides)
    config = AdaptationConfig(strategy=strategy, **overrides)
    if workload is None:
        workload = WorkloadSpec.uniform(
            n_partitions=n_partitions,
            join_rate=join_rate,
            tuple_range=tuple_range,
            interarrival=interarrival,
            seed=seed,
        )
    deployment = Deployment(
        join=three_way_join(),
        workload=workload,
        workers=workers,
        config=config,
        assignment=assignment,
        collect_results=collect,
        record_inputs=collect,
        **deployment_kwargs,
    )
    deployment._test_duration = duration  # convenience for callers
    return deployment


def feed_rows(deployment):
    """Hand ``deployment``'s source host plain row lists instead of arrival
    batches, so every arrival takes :meth:`SourceHost.inject`'s row branch
    (``Split.process`` + ``ColumnBatch.from_routed``) — the row side the
    whole-run source differentials compare the column route against.
    Returns the deployment (not yet run)."""
    host = deployment.source_host
    inject = host.inject
    host.inject = lambda stream, batch: inject(stream, list(batch))
    return deployment


def assert_no_violations(tracer, name):
    """Run a tracer's events through the invariant checker.

    On failure the offending trace is written to ``trace-artifacts/`` so
    CI can upload it for post-mortem before the assertion fires.
    """
    import pathlib

    from repro.obs import check_trace
    from repro.obs.trace import load_jsonl

    events = load_jsonl(tracer.to_jsonl().splitlines())
    violations = check_trace(events)
    if violations:
        artifacts = pathlib.Path("trace-artifacts")
        artifacts.mkdir(exist_ok=True)
        path = artifacts / f"{name}.jsonl"
        tracer.write_jsonl(path)
        lines = "\n".join(f"  [{v.check}] {v.message} (seq={v.seq})"
                          for v in violations)
        raise AssertionError(
            f"{len(violations)} invariant violation(s) in {name} "
            f"(trace saved to {path}):\n{lines}"
        )
    return events


def assert_rules_replay(entries):
    """Replay is the policy function the live site called, so the recorded
    ``rule`` — not only the action — reproduces on every entry, executed
    relocations, spills, admissions and membership changes included."""
    from repro.obs.ledger import replay_decision, verify_replay

    assert verify_replay(entries) == []
    for entry in entries:
        assert replay_decision(entry)["rule"] == entry["rule"], entry


def canonical_frozen(frozen):
    """Representation-independent canonical form of a frozen group.

    Row-format and columnar snapshots of the same logical state must
    compare equal: identity covers the statistics the adaptation rules
    read plus the full per-stream key histogram and the global tuple
    identity set — everything observable about a snapshot, nothing about
    its storage layout.
    """
    return (
        frozen.pid,
        frozen.generation,
        frozen.size_bytes,
        frozen.tuple_count,
        frozen.output_count,
        tuple(sorted(
            (stream, tuple(sorted(counts.items())))
            for stream, counts in key_counts(frozen).items()
        )),
        frozenset(
            (tup.stream, tup.seq)
            for stream in frozen.streams
            for tup in frozen.tuples_of(stream)
        ),
    )
