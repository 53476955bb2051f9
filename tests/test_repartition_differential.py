"""Differential tests of runtime partition-group split/merge (repartition).

The repartition subsystem (``repro.core.repartition``) splits a skew-hot
partition group into two children at run time — sub-hashing its key range
through the routing trie — and merges cold sibling leaves back.  These
tests prove the adaptation is *invisible to correctness*: seeded skewed
workloads run with split/merge enabled, across the plain and windowed
m-way joins, and runtime ∪ cleanup results must be byte-identical to the
brute-force oracle AND to a no-repartition run — no losses, no
duplicates, no key routed to two live groups.  A crash landing mid-split
must abort the session cleanly and still recover exactly-once, with the
checkpoint registry's routing refinements agreeing between the column
source and the row source.  Every run also passes the full trace-invariant
battery (including invariant 9, the repartition protocol contract) and
the decision-ledger replay + bijection checks.
"""

import pytest

from repro import AdaptationConfig, Deployment, StrategyName, Tracer
from repro.cluster.faults import FaultSchedule, MachineCrash, MachineRestart
from repro.engine.reference import reference_join, result_idents
from repro.obs import check_trace
from repro.obs.ledger import DecisionLedger, check_ledger_trace, verify_replay
from repro.workloads import WorkloadSpec, three_way_join
from repro.workloads.generator import PartitionWorkload
from repro.workloads.patterns import AlternatingPattern, UniformPattern

from tests.helpers import canonical_frozen, feed_rows


def skewed_workload(*, n=8, seed=11, hot=0, weight=4.0, alternating=True):
    """A workload whose key skew concentrates state in one partition group.

    Partition ``hot`` gets ``weight``× the tuple share; with
    ``alternating`` the load pattern additionally cycles a 6× boost on it
    against a fully idle phase, so split pressure builds early and the
    split children later *shrink* (window purge during the idle phase) —
    the precondition for the merge rule to fire.
    """
    parts = tuple(
        PartitionWorkload(pid=i, join_rate=3.0, tuple_range=240,
                          weight=(weight if i == hot else 1.0))
        for i in range(n)
    )
    pattern = (AlternatingPattern([{hot}, frozenset()], period=30.0,
                                  factor=6.0)
               if alternating else UniformPattern())
    return WorkloadSpec(n_partitions=n, partitions=parts, interarrival=0.05,
                        seed=seed, pattern=pattern)


def build(join=None, *, workload=None, repartition=True, checkpoint=False,
          tracer=None, ledger=None, config_overrides=None):
    """A 2-worker deployment tuned so split AND merge sessions fire.

    Relocation is suppressed (high ``theta_r`` would mask skew by moving
    whole groups; a monster group relocated alone on a machine reads zero
    *per-machine* skew, which is exactly why the split rule compares
    against the cluster-wide average group size instead).
    """
    overrides = dict(
        strategy=StrategyName.LAZY_DISK,
        memory_threshold=60_000,
        theta_r=0.05,
        tau_m=10.0,
        coordinator_interval=5.0,
        stats_interval=2.0,
        ss_interval=2.0,
        min_relocation_bytes=1024,
        repartition_enabled=repartition,
        split_skew_factor=2.5,
        split_min_bytes=4_000,
        merge_max_bytes=6_000,
        tau_p=8.0,
    )
    if checkpoint:
        overrides.update(checkpoint_enabled=True, checkpoint_interval=6.0,
                         failure_timeout=5.0)
    if config_overrides:
        overrides.update(config_overrides)
    return Deployment(
        join=join if join is not None else three_way_join(window=10.0),
        workload=workload if workload is not None else skewed_workload(),
        workers=2,
        config=AdaptationConfig(**overrides),
        assignment={"m1": 1.0, "m2": 1.0},
        collect_results=True,
        record_inputs=True,
        tracer=tracer,
        ledger=ledger,
    )


def check_against_reference(dep, report):
    """Runtime ∪ cleanup results == brute-force oracle, no duplicates."""
    runtime = result_idents(dep.collector.results)
    assert len(runtime) == len(dep.collector.results), "duplicate runtime results"
    cleanup = result_idents(report.results)
    assert len(cleanup) == len(report.results), "duplicate cleanup results"
    assert not (runtime & cleanup), "cleanup re-emitted a runtime result"
    reference = result_idents(
        reference_join(dep.source_host.inputs, dep.join.stream_names,
                       window=dep.join.window)
    )
    produced = runtime | cleanup
    assert produced == reference, (
        f"lost {len(reference - produced)}, extra {len(produced - reference)}"
    )
    return produced


def check_observability(tracer, ledger):
    """Full invariant battery + ledger bijection + offline replay."""
    assert check_trace(tracer.events, ledger_entries=ledger.entries) == []
    assert check_ledger_trace(tracer.events, ledger.entries) == []
    assert verify_replay(ledger.entries) == []


class TestSplitMergeDifferential:
    """Seeded skewed runs with repartition on: oracle parity everywhere."""

    def test_windowed_split_and_merge_exactly_once(self):
        """The windowed join under alternating skew performs several
        nested splits AND at least one merge, and stays exactly-once."""
        tracer, ledger = Tracer(), DecisionLedger()
        dep = build(tracer=tracer, ledger=ledger)
        dep.run(duration=120, sample_interval=10)
        rp = dep.coordinator.repartition
        assert rp.splits_completed > 0, "scenario produced no split"
        assert rp.merges_completed > 0, "scenario produced no merge"
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)
        check_observability(tracer, ledger)

    def test_plain_join_splits_exactly_once(self):
        """The unwindowed join (state only grows, so spill + split
        compose) splits the hot group and stays exactly-once."""
        tracer, ledger = Tracer(), DecisionLedger()
        dep = build(
            join=three_way_join(),
            workload=skewed_workload(alternating=False, weight=6.0),
            tracer=tracer,
            ledger=ledger,
            config_overrides=dict(memory_threshold=40_000),
        )
        dep.run(duration=90, sample_interval=10)
        rp = dep.coordinator.repartition
        assert rp.splits_completed > 0, "scenario produced no split"
        assert dep.spill_count > 0, "scenario produced no spill"
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)
        check_observability(tracer, ledger)

    def test_repartition_run_matches_disabled_run(self):
        """Result sets with repartition enabled vs disabled are identical:
        the adaptation moves state, never results."""
        produced = {}
        for enabled in (True, False):
            dep = build(repartition=enabled)
            dep.run(duration=120, sample_interval=10)
            if enabled:
                assert dep.coordinator.repartition.splits_completed > 0
            report = dep.cleanup(materialize=True)
            produced[enabled] = check_against_reference(dep, report)
        assert produced[True] == produced[False]

    def test_split_recovers_throughput_under_memory_pressure(self):
        """What repartition is for: at half the memory and 6x skew the
        unsplit monster group is an all-or-nothing spill victim, so
        productive state rides to disk with it; split into children,
        victim selection regains granularity.  Simulated, so exact for
        the seed (22 790 vs 12 423 run-time outputs, 1.83x)."""
        outputs = {}
        for enabled in (True, False):
            dep = build(workload=skewed_workload(weight=6.0),
                        repartition=enabled,
                        config_overrides=dict(memory_threshold=30_000))
            dep.run(duration=90, sample_interval=10)
            if enabled:
                assert dep.coordinator.repartition.splits_completed > 0
            assert dep.spill_count > 0, "scenario produced no spill"
            outputs[enabled] = dep.total_outputs
        assert outputs[True] >= 1.5 * outputs[False], outputs

    def test_same_seed_produces_byte_identical_traces(self):
        """Repartition sessions are deterministic: same seed + config →
        byte-identical trace JSONL, including every protocol event."""
        blobs = []
        for _ in range(2):
            tracer = Tracer()
            dep = build(tracer=tracer)
            dep.run(duration=120, sample_interval=10)
            assert dep.coordinator.repartition.splits_completed > 0
            blobs.append(tracer.to_jsonl())
        assert blobs[0] == blobs[1]
        assert any('"repartition"' in line for line in blobs[0].splitlines())


class TestControlPlaneAccounting:
    def test_split_session_is_booked_as_control_traffic(self):
        """Everything one split session puts on the wire is control plane:
        order, ack and installed, plus five per split host (pause, paused,
        marker, remap, resumed) — the counters the "GC only needs
        light-weight statistics" argument is tested with."""
        from collections import Counter

        dep = build()
        net, sent = dep.network, []
        send = net.send

        def logging_send(src, dst, kind, payload, size_bytes):
            before = net.stats.control_messages, net.stats.control_bytes
            message = send(src, dst, kind, payload, size_bytes)
            sent.append((dep.sim.now, kind, size_bytes,
                         net.stats.control_messages - before[0],
                         net.stats.control_bytes - before[1]))
            return message

        net.send = logging_send
        dep.run(duration=30, sample_interval=10)
        split = dep.metrics.events.of_kind("repartition")[0]
        assert split.details["action"] == "split"
        start = split.time - split.details["duration"]
        session = [m for m in sent if start <= m[0] <= split.time
                   and m[1] not in ("column_batch", "stats")]
        hosts = len(dep.coordinator.split_hosts)
        assert Counter(kind for __, kind, *__ in session) == {
            "repartition": 1, "repartition_ack": 1, "installed": 1,
            "pause": hosts, "paused": hosts, "marker": hosts,
            "remap": hosts, "resumed": hosts,
        }
        assert sum(m[3] for m in session) == len(session) == 3 + 5 * hosts
        assert sum(m[4] for m in session) == sum(m[2] for m in session)


class TestCrashMidSplit:
    """A machine crash landing inside an active split session."""

    def crashed_run(self, *, rows=False, crash_at=25.03):
        """Run the checkpointed skew scenario, crashing the split owner
        while the 25.0s session is between pause and install (fed row
        lists with ``rows``)."""
        tracer, ledger = Tracer(), DecisionLedger()
        dep = build(checkpoint=True, tracer=tracer, ledger=ledger)
        if rows:
            feed_rows(dep)
        FaultSchedule([
            MachineCrash(time=crash_at, engine=dep.engines["m1"]),
            MachineRestart(time=crash_at + 8.0, engine=dep.engines["m1"]),
        ]).arm(dep.sim)
        dep.run(duration=120, sample_interval=10)
        return dep, tracer, ledger

    @pytest.mark.parametrize("crash_at", [25.03, 25.06])
    def test_crash_mid_split_recovers_exactly_once(self, crash_at):
        """The in-flight session aborts (no half-applied routing flip),
        recovery re-homes the lost state, later splits proceed, and the
        produced results still match the oracle exactly."""
        dep, tracer, ledger = self.crashed_run(crash_at=crash_at)
        assert dep.engines["m1"].crashes == 1
        rp = dep.coordinator.repartition
        assert rp.sessions_aborted >= 1, "crash did not land mid-session"
        assert rp.splits_completed > 0, "no split survived the crash run"
        report = dep.cleanup(materialize=True)
        check_against_reference(dep, report)
        check_observability(tracer, ledger)

    def test_checkpoint_registry_canonical_across_paths(self):
        """After a crash mid-split, the checkpoint registry — snapshot
        contents, routing version and the split refinement map recovery
        replays through — is canonically identical whether the source
        routes arrival batches as columns or is fed row lists."""
        registries = {}
        for rows in (True, False):
            dep, tracer, ledger = self.crashed_run(rows=rows)
            report = dep.cleanup(materialize=True)
            check_against_reference(dep, report)
            check_observability(tracer, ledger)
            registries[rows] = (
                dep.registry.routing_version,
                tuple(sorted(dep.registry.refinements.items())),
                tuple(sorted(
                    (e.pid, e.owner, e.holder, e.time, e.live,
                     canonical_frozen(e.frozen))
                    for e in dep.registry.entries()
                )),
            )
        assert registries[True] == registries[False]
        assert registries[True][1], "no refinement survived the crash"
