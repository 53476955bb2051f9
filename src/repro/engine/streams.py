"""Stream sources and output collection.

:class:`StreamSource` plays the role of the paper's dedicated *stream
generator* machine: it schedules tuple arrivals (in small batches, to keep
the event count manageable for hour-long simulated runs) into the split
host.  :class:`OutputCollector` plays the *application server*: it absorbs
the joined results, keeps the cumulative output count every throughput
figure plots, and optionally feeds materialised results through downstream
operators (the group-by aggregate of Query 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.cluster.simulation import Simulator
from repro.engine.operators.base import Operator
from repro.engine.tuples import ArrivalBatch, JoinResult
from repro.workloads.generator import TupleGenerator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.query_engine import SourceHost


class OutputCollector:
    """Terminal sink of the running query.

    Parameters
    ----------
    downstream:
        Operators applied (in order) to each materialised result — e.g. the
        group-by aggregate of Query 1.  Only invoked when results are
        materialised.
    collect:
        Keep the materialised :class:`~repro.engine.tuples.JoinResult`
        objects (correctness mode; large runs leave this off and only
        count).
    """

    def __init__(self, downstream: list[Operator] | None = None, *,
                 collect: bool = False) -> None:
        self.downstream = downstream or []
        self.collect = collect
        self.total = 0
        self._results: list[JoinResult] = []
        #: result batches absorbed since :attr:`results` was last read,
        #: exactly as they were handed over (not iterated)
        self._kept: list[Sequence[JoinResult]] = []
        self.downstream_outputs: list = []

    @property
    def results(self) -> list[JoinResult]:
        """Every collected result, in delivery order.

        The collector keeps the batches it is handed and flattens them
        here, so the rows of a lazy
        :class:`~repro.engine.columns.ResultBatch` are boxed on first read
        (once per batch, however many collectors hold it) and cached.
        """
        if self._kept:
            kept, self._kept = self._kept, []
            for batch in kept:
                self._results.extend(batch)
        return self._results

    def add(self, count: int, results: Sequence[JoinResult], now: float,
            source: str | None = None) -> None:
        """Absorb one batch of join outputs produced at time ``now``.

        ``source`` names the producing machine; the plain collector ignores
        it, but pipeline bridges use it as the network source address.
        """
        self.total += count
        if results:
            if self.collect:
                self._kept.append(results)
            if self.downstream:
                for result in results:
                    items = [result]
                    for op in self.downstream:
                        nxt = []
                        for item in items:
                            nxt.extend(op.process(item))
                        items = nxt
                    self.downstream_outputs.extend(items)


class StreamSource:
    """Drives one input stream's arrivals into the split host.

    Tuples are delivered in batches of ``batch_size``: one simulator event
    fires at the arrival time of the batch's last tuple and injects the
    whole batch.  With the paper's 30 ms inter-arrival and the default
    batch of 25 this coarsens timing by <1 s — far below the figures'
    sampling interval — while cutting the event count by 25x.

    A batch is an :class:`~repro.engine.tuples.ArrivalBatch` — the
    generator's columns, unopened; per-tuple objects exist only if the
    host iterates it.  ``stop_at`` (generator-relative time of the last
    arrival to deliver) is handed to the generator when the source starts,
    so it can only be set before :meth:`start`.
    """

    def __init__(
        self,
        sim: Simulator,
        generator: TupleGenerator,
        host: "SourceHost",
        *,
        batch_size: int = 25,
        stop_at: float | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.sim = sim
        self.generator = generator
        self.host = host
        self.batch_size = batch_size
        self._batches: Iterator[ArrivalBatch] | None = None
        self.stop_at = stop_at
        self.tuples_sent = 0
        self._stopped = False
        #: simulator time at :meth:`start`; generator arrival times (and
        #: ``stop_at``) are relative to it, so a query admitted mid-run by
        #: the serving layer replays the exact arrival pattern a t=0
        #: launch would see, just shifted.
        self._t0 = 0.0

    @property
    def stream(self) -> str:
        return self.generator.stream

    @property
    def stop_at(self) -> float | None:
        return self._stop_at

    @stop_at.setter
    def stop_at(self, value: float | None) -> None:
        if self._batches is not None and value != self._stop_at:
            raise RuntimeError("stop_at cannot change once the source started")
        self._stop_at = value

    def start(self) -> None:
        """Begin generating arrivals (idempotent)."""
        if self._batches is not None:
            return
        self._t0 = self.sim.now
        self._batches = self.generator.batches(
            self.batch_size, stop_at=self.stop_at
        )
        self._schedule_next_batch()

    def stop(self) -> None:
        """Stop after the currently scheduled batch (if any) delivers."""
        self._stopped = True

    def _schedule_next_batch(self) -> None:
        if self._stopped or self._batches is None:
            return
        batch = next(self._batches, None)
        if batch is None:  # the generator ran into ``stop_at``
            self._stopped = True
            return
        self.sim.schedule_at(self._t0 + batch.ts[-1], self._deliver, batch)

    def _deliver(self, batch: ArrivalBatch) -> None:
        self.tuples_sent += len(batch)
        self.host.inject(self.stream, batch)
        self._schedule_next_batch()
