"""Deterministic discrete-event simulation kernel.

Every component of the reproduced system — stream sources, query engines,
the global coordinator, disks and the network — advances time exclusively
through this kernel.  The kernel is a classic calendar queue built on
:mod:`heapq`:

* :class:`Simulator` owns the clock and the pending-event heap.
* :class:`Event` is a cancellable handle to a scheduled callback.
* :class:`Timer` is a recurring event helper used for the paper's
  ``ss_timer`` / ``sr_timer`` / ``lb_timer`` control loops (Tables 1-2 of
  the paper).

Determinism guarantees
----------------------
Events scheduled for the same instant fire in schedule order (a monotonically
increasing sequence number breaks ties), so a run is a pure function of the
configuration and the RNG seed.  This is what lets the benchmark harness
reproduce the paper's figures exactly across machines and runs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. time travel)."""


class Event:
    """A cancellable handle to one scheduled callback.

    Instances are created by :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only ever needs
    :meth:`cancel` and the :attr:`time` attribute.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: "Simulator | None" = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.

        Cancelling an already-fired or already-cancelled event is a no-op,
        which makes shutdown paths simple to write.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "b")
    >>> _ = sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    #: Never compact heaps smaller than this — the list rebuild costs more
    #: than the cancelled entries it reclaims.
    COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        #: ``(time, seq, event)`` entries: ``seq`` is unique, so ordering is
        #: settled by float/int comparison and the event is never compared
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time!r}; clock is at {self.now!r}")
        seq = next(self._seq)
        event = Event(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def _note_cancel(self) -> None:
        """Bookkeeping hook called by :meth:`Event.cancel`.

        Keeps a live count of cancelled-but-still-resident entries so
        :attr:`pending` is O(1), and lazily compacts the heap once dead
        entries outnumber live ones — long runs with heavy timer churn
        (100+ machines re-arming stats/ss timers) would otherwise grow the
        heap without bound until the dead entries happen to reach the top.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if len(heap) >= self.COMPACT_FLOOR and self._cancelled_in_heap * 2 > len(heap):
            # in place: ``run`` holds a reference to the list across callbacks
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next pending event.

        Returns ``True`` if an event fired, ``False`` if the heap is empty.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[2]
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            self.now = event.time
            event.fired = True
            self._events_processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the heap drains, the clock passes ``until``, or
        ``max_events`` events have fired (whichever comes first).

        When stopped by ``until``, the clock is advanced exactly to ``until``
        and any event scheduled strictly later stays pending, so a subsequent
        ``run`` call continues seamlessly — the harness uses this to take
        periodic metric samples.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            fired = 0
            heap = self._heap
            heappop = heapq.heappop
            while heap:
                if max_events is not None and fired >= max_events:
                    break
                time, _seq, nxt = heap[0]
                if nxt.cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                if until is not None and time > until:
                    break
                heappop(heap)
                self.now = time
                nxt.fired = True
                self._events_processed += 1
                nxt.callback(*nxt.args)
                fired += 1
            if until is not None and until > self.now:
                # Advance to the requested horizon, but never past a pending
                # event: when max_events stopped the run mid-window, jumping
                # over due work would let the clock travel backwards on the
                # next step().
                nxt_time = self.peek_time()
                if nxt_time is None or nxt_time > until:
                    self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still on the heap (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def compactions(self) -> int:
        """Number of lazy heap compactions performed since construction."""
        return self._compactions

    @property
    def events_processed(self) -> int:
        """Total number of events fired since construction."""
        return self._events_processed

    def peek_time(self) -> float | None:
        """Time of the next pending event, or ``None`` if the heap is empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
            self._cancelled_in_heap -= 1
        return self._heap[0][0] if self._heap else None


class Timer:
    """Recurring timer built on top of :class:`Simulator`.

    Models the paper's control-loop timers (``ss_timer``, ``sr_timer``,
    ``lb_timer``): the callback fires every ``interval`` seconds until
    :meth:`stop` is called.  The callback may call :meth:`reset` to restart
    the period from "now" (mirroring the explicit ``timer.reset()`` in the
    paper's Algorithms 1 and 2).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        *,
        start: bool = True,
        first_delay: float | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._event: Event | None = None
        self._stopped = True
        if start:
            self.start(first_delay=first_delay)

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self, first_delay: float | None = None) -> None:
        """(Re)arm the timer; the first firing happens after ``first_delay``
        (defaults to one full ``interval``)."""
        self.stop()
        self._stopped = False
        delay = self.interval if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Cancel the pending firing and stop recurring."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def reset(self) -> None:
        """Restart the current period from the present instant."""
        if not self._stopped:
            self.start()

    def _fire(self) -> None:
        if self._stopped:
            return
        # Re-arm before invoking the callback so that a callback calling
        # reset()/stop() sees a consistent pending state.
        self._event = self._sim.schedule(self.interval, self._fire)
        self._callback()
