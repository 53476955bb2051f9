"""Machine model: a FIFO CPU server plus byte-accurate memory accounting.

Each cluster node in the paper runs one query engine.  The model here
captures the two resources the paper's adaptations manage:

* **CPU** — the machine executes :class:`Task` objects strictly FIFO within
  a priority class.  Data processing (probing a join, routing a tuple) and
  adaptation work (serialising state to disk, packing state for the network)
  all occupy the CPU for their configured service time, so an expensive
  spill genuinely delays tuple processing — this is what produces the
  throughput dips visible in the paper's Figures 5 and 13.
* **Memory** — operator state is charged via :meth:`allocate` /
  :meth:`release`.  The paper's adaptations read a memory *threshold*, not
  a physical limit: the ``ss_timer`` check (``QE_memory > threshold``)
  reads :attr:`memory_used`, and a machine that fails to adapt simply
  shows unbounded growth in the recorded memory series.

Control-plane tasks (adaptation protocol steps) run at
:data:`PRIORITY_CONTROL` and overtake queued data tuples, mirroring the real
engine where the adaptation controller preempts the processing loop.

Task execution model
--------------------
Because the machine is a *serial* server, a task's state mutations are
performed when the task **starts service** (``begin``), and its observable
outputs are released when it **completes** (``finish``), after the service
time its own execution determined.  Splitting begin/finish lets join work
charge a per-result CPU cost that is only known once the probe has run,
while still delaying the downstream emission by that cost.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cluster.simulation import Simulator

PRIORITY_CONTROL = 0
PRIORITY_DATA = 1

#: A task's begin() returns (service_time, finish_callback_or_None).
BeginResult = tuple[float, Callable[[], None] | None]


class Task:
    """A fixed-cost unit of CPU work.

    ``action`` runs when the task starts service; the machine then stays
    busy for ``service_time`` seconds.  For work whose cost depends on its
    own outcome, use :class:`DynamicTask`.
    """

    __slots__ = ("service_time", "action", "priority", "label")

    def __init__(
        self,
        service_time: float,
        action: Callable[[], None] | None = None,
        *,
        priority: int = PRIORITY_DATA,
        label: str = "",
    ) -> None:
        if service_time < 0:
            raise ValueError(f"negative service time {service_time!r}")
        self.service_time = service_time
        self.action = action
        self.priority = priority
        self.label = label

    def begin(self) -> BeginResult:
        if self.action is not None:
            self.action()
        return self.service_time, None


#: ``DynamicTask.arg`` when ``begin_fn`` takes no argument
_NO_ARG = object()


class DynamicTask:
    """A unit of CPU work that determines its own service time.

    ``begin_fn`` executes when the task starts service (performing any state
    mutation) and returns ``(service_time, finish)``.  ``finish`` — if not
    ``None`` — runs when the service time has elapsed; it is where outputs
    are handed downstream.

    ``begin_fn`` is called with ``arg`` when one is given, else with no
    argument.  A data message waits in the queue as a task, so the data
    handlers pass one handler bound per engine and the message payload
    instead of a fresh closure: a waiting message is then the task and its
    payload, not also a function, its closure tuple and a cell per
    captured name.
    """

    __slots__ = ("begin_fn", "arg", "priority", "label")

    def __init__(
        self,
        begin_fn: Callable[..., BeginResult],
        arg: object = _NO_ARG,
        *,
        priority: int = PRIORITY_DATA,
        label: str = "",
    ) -> None:
        self.begin_fn = begin_fn
        self.arg = arg
        self.priority = priority
        self.label = label

    def begin(self) -> BeginResult:
        arg = self.arg
        if arg is _NO_ARG:
            return self.begin_fn()
        return self.begin_fn(arg)


class Machine:
    """One cluster node: FIFO CPU server + memory account.

    Parameters
    ----------
    sim:
        The owning simulator.
    name:
        Unique human-readable identifier (``"m1"``, ``"coordinator"``, ...).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        #: divides every task's service time; the paper's cluster is
        #: homogeneous (``1.0``) and only a
        #: :class:`~repro.cluster.faults.CpuSlowdown` scales it
        self.cpu_speed = 1.0
        self.memory_used = 0
        self.memory_high_water = 0
        self._queues: tuple[deque, deque] = (deque(), deque())
        self._busy = False
        self._epoch = 0
        self.busy_time = 0.0
        self.tasks_completed = 0
        self.tasks_lost = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    def allocate(self, nbytes: int) -> None:
        """Charge ``nbytes`` of operator state against this machine."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes!r}")
        self.memory_used += nbytes
        if self.memory_used > self.memory_high_water:
            self.memory_high_water = self.memory_used

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of state to the free pool."""
        if nbytes < 0:
            raise ValueError(f"negative release {nbytes!r}")
        if nbytes > self.memory_used:
            raise ValueError(
                f"machine {self.name!r}: releasing {nbytes}B but only "
                f"{self.memory_used}B allocated"
            )
        self.memory_used -= nbytes

    # ------------------------------------------------------------------
    # CPU service
    # ------------------------------------------------------------------
    def submit(self, task: Task | DynamicTask) -> None:
        """Enqueue a task; it runs FIFO within its priority class, with
        control tasks overtaking queued data tasks."""
        self._queues[task.priority].append(task)
        if not self._busy:
            self._dispatch()

    def submit_work(
        self,
        service_time: float,
        action: Callable[[], None] | None = None,
        *,
        priority: int = PRIORITY_DATA,
        label: str = "",
    ) -> None:
        """Convenience wrapper: build and submit a fixed-cost :class:`Task`."""
        self.submit(Task(service_time, action, priority=priority, label=label))

    @property
    def queue_depth(self) -> int:
        """Number of tasks waiting (not counting the one in service)."""
        return len(self._queues[0]) + len(self._queues[1])

    @property
    def busy(self) -> bool:
        return self._busy

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this CPU spent in service."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def _dispatch(self) -> None:
        for queue in self._queues:
            if queue:
                task = queue.popleft()
                break
        else:
            return
        self._busy = True
        service_time, finish = task.begin()
        duration = service_time / self.cpu_speed
        self.busy_time += duration
        sim = self.sim
        # ``schedule(duration, ...)`` computes this very time; the absolute
        # call still refuses a time before now (a negative duration) or NaN
        sim.schedule_at(sim.now + duration, self._complete, finish, self._epoch)

    def _complete(self, finish: Callable[[], None] | None, epoch: int = 0) -> None:
        if epoch != self._epoch:
            return  # the machine crashed while this task was in service
        self._busy = False
        self.tasks_completed += 1
        if finish is not None:
            finish()
        if not self._busy:  # finish() may have submitted + dispatched already
            self._dispatch()

    def crash(self) -> None:
        """Fail-stop: drop every queued and in-service task and zero memory.

        The epoch bump makes the pending ``_complete`` of the in-service
        task a no-op, so a task interrupted mid-service mutates state at
        ``begin`` but never releases its outputs — exactly the half-done
        work a real crash loses.  Callers owning state accounted against
        this machine (the :class:`~repro.engine.state_store.StateStore`)
        must reset their own books; memory here is simply zeroed.
        """
        self._epoch += 1
        lost = self.queue_depth + (1 if self._busy else 0)
        self.tasks_lost += lost
        for queue in self._queues:
            queue.clear()
        self._busy = False
        self.memory_used = 0
        self.crashes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.name!r}, mem={self.memory_used}B, queue={self.queue_depth})"
