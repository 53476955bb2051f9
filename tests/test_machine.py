"""Unit tests for the machine model (FIFO CPU server + memory account)."""

import pytest

from repro.cluster.machine import (
    PRIORITY_CONTROL,
    PRIORITY_DATA,
    DynamicTask,
    Machine,
    Task,
)


class TestMemoryAccounting:
    def test_allocate_and_release(self, machine):
        machine.allocate(1000)
        assert machine.memory_used == 1000
        machine.release(400)
        assert machine.memory_used == 600

    def test_high_water_mark(self, machine):
        machine.allocate(500)
        machine.release(500)
        machine.allocate(200)
        assert machine.memory_high_water == 500

    def test_release_more_than_allocated_rejected(self, machine):
        machine.allocate(100)
        with pytest.raises(ValueError):
            machine.release(200)

    def test_negative_amounts_rejected(self, machine):
        with pytest.raises(ValueError):
            machine.allocate(-1)
        with pytest.raises(ValueError):
            machine.release(-1)


class TestFifoService:
    def test_tasks_run_in_submission_order(self, sim, machine):
        done = []
        machine.submit(Task(1.0, lambda: done.append(("a", sim.now))))
        machine.submit(Task(2.0, lambda: done.append(("b", sim.now))))
        sim.run()
        assert done == [("a", 0.0), ("b", 1.0)]

    def test_busy_until_completion(self, sim, machine):
        machine.submit(Task(5.0, lambda: None))
        assert machine.busy
        sim.run(until=2.0)
        assert machine.busy
        sim.run()
        assert not machine.busy

    def test_control_priority_overtakes_queued_data(self, sim, machine):
        order = []
        machine.submit(Task(1.0, lambda: order.append("running")))
        machine.submit(Task(1.0, lambda: order.append("data"), priority=PRIORITY_DATA))
        machine.submit(
            Task(1.0, lambda: order.append("control"), priority=PRIORITY_CONTROL)
        )
        sim.run()
        # the in-service task finishes first; then control jumps the queue
        assert order == ["running", "control", "data"]

    def test_queue_depth(self, sim, machine):
        machine.submit(Task(1.0, lambda: None))
        machine.submit(Task(1.0, lambda: None))
        machine.submit(Task(1.0, lambda: None))
        assert machine.queue_depth == 2  # one in service

    def test_cpu_speed_scales_durations(self, sim):
        fast = Machine(sim, "fast")
        fast.cpu_speed = 2.0
        starts = []
        fast.submit(Task(4.0, lambda: starts.append(("first", sim.now))))
        fast.submit(Task(1.0, lambda: starts.append(("second", sim.now))))
        sim.run()
        # the 4 s task takes 2 s at 2x speed, so the second starts at t=2
        assert starts == [("first", 0.0), ("second", 2.0)]

    def test_action_submitting_work_keeps_fifo(self, sim, machine):
        # "first" begins service immediately at submit time and enqueues
        # "followup" before the caller submits "second" — FIFO order is
        # submission order, with begin-time actions counted.
        done = []

        def first():
            done.append(("first", sim.now))
            machine.submit(Task(1.0, lambda: done.append(("followup", sim.now))))

        machine.submit(Task(1.0, first))
        machine.submit(Task(1.0, lambda: done.append(("second", sim.now))))
        sim.run()
        assert [d[0] for d in done] == ["first", "followup", "second"]
        assert [d[1] for d in done] == [0.0, 1.0, 2.0]

    def test_utilization(self, sim, machine):
        machine.submit(Task(3.0, lambda: None))
        sim.run(until=10.0)
        assert machine.utilization(10.0) == pytest.approx(0.3)

    def test_tasks_completed_counter(self, sim, machine):
        for __ in range(4):
            machine.submit(Task(0.5, lambda: None))
        sim.run()
        assert machine.tasks_completed == 4

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            Task(-1.0, lambda: None)


class TestDynamicTask:
    def test_begin_determines_duration_and_finish(self, sim, machine):
        trace = []

        def begin():
            trace.append(("begin", sim.now))
            return 2.5, lambda: trace.append(("finish", sim.now))

        machine.submit(DynamicTask(begin))
        sim.run()
        assert trace == [("begin", 0.0), ("finish", 2.5)]

    def test_state_mutation_at_begin_output_at_finish(self, sim, machine):
        state = {"value": 0}
        observed = []

        def begin():
            state["value"] = 42  # mutation visible immediately
            return 1.0, lambda: observed.append(state["value"])

        machine.submit(DynamicTask(begin))
        assert state["value"] == 42
        assert observed == []
        sim.run()
        assert observed == [42]

    def test_finish_may_be_none(self, sim, machine):
        machine.submit(DynamicTask(lambda: (1.0, None)))
        sim.run()
        assert machine.tasks_completed == 1

    def test_serial_tasks_never_overlap(self, sim, machine):
        intervals = []

        def make(duration):
            def begin():
                start = sim.now
                return duration, lambda: intervals.append((start, sim.now))

            return DynamicTask(begin)

        for d in (1.0, 2.0, 0.5):
            machine.submit(make(d))
        sim.run()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
