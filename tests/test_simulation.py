"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.cluster.simulation import Event, SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fires_in_schedule_order(self, sim):
        fired = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == ["x", "y", "z"]

    def test_same_instant_order_never_compares_the_events(self, sim):
        """1 000 events at one instant whose callbacks and arguments have
        no ordering (lambdas, dicts): the heap settles them on (time, seq)
        alone, through a compaction too."""
        assert Event.__lt__ is object.__lt__
        fired = []
        events = [
            sim.schedule_at(1.0, lambda tag, i=i: fired.append((i, tag["i"])),
                            {"i": i})
            for i in range(1000)
        ]
        for event in events:
            if event.seq % 3:
                event.cancel()
        assert sim.compactions >= 1
        assert sim.pending == 334
        sim.run()
        assert fired == [(i, i) for i in range(0, 1000, 3)]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(4.0, fired.append, 1)
        sim.run()
        assert sim.now == 4.0
        assert fired == [1]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_scheduling_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3.0, lambda: None)

    def test_callback_can_schedule_more_events(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending == 1
        keep.cancel()
        assert sim.pending == 0


class TestRunUntil:
    def test_run_until_stops_the_clock_exactly(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0

    def test_run_resumes_after_until(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        sim.run()
        assert fired == ["late"]
        assert sim.now == 10.0

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]

    def test_max_events_limits_execution(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_empty_run_advances_to_until(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_is_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestStep:
    def test_step_fires_one_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]

    def test_step_on_empty_heap_returns_false(self, sim):
        assert sim.step() is False

    def test_events_processed_counter(self, sim):
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_peek_time(self, sim):
        assert sim.peek_time() is None
        e = sim.schedule(7.0, lambda: None)
        assert sim.peek_time() == 7.0
        e.cancel()
        assert sim.peek_time() is None


class TestTimer:
    def test_timer_fires_repeatedly(self, sim):
        ticks = []
        Timer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_stop_halts_firing(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run(until=1.5)
        timer.stop()
        sim.run(until=5.0)
        assert ticks == [1.0]
        assert not timer.running

    def test_callback_may_stop_its_own_timer(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: (ticks.append(sim.now), timer.stop()))
        sim.run(until=10.0)
        assert ticks == [1.0]

    def test_reset_restarts_period(self, sim):
        ticks = []
        timer = Timer(sim, 2.0, lambda: ticks.append(sim.now))
        sim.run(until=1.0)
        timer.reset()  # next firing at t=3 instead of t=2
        sim.run(until=3.5)
        assert ticks == [3.0]

    def test_first_delay_override(self, sim):
        ticks = []
        Timer(sim, 5.0, lambda: ticks.append(sim.now), first_delay=1.0)
        sim.run(until=6.5)
        assert ticks == [1.0, 6.0]

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            Timer(sim, 0.0, lambda: None)

    def test_unstarted_timer(self, sim):
        ticks = []
        timer = Timer(sim, 1.0, lambda: ticks.append(sim.now), start=False)
        sim.run(until=3.0)
        assert ticks == []
        timer.start()
        sim.run(until=4.5)
        assert ticks == [4.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def trace():
            local = Simulator()
            fired = []

            def tick(n):
                fired.append((local.now, n))
                if n < 20:
                    local.schedule(0.5 + (n % 3) * 0.25, tick, n + 1)

            local.schedule(1.0, tick, 0)
            local.run()
            return fired

        assert trace() == trace()
