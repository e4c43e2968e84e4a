"""Unit tests for the discrete-event simulator and its event queue."""

import pytest

from repro.errors import SimulationError
from repro.network.events import EventQueue
from repro.network.simulator import Simulator


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("late"))
        queue.push(1.0, lambda: fired.append("early"))
        assert queue.pop().time == 1.0
        assert queue.pop().time == 2.0

    def test_ties_break_by_scheduling_order(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: "first")
        second = queue.push(1.0, lambda: "second")
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: "cancel me")
        keeper = queue.push(2.0, lambda: "keep me")
        handle.cancel()
        queue.note_cancelled()
        assert queue.pop() is keeper

    def test_pop_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(3.0, lambda: None)
        handle.cancel()
        assert queue.peek_time() == 3.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_length_tracks_live_events(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        handle.cancel()
        queue.note_cancelled()
        assert len(queue) == 1

    def test_none_callback_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(1.0, None)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run_advances_clock(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.5, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [1.5]
        assert simulator.now == 1.5

    def test_events_fire_in_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(2.0, lambda: order.append("b"))
        simulator.schedule(1.0, lambda: order.append("a"))
        simulator.schedule(3.0, lambda: order.append("c"))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_events_scheduled_during_run_are_executed(self):
        simulator = Simulator()
        fired = []

        def chain():
            fired.append(simulator.now)
            if len(fired) < 3:
                simulator.schedule(1.0, chain)

        simulator.schedule(1.0, chain)
        simulator.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_stops_before_later_events(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(5.0, lambda: fired.append("b"))
        simulator.run(until=2.0)
        assert fired == ["a"]
        assert simulator.now == 2.0

    def test_run_until_advances_clock_to_exact_end(self):
        simulator = Simulator()
        simulator.run(until=10.0)
        assert simulator.now == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.schedule(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.schedule_at(0.5, lambda: None)

    def test_cancel_prevents_execution(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("x"))
        simulator.cancel(handle)
        simulator.run()
        assert fired == []

    def test_cancel_twice_is_harmless(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.cancel(handle)
        simulator.cancel(handle)
        simulator.run()

    def test_max_events_bound(self):
        simulator = Simulator()
        fired = []
        for index in range(10):
            simulator.schedule(float(index + 1), lambda index=index: fired.append(index))
        simulator.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_events_fired_counter(self):
        simulator = Simulator()
        for index in range(5):
            simulator.schedule(float(index), lambda: None)
        simulator.run()
        assert simulator.events_fired == 5

    def test_rng_is_seeded(self):
        values_a = [Simulator(seed=3).rng.random() for _ in range(1)]
        values_b = [Simulator(seed=3).rng.random() for _ in range(1)]
        assert values_a == values_b
        assert Simulator(seed=3).rng.random() != Simulator(seed=4).rng.random()

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False


class RecordingSource:
    """A lazy source with effects due at fixed instants."""

    def __init__(self, due):
        self.due = sorted(due)
        self.horizons = []

    def settle(self, horizon):
        self.horizons.append(horizon)
        applied = [instant for instant in self.due if instant <= horizon]
        self.due = self.due[len(applied):]
        return applied[-1] if applied else float("-inf")


class TestLazySources:
    def test_settle_brings_sources_up_to_now(self):
        simulator = Simulator()
        source = RecordingSource([1.0, 2.0, 3.0])
        simulator.lazy_sources.append(source)
        simulator.schedule(2.0, simulator.settle)
        simulator.run(until=2.5)
        # Once from inside the event, once on the way out of run().
        assert source.horizons == [2.0, 2.5]
        assert source.due == [3.0]
        assert simulator.now == 2.5

    def test_run_to_idle_finishes_every_schedule(self):
        simulator = Simulator()
        source = RecordingSource([1.0, 7.0])
        simulator.lazy_sources.append(source)
        simulator.schedule(2.0, lambda: None)
        assert simulator.run() == 7.0
        assert source.due == []
        # The clock follows the last effect, and never runs backwards.
        simulator.lazy_sources.append(RecordingSource([3.0]))
        assert simulator.run() == 7.0

    def test_an_event_budget_is_not_idleness(self):
        simulator = Simulator()
        source = RecordingSource([0.5, 9.0])
        simulator.lazy_sources.append(source)
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        simulator.run(max_events=2)
        assert simulator.now == 2.0
        assert source.due == [9.0]
