"""Unit tests for the discrete-event simulator and its event heap."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.network.simulator import Simulator


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

    def test_ties_fire_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule_at(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.schedule_at(0.5, lambda: order.append("earlier"))
        simulator.run()
        assert order == ["earlier", "first", "second"]

    def test_none_callback_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(1.0, None)

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

    def test_cancel_skips_only_the_cancelled_event(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("cancel me"))
        simulator.schedule(2.0, lambda: fired.append("keep me"))
        handle.cancel()  # directly, without the simulator's accounting hint
        simulator.run()
        assert fired == ["keep me"]
        assert simulator.events_fired == 1

    def test_cancel_twice_is_harmless(self):
        simulator = Simulator()
        handle = simulator.schedule(1.0, lambda: None)
        simulator.cancel(handle)
        simulator.cancel(handle)
        simulator.run()

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

    def test_run_on_an_empty_heap_returns_the_clock(self):
        assert Simulator().run() == 0.0

    def test_run_is_not_reentrant(self):
        simulator = Simulator()
        errors = []

        def nested():
            with pytest.raises(SimulationError) as raised:
                simulator.run()
            errors.append(raised.value)

        simulator.schedule(1.0, nested)
        simulator.run()
        assert len(errors) == 1
        # The outer run released the loop: a later run works.
        simulator.schedule(1.0, lambda: None)
        assert simulator.run() == 2.0

    def test_a_second_run_resumes_where_until_stopped(self):
        simulator = Simulator()
        fired = []
        for delay in (1.0, 3.0, 5.0):
            simulator.schedule(delay, lambda: fired.append(simulator.now))
        simulator.run(until=2.0)
        assert fired == [1.0]
        assert simulator.run(until=4.0) == 4.0
        assert fired == [1.0, 3.0]
        simulator.run()
        assert fired == [1.0, 3.0, 5.0]

    def test_an_event_at_the_horizon_fires(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(2.0, lambda: fired.append("at"))
        simulator.schedule(2.0 + 1e-9, lambda: fired.append("after"))
        simulator.run(until=2.0)
        assert fired == ["at"]

    def test_cancelling_a_fired_event_changes_nothing(self):
        simulator = Simulator()
        fired = []
        handle = simulator.schedule(1.0, lambda: fired.append("once"))
        simulator.run()
        assert handle.cancelled  # a fired handle holds no callback
        simulator.cancel(handle)
        simulator.schedule(1.0, lambda: fired.append("later"))
        simulator.run()
        assert fired == ["once", "later"]
        assert simulator._cancelled == 0

    def test_events_fired_counts_only_fired_events(self):
        simulator = Simulator()
        fired = []
        handles = [
            simulator.schedule(float(index + 1), lambda index=index: fired.append(index))
            for index in range(6)
        ]
        simulator.cancel(handles[0])
        handles[2].cancel()
        simulator.run(until=5.0)
        assert fired == [1, 3, 4]
        assert simulator.events_fired == 3

    def test_a_cancelled_head_does_not_hide_later_events_from_until(self):
        simulator = Simulator()
        fired = []
        head = simulator.schedule(1.0, lambda: fired.append("cancelled"))
        simulator.schedule(1.5, lambda: fired.append("kept"))
        simulator.cancel(head)
        simulator.run(until=2.0)
        assert fired == ["kept"]
        assert simulator.now == 2.0
        assert simulator._heap == []

    def test_a_horizon_behind_the_clock_fires_nothing_and_keeps_the_clock(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(6.0, lambda: fired.append(simulator.now))
        simulator.run(until=5.0)
        assert simulator.run(until=2.0) == 5.0
        assert fired == []
        simulator.run()
        assert fired == [6.0]

    def test_an_event_chained_onto_the_horizon_fires(self):
        simulator = Simulator()
        fired = []

        def chain():
            fired.append(simulator.now)
            simulator.schedule(1.0, chain)

        simulator.schedule(1.0, chain)
        simulator.run(until=3.0)
        assert fired == [1.0, 2.0, 3.0]
        assert simulator.now == 3.0

    def test_stepping_by_horizons_fires_what_one_run_fires(self):
        def build():
            simulator = Simulator()
            fired = []
            handles = [
                simulator.schedule(0.5 * index, lambda index=index: fired.append(("handle", index)))
                for index in range(1, 12)
            ]
            simulator.cancel(handles[3])
            for index in range(1, 8):
                # Raw fire-and-forget entries, as the transport pushes them.
                sequence = simulator._next_sequence
                simulator._next_sequence = sequence + 1
                heapq.heappush(simulator._heap, (0.75 * index, sequence, None, fired.append, (("raw", index),)))
            return simulator, fired

        whole, whole_fired = build()
        whole.run()
        stepped, stepped_fired = build()
        for step in range(1, 14):
            stepped.run(until=0.5 * step)
        assert stepped_fired == whole_fired
        assert len(whole_fired) == 10 + 7
        assert stepped.events_fired == whole.events_fired == 17


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

    def test_a_horizon_is_not_idleness(self):
        simulator = Simulator()
        source = RecordingSource([0.5, 9.0])
        simulator.lazy_sources.append(source)
        for delay in (1.0, 2.0, 3.0):
            simulator.schedule(delay, lambda: None)
        simulator.run(until=2.0)
        assert simulator.now == 2.0
        assert source.due == [9.0]
