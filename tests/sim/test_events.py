"""Unit tests for the simulator event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


class TestEventQueue:
    def test_fires_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        while (callback := queue.pop()) is not None:
            callback()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(1.0, lambda n=name: fired.append(n))
        while (callback := queue.pop()) is not None:
            callback()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_on_pop(self):
        queue = EventQueue()
        queue.schedule(5.0, lambda: None)
        assert queue.now == 0.0
        queue.pop()
        assert queue.now == 5.0

    def test_schedule_relative_to_now(self):
        queue = EventQueue()
        times = []
        queue.schedule(2.0, lambda: queue.schedule(2.0, lambda: times.append(queue.now)))
        while (callback := queue.pop()) is not None:
            callback()
        assert times == [4.0]

    def test_schedule_at_absolute(self):
        queue = EventQueue()
        queue.schedule_at(7.5, lambda: None)
        assert queue.pop() is not None and queue.now == 7.5

    def test_schedule_into_past_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.schedule(-1.0, lambda: None)
        queue.schedule(5.0, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError):
            queue.schedule_at(1.0, lambda: None)

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        queue.schedule(2.0, lambda: fired.append("y"))
        queue.cancel(handle)
        while (callback := queue.pop()) is not None:
            callback()
        assert fired == ["y"]

    def test_len_and_empty(self):
        queue = EventQueue()
        assert queue.empty
        handle = queue.schedule(1.0, lambda: None)
        assert len(queue) == 1
        queue.cancel(handle)
        assert queue.empty

    def test_cancelling_a_callback_that_ran_changes_nothing(self):
        queue = EventQueue()
        fired = []
        handle = queue.schedule(1.0, lambda: fired.append("x"))
        queue.pop()()
        queue.cancel(handle)
        queue.schedule(1.0, lambda: fired.append("y"))
        assert len(queue) == 1
        queue.pop()()
        assert fired == ["x", "y"] and queue.empty
