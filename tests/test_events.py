"""Unit tests for the discrete-event queue."""

import math

import pytest

from repro.core.errors import StateError
from repro.runtime.events import EventQueue
from repro.schedlab.policy import SeededRandomPolicy


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(2.0, lambda: order.append("b"))
        while queue:
            _, fn = queue.pop()
            fn()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.push(1.0, lambda label=label: order.append(label))
        while queue:
            queue.pop()[1]()
        assert order == list("abcde")

    def test_pop_returns_time(self):
        queue = EventQueue()
        queue.push(2.5, lambda: None)
        time, _fn = queue.pop()
        assert time == 2.5

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(0.0, lambda: None)
        assert queue and len(queue) == 1

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, time):
        queue = EventQueue()
        with pytest.raises(ValueError, match="finite"):
            queue.push(time, lambda: None)
        assert len(queue) == 0

    def test_interleaved_push_pop(self):
        queue = EventQueue()
        seen = []
        queue.push(1.0, lambda: queue.push(1.5, lambda: seen.append("nested")))
        queue.push(2.0, lambda: seen.append("late"))
        while queue:
            queue.pop()[1]()
        assert seen == ["nested", "late"]

    def test_pop_empty_raises_state_error(self):
        with pytest.raises(StateError, match="empty EventQueue"):
            EventQueue().pop()

    def test_pop_empty_raises_state_error_after_drain(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.pop()
        with pytest.raises(StateError, match="no pending events"):
            queue.pop()

    def test_pop_empty_with_policy_raises_state_error(self):
        queue = EventQueue(SeededRandomPolicy(0))
        with pytest.raises(StateError, match="empty EventQueue"):
            queue.pop()

    def test_policy_breaks_ties_but_not_time_order(self):
        queue = EventQueue(SeededRandomPolicy(1))
        order = []
        for label in "abcd":
            queue.push(1.0, lambda label=label: order.append(label),
                       key=label)
        queue.push(0.5, lambda: order.append("first"), key="first")
        while queue:
            queue.pop()[1]()
        assert order[0] == "first"
        assert sorted(order[1:]) == list("abcd")

    def test_no_policy_keeps_fifo_among_ties(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.push(2.0, lambda label=label: order.append(label),
                       key=label)
        while queue:
            queue.pop()[1]()
        assert order == list("abcde")
