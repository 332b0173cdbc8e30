"""Hypothesis property tests for the seven-state guard machine.

Three layers of the same invariant — only Figure-5 arcs ever happen:

* directly on :meth:`FluidTask.transition` (arbitrary arcs: legal ones
  are accepted and observed, illegal ones raise ``StateError`` and leave
  the task untouched);
* on random *walks* through ``LEGAL_TRANSITIONS`` (every reachable path
  is accepted and the observer sees exactly the walked arcs);
* on whole simulated executions under random schedule policies and
  random valve flakiness, audited by the
  :class:`~repro.schedlab.invariants.InvariantChecker` (legality +
  exactly-once completion), which exercises the machine through the real
  guard logic rather than synthetic calls.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import StateError
from repro.core.region import FluidRegion
from repro.core.states import LEGAL_TRANSITIONS, TaskState
from repro.core.task import FluidTask, TaskSpec
from repro.schedlab import (InvariantChecker, SeededRandomPolicy,
                            run_scenario)
from repro.telemetry import TelemetryBus

STATES = list(TaskState)


def _body(ctx):
    yield 0.0


def _make_task(state: TaskState) -> FluidTask:
    """A bare task whose region has a bus: the only way to watch it."""
    region = FluidRegion("probe_region")
    region.telemetry = TelemetryBus()
    task = FluidTask(TaskSpec("probe", _body), region)
    task.state = state
    return task


class TestTransitionProperties:
    @given(src=st.sampled_from(STATES), dst=st.sampled_from(STATES))
    def test_exactly_the_legal_arcs_are_accepted(self, src, dst):
        task = _make_task(src)
        if dst in LEGAL_TRANSITIONS[src]:
            task.transition(dst, 0.0)
            assert task.state is dst
        else:
            with pytest.raises(StateError):
                task.transition(dst, 0.0)
            assert task.state is src

    @given(src=st.sampled_from(STATES), dst=st.sampled_from(STATES))
    def test_observer_sees_legal_arcs_only(self, src, dst):
        task = _make_task(src)
        checker = InvariantChecker().connect(task.region.telemetry)
        try:
            task.transition(dst, 0.0)
        except StateError:
            assert not checker.transitions
        else:
            assert checker.transitions == [("probe", src, dst)]
        for name, seen_src, seen_dst in checker.transitions:
            assert seen_dst in LEGAL_TRANSITIONS[seen_src]
        assert checker.ok

    @given(data=st.data())
    def test_random_legal_walks_reach_only_complete_as_terminal(self, data):
        """Any walk through LEGAL_TRANSITIONS is accepted step by step,
        and the machine only ever gets stuck in COMPLETE."""
        task = _make_task(TaskState.INIT)
        checker = InvariantChecker().connect(task.region.telemetry)
        for step in range(12):
            successors = sorted(LEGAL_TRANSITIONS[task.state],
                                key=lambda state: state.name)
            if not successors:
                assert task.state is TaskState.COMPLETE
                break
            nxt = data.draw(st.sampled_from(successors),
                            label=f"step{step}")
            task.transition(nxt, float(step))
        assert checker.ok
        walked = [(src, dst) for _name, src, dst in checker.transitions]
        assert walked and walked[-1][1] is task.state  # heard over the bus
        assert all(dst in LEGAL_TRANSITIONS[src] for src, dst in walked)
        # COMPLETE appears at most once, and only as the last arc.
        completions = [i for i, (_s, dst) in enumerate(walked)
                       if dst is TaskState.COMPLETE]
        assert len(completions) <= 1
        if completions:
            assert completions[0] == len(walked) - 1


def _flake_faults(draw_flakes):
    """Turn drawn (kind, valve, count) triples into fault records."""
    return [{"kind": kind, "task": "*", "valve": valve, "count": count}
            for kind, valve, count in draw_flakes]


class TestSimulatedExecutions:
    """Whole runs under random schedules/flakes stay on Figure-5 arcs.

    ``run_scenario`` connects the InvariantChecker itself and reports
    any illegal arc / double completion as ``failure == "invariant"``;
    a clean outcome therefore *is* the property.
    """

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           scenario=st.sampled_from(["pipeline", "overtake", "diamond"]))
    def test_random_schedules_only_take_legal_arcs(self, seed, scenario):
        outcome = run_scenario(scenario,
                               policy=SeededRandomPolicy(seed), seed=seed)
        assert outcome.ok, outcome.message

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           flakes=st.lists(
               st.tuples(st.sampled_from(["valve_false", "valve_true"]),
                         st.sampled_from(["start", "end"]),
                         st.integers(min_value=1, max_value=3)),
               max_size=3))
    def test_valve_flakiness_never_breaks_the_state_machine(
            self, seed, flakes):
        outcome = run_scenario("pipeline",
                               policy=SeededRandomPolicy(seed), seed=seed,
                               faults=_flake_faults(flakes))
        # Flaky valves may change *scheduling* but never legality, and
        # the run completes: end-valve flakes are retried by the
        # re-execution chain, a start-valve flake by the idle re-poll.
        # That re-poll gives every parked record one more look, so the
        # one flake that can still drain the simulation is a start
        # ``valve_false`` forced for more than one check.
        outlasts_repoll = sum(
            count for kind, valve, count in flakes
            if (kind, valve) == ("valve_false", "start")) > 1
        assert outcome.failure is None or (
            outlasts_repoll and outcome.failure == "scheduler-error"), \
            outcome.message

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_strict_schedules_match_serial_elision(self, seed):
        outcome = run_scenario("diamond", strict=True,
                               policy=SeededRandomPolicy(seed), seed=seed)
        assert outcome.ok, outcome.message
