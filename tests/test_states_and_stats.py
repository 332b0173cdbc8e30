"""Unit tests for the task state machine table and statistics."""

import pathlib

import pytest

from repro.bench import render_table3, table3_rows
from repro.core.errors import StateError
from repro.core.region import FluidRegion
from repro.core.states import (LEGAL_TRANSITIONS, TaskState, check_transition)
from repro.core.stats import RegionStats, TaskStats, TABLE3_STATES
from repro.core.valves import NeverValve
from repro.runtime.context import RunContext


class TestTransitions:
    @pytest.mark.parametrize("src,dst", [
        (TaskState.INIT, TaskState.START_CHECK),
        (TaskState.START_CHECK, TaskState.RUNNING),
        (TaskState.RUNNING, TaskState.END_CHECK),
        (TaskState.RUNNING, TaskState.COMPLETE),          # early termination
        (TaskState.END_CHECK, TaskState.COMPLETE),
        (TaskState.END_CHECK, TaskState.WAITING),
        (TaskState.WAITING, TaskState.COMPLETE),          # (1)
        (TaskState.WAITING, TaskState.RUNNING),           # (2)
        (TaskState.WAITING, TaskState.DEP_STALLED),       # (3)
        (TaskState.DEP_STALLED, TaskState.RUNNING),       # (4)
    ])
    def test_figure5_arcs_are_legal(self, src, dst):
        check_transition(src, dst)  # must not raise

    @pytest.mark.parametrize("src,dst", [
        (TaskState.COMPLETE, TaskState.RUNNING),
        (TaskState.INIT, TaskState.RUNNING),
        (TaskState.RUNNING, TaskState.WAITING),
        (TaskState.END_CHECK, TaskState.RUNNING),
        (TaskState.WAITING, TaskState.END_CHECK),
        (TaskState.DEP_STALLED, TaskState.WAITING),
    ])
    def test_illegal_arcs_raise(self, src, dst):
        with pytest.raises(StateError):
            check_transition(src, dst)

    def test_complete_is_terminal(self):
        assert LEGAL_TRANSITIONS[TaskState.COMPLETE] == frozenset()

    def test_every_state_in_table(self):
        assert set(LEGAL_TRANSITIONS) == set(TaskState)

    def test_all_49_pairs_follow_the_legal_table(self):
        pairs = [(src, dst) for src in TaskState for dst in TaskState]
        assert len(pairs) == 49
        for src, dst in pairs:
            if dst in LEGAL_TRANSITIONS[src]:
                check_transition(src, dst)
            else:
                with pytest.raises(StateError):
                    check_transition(src, dst)


class TestStateApi:
    def test_states_are_small_ints_in_declaration_order(self):
        assert [int(state) for state in TaskState] == list(range(7))

    @pytest.mark.parametrize("state", list(TaskState))
    def test_states_print_their_name(self, state):
        # Depending on the Python version an IntEnum may format as its
        # integer; messages and diagnostics must read the name.
        assert str(state) == state.name
        assert f"{state}" == state.name
        assert format(state, "") == state.name
        assert f"{state:>12}" == f"{state.name:>12}"

    def test_error_message_names_both_states(self):
        with pytest.raises(StateError, match="COMPLETE -> RUNNING"):
            check_transition(TaskState.COMPLETE, TaskState.RUNNING)

    def test_pending_description_names_states(self):
        def body(ctx):
            yield 0.0

        region = FluidRegion("r")
        running = region.add_task("a", body)
        parked = region.add_task("b", body, start_valves=[NeverValve()])
        context = RunContext()
        context.submit(region).launched = True
        running.state = TaskState.RUNNING
        parked.state = TaskState.START_CHECK
        text = context.pending_description()
        assert "r/a=RUNNING" in text
        assert "r/b=START_CHECK valves=['valve=False']" in text


class TestTaskStats:
    def test_visit_counting(self):
        stats = TaskStats("t")
        stats.enter(TaskState.INIT, 0.0)
        stats.enter(TaskState.START_CHECK, 1.0)
        stats.enter(TaskState.RUNNING, 3.0)
        assert stats.visits[TaskState.INIT] == 1
        assert stats.visits[TaskState.START_CHECK] == 1
        assert stats.visits[TaskState.RUNNING] == 1

    def test_residence_times(self):
        stats = TaskStats("t")
        stats.enter(TaskState.INIT, 0.0)
        stats.enter(TaskState.START_CHECK, 2.0)
        stats.enter(TaskState.RUNNING, 5.0)
        stats.finish(9.0)
        assert stats.time[TaskState.INIT] == pytest.approx(2.0)
        assert stats.time[TaskState.START_CHECK] == pytest.approx(3.0)
        assert stats.time[TaskState.RUNNING] == pytest.approx(4.0)

    def test_reentry_accumulates(self):
        stats = TaskStats("t")
        stats.enter(TaskState.RUNNING, 0.0)
        stats.enter(TaskState.WAITING, 1.0)
        stats.enter(TaskState.RUNNING, 2.0)
        stats.finish(4.0)
        assert stats.visits[TaskState.RUNNING] == 2
        assert stats.time[TaskState.RUNNING] == pytest.approx(3.0)

    def test_table3_rows_fold_wait_and_stall(self):
        stats = TaskStats("t")
        stats.enter(TaskState.WAITING, 0.0)
        stats.enter(TaskState.DEP_STALLED, 1.0)
        stats.enter(TaskState.RUNNING, 3.0)
        stats.finish(3.0)
        visit_row = stats.visit_row()
        time_row = stats.time_row()
        wait_index = TABLE3_STATES.index(TaskState.WAITING)
        assert visit_row[wait_index] == 2
        assert time_row[wait_index] == pytest.approx(3.0)


class TestRegionStats:
    def test_for_task_is_stable(self):
        stats = RegionStats("r")
        assert stats.for_task("a") is stats.for_task("a")

    def test_merge_accumulates(self):
        a = RegionStats("r")
        a.for_task("t").enter(TaskState.INIT, 0.0)
        a.for_task("t").finish(2.0)
        a.makespan = 5.0
        b = RegionStats("r")
        b.for_task("t").enter(TaskState.INIT, 0.0)
        b.for_task("t").finish(3.0)
        b.makespan = 7.0
        a.merge(b)
        assert a.for_task("t").visits[TaskState.INIT] == 2
        assert a.for_task("t").time[TaskState.INIT] == pytest.approx(5.0)
        assert a.makespan == pytest.approx(12.0)

    def test_merge_folds_all_seven_slots(self):
        a, b = RegionStats("r"), RegionStats("r")
        for offset, stats in ((0, a), (10, b)):
            mine = stats.for_task("t")
            for state in TaskState:
                mine.visits[state] = offset + state + 1
                mine.time[state] = float(offset + 2 * state)
        a.merge(b)
        merged = a.for_task("t")
        assert merged.visits == [10 + 2 * (s + 1) for s in range(7)]
        assert merged.time == [10.0 + 4 * s for s in range(7)]


class TestTable3Golden:
    def test_table3_renders_byte_identically(self):
        """The eight-app Table 3 (visits and residence per state) equals
        the archived benchmark result, byte for byte."""
        golden = (pathlib.Path(__file__).parent.parent / "benchmarks"
                  / "results" / "table3_state_stats.txt")
        rendered = render_table3(table3_rows()) + "\n"
        assert rendered == golden.read_text(encoding="utf-8")
