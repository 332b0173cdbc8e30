"""Unit tests for the task state machine table and statistics."""

import pathlib

import pytest

from repro.bench import render_table3, table3_rows
from repro.core.errors import StateError, TaskBodyError
from repro.core.guard import GuardHost
from repro.core.region import FluidRegion
from repro.core.states import (LEGAL_TRANSITIONS, TaskState, check_transition)
from repro.core.stats import TaskStats, TABLE3_STATES
from repro.core.valves import CountValve, NeverValve, PredicateValve
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

    def test_pending_description_counts_no_valve_check(self):
        # A diagnosis reads each start valve's verdict; it must not add a
        # check to what the run's metrics fold.
        def body(ctx):
            yield 0.0

        region = FluidRegion("r")
        count = region.add_count("done")
        valves = [NeverValve("never"), PredicateValve(lambda: False),
                  CountValve(count, 5, name="count")]
        parked = region.add_task("b", body, start_valves=valves)
        context = RunContext()
        context.submit(region).launched = True
        parked.state = TaskState.START_CHECK
        for valve in valves:
            valve.check()
        before = [valve.checks for valve in valves]
        text = context.pending_description()
        assert "valves=['never=False', 'predicate=False', 'count=False']" \
            in text
        assert [valve.checks for valve in valves] == before


class _StillHost(GuardHost):
    """A driver whose clock stands still and which runs nothing."""

    def now(self):
        return 0.0

    def schedule_run(self, task):
        pass


def _running_task():
    """A launched one-task region whose body has started."""
    def body(ctx):
        yield 0.0

    region = FluidRegion("r")
    task = region.add_task("a", body, outputs=[region.add_data("out", 0)])
    context = RunContext()
    run = context.submit(region)
    context.bind(_StillHost(), time_scale=1.0)
    context.launch(run)
    context.admit(task)
    context.begin(task)
    return context, task


class TestBodyExit:
    """``RunContext.body_left``: the one judgement of a leaving body."""

    def test_a_body_that_ran_to_its_end_enters_end_check(self):
        context, task = _running_task()
        assert context.body_left(task)
        assert task.state is TaskState.END_CHECK
        context.end_check(task)
        assert task.state is TaskState.COMPLETE
        assert task.stats.runs == 1
        assert task.region.datas["out"].final

    def test_a_cancelled_body_terminates_early_without_end_check(self):
        # Whether or not the body noticed the request before it left.
        context, task = _running_task()
        task.cancel_requested = True
        assert not context.body_left(task)
        assert task.state is TaskState.COMPLETE
        assert task.stats.cancelled_runs == 1
        assert task.stats.visits[TaskState.END_CHECK] == 0
        assert not task.region.datas["out"].final

    def test_a_raising_body_fails_the_run_once(self):
        context, task = _running_task()
        cause = ValueError("boom")
        assert not context.body_left(task, cause)
        error = context.body_error
        assert isinstance(error, TaskBodyError)
        assert error.__cause__ is cause and error.run_index == 0
        assert "r/a" in str(error)
        assert task.stats.failed_runs == 1
        assert task.state is TaskState.RUNNING

    def test_a_stopped_context_judges_nothing(self):
        context, task = _running_task()
        context.stopped = True
        assert not context.body_left(task, ValueError("late"))
        assert context.body_error is None
        assert task.stats.failed_runs == 0
        assert task.state is TaskState.RUNNING


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


class TestTable3Golden:
    def test_table3_renders_byte_identically(self):
        """The eight-app Table 3 (visits and residence per state) equals
        the archived benchmark result, byte for byte."""
        golden = (pathlib.Path(__file__).parent.parent / "benchmarks"
                  / "results" / "table3_state_stats.txt")
        rendered = render_table3(table3_rows()) + "\n"
        assert rendered == golden.read_text(encoding="utf-8")
