"""Per-task state-machine statistics (paper Table 3).

For every task we record how many times each state was entered and how
much time (virtual time under the simulator, wall time under the thread
backend) was spent in it.  The benchmark for Table 3 renders these
records in the same layout as the paper: one row per task, a
visit-count column block and a residence-time column block.

:class:`TaskStats` is the one record of what a task did: the guard
outcomes and valve-set verdicts are tallied here too, and
:meth:`repro.telemetry.MetricsRegistry.record_region` folds every task's
record into the ``tasks.*``, ``time.*`` and ``valve.*`` counters once
per region.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .errors import StateError
from .states import TaskState

_N_STATES = len(TaskState)

#: Column order used by Table 3 in the paper.
TABLE3_STATES = (
    TaskState.INIT,
    TaskState.START_CHECK,
    TaskState.RUNNING,
    TaskState.END_CHECK,
    TaskState.WAITING,      # the paper folds W and D into one "Wait/Stall" column
    TaskState.COMPLETE,
)


class TaskStats:
    """Visit counts and residence times for one task instance, as
    lists indexed by state: ``stats.visits[TaskState.RUNNING]``."""

    def __init__(self, task_name: str):
        self.task_name = task_name
        self.visits: List[int] = [0] * _N_STATES
        self.time: List[float] = [0.0] * _N_STATES
        self.runs = 0          # completed executions of the body
        self.reruns = 0        # re-executions the guard scheduled
        self.cancelled_runs = 0
        self.skipped_reruns = 0  # re-runs retired before their body began
        self.failed_runs = 0   # body raised (any driver)
        self.quality_failures = 0
        #: Valve-set verdicts by set (``"start"``/``"end"``); a set whose
        #: every valve answered from its memo recomputed nothing and is
        #: not counted.
        self.valve_passes: Dict[str, int] = {"start": 0, "end": 0}
        self.valve_fails: Dict[str, int] = {"start": 0, "end": 0}
        self._state: Optional[TaskState] = None
        self._entered_at = 0.0
        self._finished = False

    def enter(self, state: TaskState, now: float) -> None:
        """Record a transition into ``state`` at time ``now``."""
        if self._finished:
            raise StateError(
                f"task {self.task_name!r}: enter({state.name}) after "
                f"finish() — the stats are closed")
        if self._state is not None:
            self.time[self._state] += now - self._entered_at
        self.visits[state] += 1
        self._state = state
        self._entered_at = now

    def finish(self, now: float) -> None:
        """Close the books at the end of the run (task is terminal).

        Idempotent: only the first call adds the tail residence — a
        repeated ``finish()`` used to re-add it and silently inflate the
        Table 3 residence times.
        """
        if self._finished:
            return
        self._finished = True
        if self._state is not None:
            self.time[self._state] += now - self._entered_at
            self._entered_at = now

    def time_at(self, now: float) -> List[float]:
        """:attr:`time` with the open state's residence up to ``now``
        added; the books stay open."""
        time = list(self.time)
        if not self._finished and self._state is not None:
            time[self._state] += now - self._entered_at
        return time

    # -- Table 3 helpers -----------------------------------------------------

    def visit_row(self) -> List[float]:
        return _table3_row(self.visits)

    def time_row(self) -> List[float]:
        return _table3_row(self.time)


def _table3_row(slots: List[float]) -> List[float]:
    """``slots`` in Table 3 column order, with D folded into W."""
    row = [slots[state] for state in TABLE3_STATES]
    row[TABLE3_STATES.index(TaskState.WAITING)] += \
        slots[TaskState.DEP_STALLED]
    return row


class RegionStats:
    """Region-level totals of one region execution."""

    def __init__(self, region_name: str):
        self.region_name = region_name
        self.makespan = 0.0
        self.overhead_time = 0.0   # framework time: init, checks, transitions
