"""The seven-state Fluid task state machine (paper Figure 5).

States
------
``INIT`` (I)
    The task object exists; its guard has just been launched.
``START_CHECK`` (CS)
    The guard is waiting for all start valves to be satisfied.
``RUNNING`` (R)
    The task body is executing (possibly a re-execution).
``END_CHECK`` (CE)
    The body finished; the guard evaluates the three completion conditions.
``COMPLETE`` (C)
    Terminal state.
``WAITING`` (W)
    None of the completion conditions held; the task waits for signals:
    descendant-completion (→ C), parent data update (→ R), or a child's
    re-execution request (→ D).
``DEP_STALLED`` (D)
    A child requested more accurate output, but this task's own inputs
    have not improved yet; it waits for its parents before re-running.

The states are small ints (0..6 in declaration order), so per-task
bookkeeping indexes flat lists by state and a legality check is two
tuple indexings.  ``INIT`` is 0 and therefore falsy: compare states
with ``is``, never test one for truth.

This module only defines the machine.  To watch it run, subscribe to the
region's telemetry bus: :meth:`~repro.core.task.FluidTask.transition`
publishes every accepted arc there as a ``transition`` event.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from .errors import StateError


class TaskState(enum.IntEnum):
    INIT = 0
    START_CHECK = 1
    RUNNING = 2
    END_CHECK = 3
    COMPLETE = 4
    WAITING = 5
    DEP_STALLED = 6

    def __str__(self) -> str:
        return self.name

    # Whether an IntEnum formats as its name or its integer varies across
    # Python versions; messages and diagnostics always print the name.
    def __format__(self, spec: str) -> str:
        return format(self.name, spec)


#: The legal transitions of Figure 5, plus three retirement arcs the paper
#: leaves implicit: ``RUNNING -> COMPLETE`` is early termination (Section
#: 6.1, a run is cancelled because every descendant already completed);
#: ``INIT/START_CHECK -> COMPLETE`` retire a task that never needs to run
#: because all of its descendants completed without its output.
LEGAL_TRANSITIONS: Dict[TaskState, FrozenSet[TaskState]] = {
    TaskState.INIT: frozenset({TaskState.START_CHECK, TaskState.COMPLETE}),
    TaskState.START_CHECK: frozenset({TaskState.RUNNING, TaskState.COMPLETE}),
    TaskState.RUNNING: frozenset({TaskState.END_CHECK, TaskState.COMPLETE}),
    TaskState.END_CHECK: frozenset({TaskState.COMPLETE, TaskState.WAITING}),
    TaskState.WAITING: frozenset({
        TaskState.COMPLETE, TaskState.RUNNING, TaskState.DEP_STALLED}),
    TaskState.DEP_STALLED: frozenset({TaskState.RUNNING, TaskState.COMPLETE}),
    TaskState.COMPLETE: frozenset(),
}

#: ``LEGAL_TRANSITIONS`` as a 7x7 table: ``_LEGAL[src][dst]``.
_LEGAL = tuple(tuple(dst in LEGAL_TRANSITIONS[src] for dst in TaskState)
               for src in TaskState)


def check_transition(src: TaskState, dst: TaskState) -> None:
    """Raise :class:`StateError` unless ``src -> dst`` is a Figure-5 arc."""
    if not _LEGAL[src][dst]:
        raise StateError(f"illegal task state transition {src} -> {dst}")
