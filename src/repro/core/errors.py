"""Exception hierarchy for the Fluid framework.

Every error raised by :mod:`repro` derives from :class:`FluidError`, so
callers can catch framework failures with a single ``except`` clause while
still distinguishing configuration mistakes (graph shape, valve wiring)
from runtime faults (scheduling deadlocks, cancelled tasks).
"""

from __future__ import annotations


class FluidError(Exception):
    """Base class for all Fluid framework errors."""


class GraphError(FluidError):
    """The static task graph of a region violates the Fluid region rules.

    Raised for cyclic dataflow, multiple root tasks, end valves attached to
    non-leaf tasks, tasks with no connection to the region, and similar
    shape violations described in Sections 3.3 and 4.1 of the paper.
    """


class ValveError(FluidError):
    """A valve is mis-configured (bad threshold, missing count, ...)."""


class DataError(FluidError):
    """Illegal access to Fluid data (e.g. non-Fluid read of a partial value)."""


class StateError(FluidError):
    """An illegal task state transition was requested."""


class SchedulerError(FluidError):
    """The runtime could not make progress (deadlock, resource misuse)."""


class TuningError(FluidError):
    """A valve autotuner or its SLO spec is mis-configured."""


class TaskCancelled(FluidError):
    """Injected into a task body to realize early termination (Section 6.1)."""


class TaskBodyError(FluidError):
    """A task body raised; carries the task/region context and chains the
    original exception as ``__cause__``."""

    def __init__(self, region_name: str, task_name: str, run_index: int,
                 original: BaseException):
        self.region_name = region_name
        self.task_name = task_name
        self.run_index = run_index
        super().__init__(
            f"task {region_name}/{task_name} (run {run_index}) raised "
            f"{type(original).__name__}: {original}")


class CompileError(FluidError):
    """A FluidPy source file failed to lex, parse, or type-check.

    Carries an optional source location so tooling can report
    ``file:line:col`` diagnostics.
    """

    def __init__(self, message: str, filename: str = "<fluid>",
                 line: int = 0, column: int = 0):
        self.filename = filename
        self.line = line
        self.column = column
        if line:
            message = f"{filename}:{line}:{column}: {message}"
        super().__init__(message)
