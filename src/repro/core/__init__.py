"""The Fluid programming model: data, counts, valves, tasks, regions.

This subpackage is the paper's primary contribution — everything needed
to express a Fluid region and have it executed by one of the backends in
:mod:`repro.runtime`.
"""

from .count import Count, ImmediateSink, UpdateSink
from .data import DataSnapshot, FluidArray, FluidData, FluidScalar
from .errors import (CompileError, DataError, FluidError, GraphError,
                     SchedulerError, StateError, TaskBodyError,
                     TaskCancelled, ValveError)
from .graph import TaskGraph
from .guard import Coordinator, GuardHost, ModulationPolicy
from .region import FluidRegion
from .scheduler import submit_all, submit_chain, submit_stages
from .states import LEGAL_TRANSITIONS, TaskState, check_transition
from .stats import RegionStats, TaskStats, TABLE3_STATES
from .sync import sync
from .task import FluidTask, TaskContext, TaskSpec
from .valves import (AlwaysValve, ConvergenceValve, CountValve,
                     DataFinalValve, NeverValve, PercentValve,
                     PredicateValve, StabilityValve, StalenessValve,
                     Valve)

__all__ = [
    "Count", "ImmediateSink", "UpdateSink",
    "DataSnapshot", "FluidArray", "FluidData", "FluidScalar",
    "CompileError", "DataError", "FluidError", "GraphError",
    "SchedulerError", "StateError", "TaskBodyError",
    "TaskCancelled", "ValveError",
    "TaskGraph", "Coordinator", "GuardHost", "ModulationPolicy",
    "FluidRegion", "submit_all", "submit_chain", "submit_stages",
    "LEGAL_TRANSITIONS", "TaskState", "check_transition",
    "RegionStats", "TaskStats", "TABLE3_STATES", "sync",
    "FluidTask", "TaskContext", "TaskSpec",
    "AlwaysValve", "ConvergenceValve", "CountValve", "DataFinalValve",
    "NeverValve", "PercentValve", "PredicateValve", "StabilityValve",
    "StalenessValve", "Valve",
]
