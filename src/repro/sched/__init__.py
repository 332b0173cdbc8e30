"""Pluggable task scheduling for the Fluid runtime.

``repro.sched`` generalizes the paper's fixed FCFS region/task ordering
(Section 6.2) into a policy seam shared by all three backends, the
service's admission queue and the SchedLab exploration harness:

:mod:`repro.sched.schedulers`
    The :class:`Scheduler` interface and the concrete disciplines
    (FCFS, priority, EDF, shortest-expected-work, work-stealing,
    bounded queues with load shedding).

See ``docs/schedulers.md`` for the interface contract and the policy
catalogue.
"""

from .schedulers import (BoundedScheduler, EdfScheduler, FcfsScheduler,
                         PriorityScheduler, Scheduler, SCHEDULER_NAMES,
                         SCHEDULERS, ShortestWorkScheduler,
                         WorkStealingScheduler, make_scheduler)

__all__ = [
    "Scheduler",
    "FcfsScheduler",
    "PriorityScheduler",
    "EdfScheduler",
    "ShortestWorkScheduler",
    "WorkStealingScheduler",
    "BoundedScheduler",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "make_scheduler",
]
