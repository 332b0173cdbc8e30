"""Request-queue disciplines for the Fluid service.

Every driver runs its ready queue first-come-first-serve, as the paper
does (Section 6.2); :mod:`repro.sched.schedulers` holds that FCFS queue
and the disciplines the service's admission queue may order requests
by (priority, EDF, shortest-expected-work, bounded queues with load
shedding).

See ``docs/schedulers.md`` for the interface contract and the policy
catalogue.
"""

from .schedulers import (BoundedScheduler, EdfScheduler, FcfsScheduler,
                         PriorityScheduler, Scheduler, SCHEDULER_NAMES,
                         SCHEDULERS, ShortestWorkScheduler, make_scheduler)

__all__ = [
    "Scheduler",
    "FcfsScheduler",
    "PriorityScheduler",
    "EdfScheduler",
    "ShortestWorkScheduler",
    "BoundedScheduler",
    "SCHEDULERS",
    "SCHEDULER_NAMES",
    "make_scheduler",
]
