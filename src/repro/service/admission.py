"""Admission control for the Fluid service frontend.

:class:`AdmissionQueue` is the bounded, relaxed request queue.  It is a
thin veneer over :func:`repro.sched.make_scheduler` with a
``bounded:capacity=N,inner=DISCIPLINE`` spec: a *sheddable* request that
arrives when the queue is full is rejected observably (a
``sched``/``shed`` bus event plus an :class:`AdmissionError` to the
caller), while a *must-run* request is parked in FIFO overflow and
never dropped.  The inner discipline (fcfs/priority/edf/sew) orders
dispatch, keyed off the request's own ``priority``/``deadline``/
``cost_estimate`` hints.  An unknown discipline raises
:class:`~repro.core.errors.SchedulerError` naming the known ones.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..core.errors import FluidError
from ..sched import make_scheduler


class AdmissionError(FluidError):
    """A request was refused at admission (queue full and sheddable)."""


class AdmissionQueue:
    """Bounded relaxed admission queue over a ``repro.sched`` discipline.

    Driven from one thread only (the service's event loop), matching
    the scheduler contract; the bound scheduler emits ``shed``/``defer``
    events on the service bus so backpressure is observable.
    """

    def __init__(self, capacity: int = 64, discipline: str = "fcfs",
                 bus: Optional[object] = None):
        if capacity < 1:
            raise AdmissionError("admission queue needs capacity >= 1")
        self.capacity = capacity
        self.discipline = discipline
        spec = f"bounded:capacity={capacity},inner={discipline}"
        self.scheduler = make_scheduler(spec).bind(
            bus=bus, point="admission", workers=1)

    def offer(self, request: object, *, now: float,
              sheddable: bool) -> bool:
        """Admit a request; False means it was shed (bounded overflow).

        Must-run requests (``sheddable=False``) are parked, never
        dropped (:class:`repro.sched.BoundedScheduler`).
        """
        return self.scheduler.submit(request, now=now, sheddable=sheddable)

    def take(self, *, now: float) -> Optional[object]:
        """Next request in discipline order, or None when empty."""
        return self.scheduler.pick(now=now)

    def pending(self) -> int:
        return self.scheduler.pending()

    def counters(self) -> Dict[str, int]:
        return self.scheduler.counters()

    def snapshot(self) -> Dict[str, Any]:
        return self.scheduler.snapshot()

