"""Pluggable ready-queue schedulers for the Fluid runtime.

The paper runs regions and ready tasks first-come-first-serve
(Section 6.2).  This module generalizes that fixed discipline into a
:class:`Scheduler` seam — ready-queue admission (:meth:`Scheduler.submit`),
pick-next (:meth:`Scheduler.pick`) and shed/reject hooks — threaded
through all three backends (simulator core allocation, thread-backend
body slots, process-backend worker dispatch) and the service's
admission queue (:class:`repro.service.AdmissionQueue`).

Policy catalogue
----------------

``fcfs``
    First-come-first-serve, the paper-faithful default.  Bit-for-bit
    identical to the pre-scheduler runtime, including how a SchedLab
    :class:`~repro.schedlab.policy.SchedulePolicy` tie-breaks the queue.
``priority``
    Highest ``TaskSpec.priority`` first, FIFO among equals.
``edf``
    Earliest ``TaskSpec.deadline`` first; tasks without deadlines run
    after every deadlined task.
``sew`` (alias ``shortest-work``)
    Smallest ``TaskSpec.cost_estimate`` first — shortest-expected-work,
    a quality/latency knob in the spirit of significance-aware runtimes.
``work-stealing``
    Per-worker deques with round-robin admission; an idle worker steals
    from the longest victim queue (steals are counted and published).
``bounded``
    Admission control around an inner scheduler: at most ``capacity``
    tasks queue; overflow is *shed* (rejected, counted, published as a
    ``sched``/``shed`` telemetry event) for sheddable submissions and
    *parked* for must-run ones — the runtime's guard protocol cannot
    lose a run request without deadlocking its region, so executor
    submissions are never dropped, only deferred.

Composition with SchedLab
-------------------------

A bound :class:`~repro.schedlab.policy.SchedulePolicy` resolves exactly
the nondeterminism each discipline leaves open: FCFS consults
``policy.choose(point, names)`` over the whole queue (the historical
executor behaviour, which is what keeps the golden structural traces
stable), while the keyed disciplines consult it only among equal-key
candidates.  Exploration therefore perturbs scheduling freedom, never
the discipline itself.

Schedulers are single-run objects, like executors: counters and queue
state accumulate until the run ends and
:meth:`repro.telemetry.Telemetry.record_scheduler` folds them into the
``sched.*`` metrics.  Pass scheduler *names* (not instances) to
harnesses that execute many runs.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..core.errors import SchedulerError
from ..telemetry.metrics import Histogram, RESIDENCE_BOUNDS

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


def _spec(task: Any) -> Any:
    """The attribute carrier: ``task.spec`` for FluidTask, else the task
    itself (a service request is its own spec)."""
    spec = getattr(task, "spec", None)
    return spec if spec is not None else task


def task_priority(task: Any) -> float:
    value = getattr(_spec(task), "priority", 0.0)
    return 0.0 if value is None else float(value)


def task_deadline(task: Any) -> float:
    """Absolute deadline; tasks without one sort after all deadlines."""
    value = getattr(_spec(task), "deadline", None)
    return math.inf if value is None else float(value)


def task_cost_estimate(task: Any) -> float:
    """Expected work; tasks without an estimate sort last."""
    value = getattr(_spec(task), "cost_estimate", None)
    return math.inf if value is None else float(value)


def _label(task: Any) -> str:
    name = getattr(task, "name", None)
    return name if name else str(task)


class Scheduler:
    """Ready-queue admission and pick-next for one executor run.

    Lifecycle: the host calls :meth:`bind` once at run start (wiring the
    SchedLab policy, the telemetry bus, the policy *point* name used for
    choose calls, and the worker count), then :meth:`submit` whenever a
    task becomes runnable and :meth:`pick` whenever a core / body slot /
    worker frees up.  ``worker`` hints identify which worker is asking
    (the simulator passes core ids, the process backend slot ids); only
    worker-aware disciplines use them.

    Subclasses implement ``_admit`` / ``_select`` / ``pending``; the
    base class owns the decision counters and the queue-residence
    histogram that :meth:`snapshot` exposes to telemetry.
    """

    name = "scheduler"

    def __init__(self):
        self.picks = 0
        self.steals = 0
        self.sheds = 0
        self.deferrals = 0
        self.residence = Histogram(RESIDENCE_BOUNDS)
        self._policy: Optional[Any] = None
        self._bus: Optional[Any] = None
        self._point = "core"
        self._workers = 1
        self._enqueued_at: Dict[int, float] = {}

    # -- host wiring -------------------------------------------------------

    def bind(self, *, policy: Optional[Any] = None, bus: Optional[Any] = None,
             point: str = "core", workers: Optional[int] = None) -> "Scheduler":
        """Wire the scheduler to its host executor (idempotent)."""
        self._policy = policy
        self._bus = bus
        self._point = point
        if workers:
            self._workers = int(workers)
        return self

    # -- queue discipline (subclasses override) ----------------------------

    def _admit(self, task: Any, *, now: float, sheddable: bool) -> bool:
        raise NotImplementedError

    def _select(self, *, now: float, worker: Optional[int]) -> Optional[Any]:
        raise NotImplementedError

    def pending(self) -> int:
        """Tasks currently queued (including any parked overflow)."""
        raise NotImplementedError

    # -- host-facing protocol ----------------------------------------------

    def submit(self, task: Any, *, now: float = 0.0,
               sheddable: bool = False) -> bool:
        """Admit a runnable task; False means it was shed (dropped).

        ``sheddable=False`` (what the region executors pass) guarantees
        acceptance — a guard-requested run must eventually happen or its
        region deadlocks; ``sheddable=True`` (the service's sheddable
        requests) lets bounded queues reject under load.
        """
        if self._admit(task, now=now, sheddable=sheddable):
            self._enqueued_at[id(task)] = now
            return True
        return False

    def pick(self, *, now: float = 0.0,
             worker: Optional[int] = None) -> Optional[Any]:
        """Next task for a freed worker, or None if nothing is queued."""
        task = self._select(now=now, worker=worker)
        if task is None:
            return None
        self.picks += 1
        entered = self._enqueued_at.pop(id(task), None)
        if entered is not None:
            self.residence.observe(max(0.0, now - entered))
        return task

    # -- introspection -----------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {"picks": self.picks, "steals": self.steals,
                "sheds": self.sheds, "deferrals": self.deferrals}

    def snapshot(self) -> Dict[str, Any]:
        """End-of-run record for ``Telemetry.record_scheduler``."""
        record = {"scheduler": self.name,
                  "residence": self.residence.to_dict()}
        record.update(self.counters())
        return record

    def describe(self) -> Dict[str, Any]:
        return {"scheduler": self.name}

    # -- helpers for subclasses --------------------------------------------

    def _emit(self, name: str, task: Any, data: Dict[str, Any],
              ts: Optional[float] = None) -> None:
        if self._bus is None:
            return
        region = getattr(getattr(task, "region", None), "name", "") or ""
        self._bus.emit("sched", region, _label(task), name, ts=ts, data=data)


class FcfsScheduler(Scheduler):
    """First-come-first-serve — the paper-faithful default (Section 6.2).

    With a SchedLab policy bound, the pick consults
    ``policy.choose(point, [task names...])`` over the *whole* queue —
    exactly what the executors did before this subsystem existed, so the
    golden structural traces are reproduced bit-for-bit.
    """

    name = "fcfs"

    def __init__(self):
        super().__init__()
        self._queue: Deque[Any] = deque()

    def _admit(self, task, *, now, sheddable):
        self._queue.append(task)
        return True

    def _select(self, *, now, worker):
        if not self._queue:
            return None
        if self._policy is not None and len(self._queue) > 1:
            index = self._policy.choose(
                self._point, [_label(task) for task in self._queue])
            task = self._queue[index]
            del self._queue[index]
            return task
        return self._queue.popleft()

    def pending(self):
        return len(self._queue)


class _KeyedScheduler(Scheduler):
    """Minimum-key discipline, FIFO among ties.

    Keys (priority / deadline / cost estimate) are static task
    attributes, so they are evaluated once at admission and the queue is
    a binary heap — O(log n) per operation, however long an overloaded
    queue grows.
    With a SchedLab policy bound, a pick pops every entry tied on the
    minimum key (in admission order), lets the policy choose one and
    pushes the rest back, as ``EventQueue`` does for tied events.
    """

    def __init__(self):
        super().__init__()
        self._heap: List[tuple] = []
        self._admitted = 0                 # FIFO tie-break sequence

    def _key(self, task: Any, now: float) -> float:
        raise NotImplementedError

    def _admit(self, task, *, now, sheddable):
        heapq.heappush(
            self._heap, (self._key(task, now), self._admitted, task))
        self._admitted += 1
        return True

    def _select(self, *, now, worker):
        heap = self._heap
        if not heap:
            return None
        if self._policy is None:
            return heapq.heappop(heap)[2]
        best = heap[0][0]
        ties = []
        while heap and heap[0][0] == best:
            ties.append(heapq.heappop(heap))
        if len(ties) == 1:
            return ties[0][2]
        chosen = ties.pop(self._policy.choose(
            self._point, [_label(entry[2]) for entry in ties]))
        for entry in ties:
            heapq.heappush(heap, entry)
        return chosen[2]

    def pending(self):
        return len(self._heap)


class PriorityScheduler(_KeyedScheduler):
    """Highest ``TaskSpec.priority`` first (default priority 0.0)."""

    name = "priority"

    def _key(self, task, now):
        return -task_priority(task)


class EdfScheduler(_KeyedScheduler):
    """Earliest-deadline-first over ``TaskSpec.deadline``."""

    name = "edf"

    def _key(self, task, now):
        return task_deadline(task)


class ShortestWorkScheduler(_KeyedScheduler):
    """Shortest-expected-work first over ``TaskSpec.cost_estimate``."""

    name = "sew"

    def _key(self, task, now):
        return task_cost_estimate(task)


class WorkStealingScheduler(Scheduler):
    """Per-worker deques with round-robin admission and idle stealing.

    A worker with an empty home deque steals from the longest victim
    (lowest index among equals); each steal increments
    :attr:`Scheduler.steals` and publishes a ``sched``/``steal`` event.
    Hosts without worker identity (the thread backend's body slots)
    drain the deques in index order without counting steals.
    """

    name = "work-stealing"

    def __init__(self, workers: Optional[int] = None):
        super().__init__()
        if workers is not None and workers < 1:
            raise SchedulerError("work-stealing needs at least one worker")
        self._configured = workers
        self._queues: List[Deque[Any]] = [deque()]
        self._next = 0

    def bind(self, **kwargs):
        super().bind(**kwargs)
        count = int(self._configured or self._workers or 1)
        self._queues = [deque() for _ in range(max(1, count))]
        self._next = 0
        return self

    def _admit(self, task, *, now, sheddable):
        self._queues[self._next % len(self._queues)].append(task)
        self._next += 1
        return True

    def _select(self, *, now, worker):
        queues = self._queues
        if isinstance(worker, int) and 0 <= worker < len(queues):
            if queues[worker]:
                return queues[worker].popleft()
            victim = max(range(len(queues)), key=lambda i: len(queues[i]))
            if not queues[victim]:
                return None
            task = queues[victim].popleft()
            self.steals += 1
            self._emit("steal", task, {"victim": victim, "thief": worker},
                       ts=now)
            return task
        for queue in queues:
            if queue:
                return queue.popleft()
        return None

    def pending(self):
        return sum(len(queue) for queue in self._queues)

    def describe(self):
        return {"scheduler": self.name, "queues": len(self._queues)}


class BoundedScheduler(Scheduler):
    """Admission control around an inner scheduler.

    At most ``capacity`` tasks queue in ``inner``.  An overflowing
    submit is **shed** — rejected with a ``sched``/``shed`` telemetry
    event and a ``sheds`` counter bump, never silently dropped — when
    the caller marked the task sheddable, and **parked** in a FIFO
    overflow buffer otherwise: region executors may not lose a
    guard-requested run (the region would deadlock), so their overflow
    is deferred (counted, published as ``sched``/``defer``) and promoted
    into the inner queue as soon as it drains below capacity.
    """

    name = "bounded"

    def __init__(self, inner: Optional[Scheduler] = None, capacity: int = 64):
        super().__init__()
        if capacity < 1:
            raise SchedulerError(
                f"bounded scheduler needs capacity >= 1, got {capacity}")
        self.inner = inner if inner is not None else FcfsScheduler()
        self.capacity = int(capacity)
        self._overflow: Deque[Any] = deque()
        self._parked_at: Dict[int, float] = {}

    def bind(self, **kwargs):
        super().bind(**kwargs)
        self.inner.bind(**kwargs)
        return self

    def submit(self, task, *, now=0.0, sheddable=False):
        if self.inner.pending() >= self.capacity:
            if sheddable:
                self.sheds += 1
                self._emit("shed", task,
                           {"capacity": self.capacity,
                            "queued": self.inner.pending()}, ts=now)
                return False
            self.deferrals += 1
            self._parked_at[id(task)] = now
            self._overflow.append(task)
            self._emit("defer", task, {"capacity": self.capacity}, ts=now)
            return True
        return self.inner.submit(task, now=now, sheddable=sheddable)

    def pick(self, *, now=0.0, worker=None):
        # Promote parked tasks first so a drained inner queue can never
        # starve the overflow; residence is measured from park time.
        while self._overflow and self.inner.pending() < self.capacity:
            parked = self._overflow.popleft()
            self.inner.submit(parked,
                              now=self._parked_at.pop(id(parked), now))
        return self.inner.pick(now=now, worker=worker)

    def pending(self):
        return self.inner.pending() + len(self._overflow)

    def counters(self):
        inner = self.inner.counters()
        return {"picks": inner["picks"], "steals": inner["steals"],
                "sheds": self.sheds + inner["sheds"],
                "deferrals": self.deferrals + inner["deferrals"]}

    def snapshot(self):
        record = {"scheduler": self.name, "capacity": self.capacity,
                  "inner": self.inner.name,
                  "residence": self.inner.residence.to_dict()}
        record.update(self.counters())
        return record

    def describe(self):
        return {"scheduler": self.name, "capacity": self.capacity,
                "inner": self.inner.describe()}


#: Name -> class, for :func:`make_scheduler` and the CLI surfaces.
SCHEDULERS = {
    "fcfs": FcfsScheduler,
    "priority": PriorityScheduler,
    "edf": EdfScheduler,
    "sew": ShortestWorkScheduler,
    "shortest-work": ShortestWorkScheduler,
    "work-stealing": WorkStealingScheduler,
    "bounded": BoundedScheduler,
}

#: Canonical names (aliases folded), for help strings.
SCHEDULER_NAMES = ("fcfs", "priority", "edf", "sew", "work-stealing",
                   "bounded")


def _parse_options(text: str) -> Dict[str, str]:
    options: Dict[str, str] = {}
    for item in (token.strip() for token in text.split(",")):
        if not item:
            continue
        key, separator, value = item.partition("=")
        if not separator or not key.strip():
            raise SchedulerError(
                f"scheduler option {item!r} is not key=value")
        options[key.strip()] = value.strip()
    return options


def make_scheduler(spec: Any = None) -> Scheduler:
    """Build a scheduler from a spec.

    ``None`` gives a fresh FCFS (the default discipline); a
    :class:`Scheduler` instance passes through; a string names a
    discipline with optional ``name:key=value,...`` options::

        make_scheduler("edf")
        make_scheduler("work-stealing:workers=4")
        make_scheduler("bounded:capacity=8,inner=edf")
    """
    if spec is None:
        return FcfsScheduler()
    if isinstance(spec, Scheduler):
        return spec
    text = str(spec).strip()
    name, _, option_text = text.partition(":")
    name = name.strip().lower()
    if name not in SCHEDULERS:
        raise SchedulerError(
            f"unknown scheduler {name!r}; expected one of "
            + ", ".join(SCHEDULER_NAMES))
    options = _parse_options(option_text)
    try:
        if name == "bounded":
            inner = make_scheduler(options.pop("inner", "fcfs"))
            capacity = int(options.pop("capacity", 64))
            if options:
                raise SchedulerError(
                    f"bounded scheduler got unknown options "
                    f"{sorted(options)}")
            return BoundedScheduler(inner, capacity)
        if name == "work-stealing":
            workers = options.pop("workers", None)
            if options:
                raise SchedulerError(
                    f"work-stealing scheduler got unknown options "
                    f"{sorted(options)}")
            return WorkStealingScheduler(
                int(workers) if workers is not None else None)
    except ValueError as error:
        raise SchedulerError(
            f"bad option value in scheduler spec {text!r}: {error}") from None
    if options:
        raise SchedulerError(
            f"scheduler {name!r} takes no options (got {sorted(options)})")
    return SCHEDULERS[name]()
