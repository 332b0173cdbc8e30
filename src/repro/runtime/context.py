"""Per-run state and the region lifecycle: :class:`RunContext`.

One context per logical ``run()`` — a batch of regions with
inter-region ``after`` dependencies — holding everything that must be
isolated between concurrent runs.  Every driver hosts contexts
(``start(ctx)`` / ``wait(ctx, timeout)``): an executor's ``run()`` its
own, :class:`repro.service.FluidService` one per admitted request (or
request batch), a ``repro.stream`` pipeline one per window.

The context is also the single owner of the *region lifecycle* (PAPER.md
§6.2, docs/runtime-semantics.md "Region lifecycle"): which region may
launch, what launching does, when a region is done and what done emits,
which queued task may still run, and what is still pending — and of the
*wake rule* (PAPER.md §6, Fig. 5; "Wakeups" in the same document): a
task enters START_CHECK as a parked record (:meth:`RunContext.admit`),
a batch of published counts names the records to re-evaluate
(:meth:`RunContext.woken`), and the record leaves the wait set when its
body starts (:meth:`RunContext.begin`) — and of the *body exit*
(:meth:`RunContext.body_left`, :meth:`RunContext.end_check`).  Every
driver queues startable tasks in one :class:`ReadyQueue`.  Drivers —
the simulator, the thread pool, the process executor — call both and
differ only in how time passes and where bodies run.  The context takes
no lock of its own: the driver calls it under whatever serializes its
Coordinator calls (the pool lock, or a single-threaded control loop).
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.count import Count, UpdateSink
from ..core.errors import SchedulerError, TaskBodyError
from ..core.guard import Coordinator, GuardHost
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask, TaskContext

#: States a task awaits a re-run in, and those a task picked from the
#: ready queue may start a body from.
_RERUNNABLE = (TaskState.WAITING, TaskState.DEP_STALLED)
_STARTABLE = (TaskState.START_CHECK,) + _RERUNNABLE
#: Serializes the lazy build of a context's ``finished`` Event.
_EVENT_LOCK = threading.Lock()


class RegionRun:
    """Bookkeeping for one submitted region within a run context."""

    __slots__ = ("index", "region", "after", "coordinator", "launched",
                 "done", "launch_time")

    def __init__(self, index: int, region: FluidRegion,
                 after: Tuple[FluidRegion, ...]):
        self.index = index
        self.region = region
        self.after = after
        self.coordinator: Optional[Coordinator] = None
        self.launched = False
        self.done = False
        self.launch_time = 0.0


class WaitSet:
    """Tasks parked in START_CHECK, indexed by what can open their valves.

    A record is the task itself, filed in ``gates`` under every count its
    start valves declare (``Valve.watched_counts``): count id -> a tuple
    of ``(task, shut)`` in filing order, ``shut`` being the floor
    (``Valve.shut``, read live) of the record's start valve over that
    count, or None when no such valve vouches for it (only valves with
    no floor watch it, or the region carries a SchedLab fault plan).
    Each tuple is replaced, never mutated, so a publisher may read it
    without the driver's lock.  A floor is read when asked, after the
    publish reached the count's subscribers: a convergence valve's
    history grows in its own subscription.  ``polled`` holds the records
    with a valve that declares no count (an opaque ``PredicateValve``, a
    ``DataFinalValve``), which only a cell bump or finalisation can
    open.  Parked by :meth:`RunContext.admit`, a record leaves when its
    body starts or a completion cascade retires it.
    """

    __slots__ = ("records", "gates", "polled", "_filed")

    def __init__(self):
        self.records: Dict[int, FluidTask] = {}
        self.gates: Dict[int, Tuple[Tuple[FluidTask, object], ...]] = {}
        self.polled: Dict[int, FluidTask] = {}
        #: id(task) -> the count ids it is filed under.
        self._filed: Dict[int, Tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def park(self, task: FluidTask) -> None:
        key = id(task)
        self.records[key] = task
        vouch = getattr(task.region, "fault_plan", None) is None
        filed: Dict[int, Optional[Callable[[], bool]]] = {}
        for valve in task.spec.start_valves:
            counts = valve.watched_counts
            if not counts:
                self.polled[key] = task
            shut = valve.shut if vouch else None
            for count in counts:
                # A shut valve keeps the record closed whatever valve
                # without a floor also watches that count.
                if filed.get(id(count)) is None:
                    filed[id(count)] = shut
        gates = self.gates
        for count_id, shut in filed.items():
            gates[count_id] = gates.get(count_id, ()) + ((task, shut),)
        self._filed[key] = tuple(filed)

    def discard(self, task: FluidTask) -> None:
        key = id(task)
        if self.records.pop(key, None) is None:
            return
        self.polled.pop(key, None)
        gates = self.gates
        for count_id in self._filed.pop(key):
            gates[count_id] = tuple(entry for entry in gates[count_id]
                                    if entry[0] is not task)

    def opens(self, count: Count, queued) -> bool:
        """May a publish of ``count`` open any record filed under it that
        is not ``queued`` already?  The gate is read first, so a shut
        record costs no membership test."""
        for task, shut in self.gates.get(id(count), ()):
            if (shut is None or not shut()) and task not in queued:
                return True
        return False


class RunContext:
    """Everything one run owns: regions, wait set, errors, telemetry."""

    _labels = itertools.count(1)

    def __init__(self, *, label: Optional[str] = None,
                 telemetry: Optional[object] = None,
                 autotune: Optional[object] = None,
                 modulation: Optional[object] = None,
                 cancel_first_runs: bool = False):
        self.label = label or f"run-{next(self._labels)}"
        #: Optional repro.tuning.ValveAutotuner: ``autotune`` resolved,
        #: bound below to the bus it hears feedback on (a lightweight
        #: Telemetry if none).  Lazy imports: both reach back into
        #: repro.runtime at import time.
        self.autotuner = None
        if autotune is not None:
            from ..telemetry import Telemetry
            from ..tuning import make_autotuner

            self.autotuner = make_autotuner(autotune)
            if telemetry is None:
                telemetry = Telemetry(metrics=False, chrome=False)
        #: Optional repro.telemetry.Telemetry bundle for this run.
        self.telemetry = telemetry
        self.bus = telemetry.bus if telemetry is not None else None
        if self.autotuner is not None:
            self.autotuner.bind(self.bus)
        self.modulation = modulation
        self.cancel_first_runs = cancel_first_runs
        self.runs: List[RegionRun] = []
        #: The driver, set by :meth:`bind`: where guard callbacks go and
        #: where time comes from (``host.now()``), the sink launched
        #: regions publish count updates through, and the SchedLab
        #: policy ordering Coordinator fan-out.
        self.host: Optional[GuardHost] = None
        self.sink: Optional[UpdateSink] = None
        self.policy: Optional[object] = None
        #: id(task) -> the RegionRun it belongs to (launched regions).
        self._task_run: Dict[int, RegionRun] = {}
        #: Tasks parked on their start valves.
        self.waiting = WaitSet()
        #: First error of the run (a TaskBodyError, or any executor
        #: error on one-shot pools); surfaced to the waiter / service
        #: future.
        self.body_error: Optional[Exception] = None
        #: Set when the context is cancelled (shutdown, timeout, error):
        #: running bodies drain and no new work starts.
        self.stopped = False
        #: Set once every region is done, or the context stopped and its
        #: last running body left its worker.  A plain flag: the Event a
        #: thread blocks on (``finished``) is built only when asked for.
        self.is_finished = False
        self._finished_event: Optional[threading.Event] = None
        #: Called exactly once when the context finishes, from the thread
        #: that finished the context (a pool worker on the thread pool).
        #: Must be cheap and non-blocking — the service uses it to hop
        #: back onto the asyncio loop via ``call_soon_threadsafe``.
        self.on_finished: Optional[Callable[["RunContext"], None]] = None

    def bind(self, host: GuardHost, *, time_scale: float,
             sink: Optional[UpdateSink] = None,
             policy: Optional[object] = None) -> None:
        """Attach the driver that will run this context.

        ``time_scale`` converts ``host.now()`` units to trace
        microseconds (1e6 on the wall-clock drivers; 1.0 on the
        simulator, so one virtual cost unit renders as one Perfetto
        microsecond).
        """
        self.host = host
        self.sink = sink
        self.policy = policy
        if self.telemetry is not None:
            self.telemetry.bind_clock(host.now, time_scale)

    # ------------------------------------------------------------ regions

    def submit(self, region: FluidRegion,
               after: Iterable[FluidRegion] = ()) -> RegionRun:
        run = RegionRun(len(self.runs), region, tuple(after))
        self.runs.append(run)
        return run

    def run_for(self, region: FluidRegion) -> RegionRun:
        for run in self.runs:
            if run.region is region:
                return run
        raise SchedulerError(
            f"region {region.name!r} given as an 'after' dependency was "
            "never submitted to this run")

    @property
    def regions(self) -> List[FluidRegion]:
        return [run.region for run in self.runs]

    @property
    def all_done(self) -> bool:
        return all(run.done for run in self.runs)

    # ---------------------------------------------------- region lifecycle

    def launchable(self) -> Iterator[RegionRun]:
        """Unlaunched regions whose ``after`` set is done, in submission
        order — FCFS region admission (Section 6.2).  A driver with an
        admission limit stops consuming when it is full."""
        for run in self.runs:
            if not run.launched and \
                    all(self.run_for(dep).done for dep in run.after):
                yield run

    def launch(self, run: RegionRun) -> Coordinator:
        """Launch one region; the driver then starts each task's guard.

        Finalizes the graph, routes the region's count updates, dynamic
        spawns and telemetry to this run's driver, builds the region's
        Coordinator, attaches the autotuner (after finalize, so valves
        exist; before any start check, so the inherited position lands
        before the first verdict) and enters every task into INIT.
        """
        region = run.region
        graph = region.finalize()
        if self.sink is not None:
            region.bind_sink(self.sink)
        region.dynamic_host = self.host
        region.telemetry = self.bus
        run.launched = True
        run.launch_time = self.host.now()
        run.coordinator = Coordinator(
            self.host, graph, modulation=self.modulation,
            cancel_first_runs=self.cancel_first_runs,
            policy=self.policy, telemetry=self.bus)
        if self.autotuner is not None:
            self.autotuner.attach_region(region)
        self._emit(region, "", "launch", f"{len(graph)} tasks")
        for task in graph:
            self._enter_init(run, task)
        return run.coordinator

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> RegionRun:
        """A running task spawned ``task`` (dynamic graphs, Section 8)."""
        run = self.run_for(region)
        self._enter_init(run, task)
        self._emit(region, task.name, "spawn", "dynamic")
        return run

    def _enter_init(self, run: RegionRun, task: FluidTask) -> None:
        self._task_run[id(task)] = run
        task.stats.enter(TaskState.INIT, self.host.now())

    # ------------------------------------------------------- the wake rule

    def admit(self, task: FluidTask) -> None:
        """INIT -> START_CHECK.  The record is parked *before* the
        driver's first valve check, so a publish that misses it in the
        wait set happened before that check read its state."""
        task.transition(TaskState.START_CHECK, self.host.now())
        self.waiting.park(task)

    def woken(self, counts: Iterable[Count]) -> List[FluidTask]:
        """The parked records a published batch of ``counts`` must
        re-evaluate, each once, in filing order or the SchedLab ``wake``
        order (drawn over all filed records), less those a count shuts."""
        gates = self.waiting.gates
        filed: Dict[int, FluidTask] = {}
        closed = set()
        for count in counts:
            for task, shut in gates.get(id(count), ()):
                filed[id(task)] = task
                if shut is not None and shut():
                    closed.add(id(task))
        woken = list(filed.values())
        if self.policy is not None and len(woken) > 1:
            permutation = self.policy.order("wake", [t.name for t in woken])
            woken = [woken[i] for i in permutation]
        return [task for task in woken if id(task) not in closed]

    def begin(self, task: FluidTask) -> TaskContext:
        """Enter RUNNING: the record leaves the wait set, ``sched/run``
        is emitted and the run's input snapshots are taken."""
        self.waiting.discard(task)
        task.transition(TaskState.RUNNING, self.host.now())
        self._emit(task.region, task.name, "run",
                   f"attempt={task.run_index}")
        return task.begin_run()

    # ------------------------------------------------------- the body exit

    def body_left(self, task: FluidTask,
                  error: Optional[Exception] = None) -> bool:
        """A body left its resource, having raised ``error`` or not:
        judge the leaving (docs/runtime-semantics.md, "Leave").  No
        verdict if the context stopped or a cascade completed the task;
        a raising body fails the run; a cancellation request terminates
        it early.  Else the task enters END_CHECK and True is returned:
        the driver calls :meth:`end_check` for the verdict."""
        if self.stopped:
            return False
        run = self._task_run[id(task)]
        if error is not None:
            failure = TaskBodyError(run.region.name, task.name,
                                    task.run_index, error)
            failure.__cause__ = error
            run.coordinator.body_failed(task, failure)
            self.fail(failure)
            return False
        if task.state is TaskState.COMPLETE:
            return False
        if task.cancel_requested:
            run.coordinator.body_cancelled(task)
            return False
        task.transition(TaskState.END_CHECK, self.host.now())
        return True

    def end_check(self, task: FluidTask) -> None:
        """END_CHECK's verdict (Section 6.1): COMPLETE or WAITING."""
        self._task_run[id(task)].coordinator.body_finished(task)

    def task_completed(self, task: FluidTask) -> bool:
        """Region-done bookkeeping behind ``GuardHost.task_completed``.

        Returns True when this completion finished the task's region:
        its makespan (measured from its own launch, so time spent
        waiting on ``after`` predecessors is excluded) and stats are
        closed, ``sched/region-done`` is emitted and the region's task
        records are folded into the metrics, once.
        """
        # A completion cascade can retire a task still in START_CHECK.
        self.waiting.discard(task)
        run = self._task_run[id(task)]
        region = run.region
        if run.done or not region.complete:
            return False
        now = self.host.now()
        run.done = True
        region.stats.makespan = now - run.launch_time
        for sibling in region.tasks:
            sibling.stats.finish(now)
        self._emit(region, "", "region-done",
                   f"makespan={region.stats.makespan:.3f}")
        if self.telemetry is not None:
            self.telemetry.record_region(region)
        return True

    def _emit(self, region: FluidRegion, task: str, name: str,
              detail: str) -> None:
        if self.bus is not None:
            self.bus.emit("sched", region.name, task, name,
                          data={"detail": detail})

    # ---------------------------------------------------- stale picks

    def may_start(self, task: FluidTask) -> bool:
        """May a task picked from the ready queue still start a body?

        Not if it went stale while queued: it completed or started
        meanwhile, it is a re-run whose descendants all completed, or it
        sits in START_CHECK and a non-monotone valve (e.g. convergence)
        flipped back off — a later count update re-checks that one.
        """
        if task.state not in _STARTABLE or self.skip_pointless_rerun(task):
            return False
        return task.state is not TaskState.START_CHECK or \
            task.start_valves_satisfied()

    def skip_pointless_rerun(self, task: FluidTask) -> bool:
        """Early termination before the body even starts (Section 6.1)."""
        if not task.is_leaf and task.state in _RERUNNABLE and \
                task.descendants_complete():
            self._task_run[id(task)].coordinator.skip_rerun(task)
            return True
        return False

    # ------------------------------------------------------------ lifetime

    def fail(self, error: Exception) -> None:
        """Record the run's first error for the waiter to surface."""
        if self.body_error is None:
            self.body_error = error

    @property
    def finished(self) -> threading.Event:
        """An Event set once the context finished, for a thread that
        blocks on it.  Published before the flag is read, so a racing
        :meth:`finish` sets it either way."""
        if self._finished_event is None:
            with _EVENT_LOCK:
                if self._finished_event is None:
                    self._finished_event = threading.Event()
                    if self.is_finished:
                        self._finished_event.set()
        return self._finished_event

    def finish(self) -> None:
        """Mark the context finished and fire ``on_finished``."""
        self.is_finished = True
        if self._finished_event is not None:
            self._finished_event.set()
        if self.on_finished is not None:
            self.on_finished(self)

    def record_run(self, scheduler: Optional[object], workers: int,
                   makespan: Optional[float] = None) -> None:
        """End-of-run telemetry folds: every launched region that never
        finished (its open residences closed at now), tuner and
        scheduler snapshots, then the run's ``makespan`` (default: now)
        over ``workers`` execution resources.  Once per run, by whoever
        opened it (a multi-context caller, on the last context)."""
        if self.telemetry is not None:
            now = self.host.now()
            for run in self.runs:
                if run.launched and not run.done:
                    self.telemetry.record_region(run.region, now)
            self.telemetry.record_autotuner(self.autotuner)
            self.telemetry.record_scheduler(scheduler)
            self.telemetry.run_finished(
                now if makespan is None else makespan, workers, now=now)

    def join(self, timeout: Optional[float] = None) -> None:
        """No-op, still called by ``benchmarks/perf/probes.py``; the
        pool's ``shutdown()`` joins the workers."""

    def pending_description(self) -> str:
        """Human-readable list of incomplete tasks, for diagnostics."""
        lines = []
        for run in self.runs:
            if not run.launched:
                lines.append(f"{run.region.name}=unlaunched")
                continue
            for task in run.region.tasks:
                if task.state is TaskState.COMPLETE:
                    continue
                line = f"{run.region.name}/{task.name}={task.state}"
                if task.state is TaskState.START_CHECK:
                    valves = [f"{valve.name}={valve.peek()}"
                              for valve in task.spec.start_valves]
                    line += f" valves={valves}"
                lines.append(line)
        return "; ".join(lines) or \
            "all tasks complete (region bookkeeping?)"


class ReadyQueue:
    """A driver's one ready queue: startable tasks with their contexts,
    in a :mod:`repro.sched` discipline's order (``spec`` as for
    :func:`repro.sched.make_scheduler`; the SchedLab ``policy``
    tie-breaks through it at ``point``).

    It queues a task at most once, keeps a pick queued until
    :meth:`take` (a publish while the pick waits for its worker cannot
    queue it twice) and drops a pick that went stale while queued
    (:meth:`RunContext.may_start`).  Submissions are never sheddable:
    dropping a Fluid task would deadlock its region, so a bounded
    discipline parks overflow instead.
    """

    __slots__ = ("scheduler", "_clock", "_owners")

    def __init__(self, spec: Optional[object], *, policy: Optional[object],
                 bus: Optional[object], point: str, workers: int,
                 clock: Callable[[], float]):
        # Imported lazily: repro.sched pulls in repro.telemetry, which
        # reaches back into repro.runtime at import time.
        from ..sched import make_scheduler

        self.scheduler = make_scheduler(spec).bind(
            policy=policy, bus=bus, point=point, workers=workers)
        self._clock = clock
        #: id(task) -> its context, for every task queued and not taken.
        self._owners: Dict[int, RunContext] = {}

    def __len__(self) -> int:
        return len(self._owners)

    def __contains__(self, task: FluidTask) -> bool:
        return id(task) in self._owners

    def push(self, ctx: RunContext, task: FluidTask) -> bool:
        """Queue a run of ``task`` unless it is queued; True if queued."""
        if id(task) in self._owners:
            return False
        self._owners[id(task)] = ctx
        self.scheduler.submit(task, now=self._clock())
        return True

    def recheck(self, ctx: RunContext, task: FluidTask) -> bool:
        """Queue a parked record not queued yet if its start valves hold
        (parked until its body starts: a valve may flip back off)."""
        return id(task) not in self._owners and \
            task.start_valves_satisfied() and self.push(ctx, task)

    def pick(self, worker: int) -> Optional[Tuple[FluidTask, RunContext]]:
        """The next pick for ``worker`` and its context, still queued."""
        task = self.scheduler.pick(now=self._clock(), worker=worker)
        return None if task is None else (task, self._owners[id(task)])

    def take(self, task: FluidTask) -> bool:
        """Dequeue a pick; False if it went stale."""
        ctx = self._owners.pop(id(task))
        return not ctx.stopped and ctx.may_start(task)

    def next(self, worker: int) -> Optional[FluidTask]:
        """Pick and take the next pick that may still start; None once
        the queue is empty or the discipline declines."""
        while self.scheduler.pending():
            picked = self.pick(worker)
            if picked is None:
                return None
            if self.take(picked[0]):
                return picked[0]
        return None
