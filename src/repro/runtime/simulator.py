"""The discrete-event, virtual-time Fluid executor.

This backend plays the role of the paper's 20-core Xeon: task bodies are
Python generators whose yielded values are *virtual costs*; the simulator
interleaves runnable tasks over a configurable number of cores and
advances a virtual clock.  Because CPython's GIL makes real task
parallelism unreproducible in pure Python, all performance experiments in
this reproduction are run on this backend — the makespans it reports are
deterministic, seed-stable, and preserve the scheduling phenomena the
paper measures (producer/consumer overlap, valve-gated start times,
re-execution chains, core contention, guard overheads).

Visibility rule: the Python side effects of a chunk are applied when the
chunk's code runs, but counts are *published* (valves re-checked, guards
woken) only at the chunk's virtual completion time, so no task can react
to data "from the future".

Region scheduling is first-come-first-serve (Section 6.2): submitted
regions are admitted in order, as soon as their predecessor regions have
completed and an admission slot is free.  The region lifecycle, the
wake rule (``admit`` / ``woken`` / ``begin`` over ``context.waiting``)
and the body exit (``body_left`` / ``end_check``) are
:class:`~repro.runtime.context.RunContext`'s; this driver adds
virtual time, cores and the per-chunk visibility rule, and publishes for
the wake rule (docs/runtime-semantics.md, "Wakeups"): a chunk's completion
re-checks the records ``woken`` names, a finalised cell the polled ones.

One executor hosts a sequence of contexts, one at a time (``start`` /
``wait``), on one virtual clock that runs on from context to context;
``run()`` hosts its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.count import Count, UpdateSink
from ..core.errors import SchedulerError
from ..core.guard import GuardHost, ModulationPolicy
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask
from ..telemetry import Trace
from .context import ReadyQueue, RegionRun, RunContext
from .events import EventQueue
from .executor import Executor, RunResult


@dataclass
class Overheads:
    """Framework costs, in the same virtual-time units as chunk costs.

    ``task_init`` models the paper's guard-thread launch cost (the
    dominant overhead for K-means and Graph Coloring, Figure 11);
    ``end_check`` the quality-function evaluation; ``region_setup`` the
    per-region construction cost.  ``valve_check`` (per evaluated start
    check) and ``signal`` go into :attr:`RegionStats.overhead_time`,
    never into latency, matching the paper's observation that valve
    checks only show up as StartCheck residence time.
    """

    task_init: float = 1.0
    end_check: float = 0.5
    region_setup: float = 2.0
    valve_check: float = 0.01
    signal: float = 0.02
    #: Thread-pool mitigation (the paper's Section-3.3 limitation: "Using
    #: a thread-pool will clearly mitigate these overheads, but that
    #: feature is not yet supported").  With ``pool_size > 0`` only the
    #: first ``pool_size`` guard launches pay ``task_init``; every later
    #: task is dispatched onto an existing pooled guard for
    #: ``pool_dispatch``.
    pool_size: int = 0
    pool_dispatch: float = 0.0

    def __post_init__(self) -> None:
        # A negative cost schedules events before ``now`` and a NaN one
        # poisons every overhead sum, so refuse both up front.
        for name, value in vars(self).items():
            kind, what = ((int, "an int") if name == "pool_size"
                          else ((int, float), "a finite number"))
            if not (isinstance(value, kind) and math.isfinite(value)
                    and value >= 0):
                raise ValueError(
                    f"Overheads.{name} must be {what} >= 0, got {value!r}")

    @classmethod
    def zero(cls) -> "Overheads":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    def guard_launch_cost(self, launches_so_far: int) -> float:
        """Cost of bringing up the guard for the next task."""
        if self.pool_size > 0 and launches_so_far >= self.pool_size:
            return self.pool_dispatch
        return self.task_init


class SimResult(RunResult):
    """Result of a simulated run, with trace access."""

    def __init__(self, makespan: float, regions, overhead_time: float,
                 trace: Optional[Trace]):
        super().__init__(makespan, regions, overhead_time)
        self.trace = trace


class SimExecutor(Executor, GuardHost, UpdateSink):
    """Discrete-event executor with ``cores`` virtual processors; the
    sink of its regions' count updates, held until the surrounding
    chunk completes."""

    def __init__(self, cores: int = 20,
                 overheads: Optional[Overheads] = None,
                 modulation: Optional[ModulationPolicy] = None,
                 max_active_regions: Optional[int] = None,
                 cancel_first_runs: bool = False,
                 policy: Optional[Any] = None,
                 telemetry: Optional[Any] = None,
                 autotune: Optional[Any] = None):
        if cores < 1:
            raise SchedulerError("need at least one core")
        self.cores = cores
        self.overheads = overheads if overheads is not None else Overheads()
        if max_active_regions is None:
            max_active_regions = cores
        if max_active_regions < 1:
            # A cap below 1 could never launch a region.
            raise SchedulerError("max_active_regions must be >= 1")
        self.max_active_regions = max_active_regions
        super().__init__("sim-run", telemetry=telemetry, autotune=autotune,
                         modulation=modulation,
                         cancel_first_runs=cancel_first_runs)
        #: The run's repro.telemetry.Trace, if it has a telemetry.
        self.trace = getattr(self.context.telemetry, "trace", None)
        #: SchedLab schedule policy: tie-breaks among simultaneous
        #: events, core allocation among ready tasks, and the wake order
        #: of parked records.  None keeps the deterministic FIFO order.
        self.policy = policy
        self._ready = ReadyQueue(policy=policy, point="core", clock=self.now)
        self.scheduler = self._ready.scheduler
        self.parallelism = cores
        #: The virtual clock: it runs on across the contexts this host
        #: drives, so a caller measures a context from its own epoch.
        self._now = 0.0
        self._ctx: Optional[RunContext] = None

    # ------------------------------------------------------------- host

    def start(self, ctx: RunContext) -> None:
        """Bind ``ctx`` and schedule the admission of its dependency-free
        regions at the current virtual time.  Every per-run table is
        reset: ids of a released context's objects are recycled."""
        self._ctx = ctx
        ctx.bind(self, time_scale=1.0, sink=self, policy=self.policy)
        self._queue = EventQueue(self.policy)
        self._free_cores = self.cores
        self._pending_updates: Optional[List[Tuple[Count, Any]]] = None
        self._active_regions = 0
        self._final_wired: Set[int] = set()  # cells whose mark_final we hear
        self._generators: Dict[int, Any] = {}
        # Per-task chunk event keys, built once per task: _advance runs
        # once per yielded chunk, and rebuilding ``f"chunk:{name}"``
        # there (a property read plus an f-string) was the simulator's
        # single hottest line under cProfile.
        self._chunk_keys: Dict[int, str] = {}
        self._guards_launched = 0
        self._try_admissions()

    def wait(self, ctx: RunContext, timeout: Optional[float] = None) -> None:
        """Run virtual time until ``ctx`` drains (no wall-clock bound).
        A context whose body fails is stopped, so the host's next context
        drops its queued picks (a drained one has none: a queued pick
        waits on a busy core, and a busy core has an event pending)."""
        queue = self._queue
        try:
            while queue or self._idle_repoll():
                time, callback = queue.pop()
                self._now = time
                callback()
        except BaseException:
            ctx.stopped = True
            raise
        incomplete = [run.region.name for run in ctx.runs if not run.done]
        if incomplete:
            raise SchedulerError(
                "simulation drained with incomplete regions "
                f"{incomplete}: {ctx.pending_description()}")

    def _result(self, ctx: RunContext, makespan: float) -> SimResult:
        overhead = sum(region.stats.overhead_time for region in ctx.regions)
        return SimResult(makespan, ctx.regions, overhead, self.trace)

    def _idle_repoll(self) -> bool:
        """The safety net for parked records, on this driver's clock.

        The event queue ran dry, so nothing is left to publish: give
        every parked record one more look at the current virtual time (a
        valve over state nothing announces, an injected valve flake).
        False when that scheduled nothing — the simulation has drained.
        The wall-clock drivers' timed re-poll likewise fires only while
        nothing else is going on."""
        for task in tuple(self._ctx.waiting.records.values()):
            self._check_start(task)
        return bool(self._queue)

    # -------------------------------------------------------- GuardHost

    def now(self) -> float:
        return self._now

    def schedule_run(self, task: FluidTask) -> None:
        self._acquire_core_or_queue(task)

    def count_updated(self, count: Count, value: Any) -> None:
        pending = self._pending_updates
        if pending is None:
            # Updates outside a chunk (e.g. region build code) publish
            # immediately.
            count.dispatch(value)
        else:
            pending.append((count, value))

    def task_completed(self, task: FluidTask) -> None:
        if self._ctx.task_completed(task):
            self._active_regions -= 1
            self._try_admissions()

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> None:
        self._ctx.admit_dynamic_task(region, task)
        self._launch_guard(region, task)

    # ------------------------------------------------------- admission

    def _try_admissions(self) -> None:
        # A region whose predecessors are unfinished blocks the ones
        # behind it only if the slot limit is reached.
        for run in self._ctx.launchable():
            if self._active_regions >= self.max_active_regions:
                break
            # Admitted now, launched once the setup cost has elapsed.
            run.launched = True
            self._active_regions += 1
            setup = self.overheads.region_setup
            run.region.stats.overhead_time += setup
            self._queue.push(self._now + setup,
                             lambda run=run: self._launch_region(run),
                             key=f"launch:{run.region.name}")

    def _launch_region(self, run: RegionRun) -> None:
        self._ctx.launch(run)
        for task in run.region.graph:
            self._launch_guard(run.region, task)

    def _launch_guard(self, region: FluidRegion, task: FluidTask) -> None:
        launch = self.overheads.guard_launch_cost(self._guards_launched)
        self._guards_launched += 1
        region.stats.overhead_time += launch
        self._queue.push(self._now + launch,
                         lambda: self._enter_start_check(task),
                         key=f"start:{task.name}")

    # ----------------------------------------------------------- guards

    def _enter_start_check(self, task: FluidTask) -> None:
        if task.state is not TaskState.INIT:
            return  # retired from INIT by a completion cascade
        self._ctx.admit(task)
        if id(task) in self._ctx.waiting.polled:
            # mark_final publishes no count: hear each input finalise,
            # once per cell.  (Never its bumps — the visibility rule.)
            for data in task.spec.inputs:
                if id(data) not in self._final_wired:
                    self._final_wired.add(id(data))
                    data.on_final(self._repoll)
        self._check_start(task)

    def _repoll(self, _data: Any) -> None:
        for task in tuple(self._ctx.waiting.polled.values()):
            self._check_start(task)

    def _check_start(self, task: FluidTask) -> None:
        if task.state is not TaskState.START_CHECK:
            return  # started: an earlier wake of this batch freed a core
        task.region.stats.overhead_time += (
            self.overheads.valve_check * max(1, len(task.spec.start_valves)))
        if task.start_valves_satisfied():
            self._acquire_core_or_queue(task)

    # ------------------------------------------------------------ cores

    def _acquire_core_or_queue(self, task: FluidTask) -> None:
        # A free core starts the task at once: a push and a pick would
        # re-check its start valves (``may_start``).
        ctx = self._ctx
        if task in self._ready or ctx.skip_pointless_rerun(task):
            return
        if self._free_cores:
            self._begin_run(task)
        else:
            self._ready.push(ctx, task)

    def _release_core(self) -> None:
        self._free_cores += 1
        while self._free_cores:
            task = self._ready.next()
            if task is None:
                break
            self._begin_run(task)

    # ------------------------------------------------------------- body

    def _begin_run(self, task: FluidTask) -> None:
        key = id(task)
        self._free_cores -= 1
        self._generators[key] = task.make_generator(self._ctx.begin(task))
        if key not in self._chunk_keys:
            self._chunk_keys[key] = f"chunk:{task.name}"
        self._advance(task)

    def _advance(self, task: FluidTask) -> None:
        """Execute the next chunk of ``task`` and schedule its completion."""
        if task.cancel_requested:
            self._body_left(task, [])
            return
        generator = self._generators[id(task)]
        self._pending_updates = []
        try:
            cost = float(next(generator))
        except StopIteration:
            captured = self._pending_updates
            self._pending_updates = None
            self._body_left(task, captured)
            return
        except Exception as exc:
            self._pending_updates = None
            # Fails the run at once: no other body starts on this core.
            self._ctx.body_left(task, exc)
            raise self._ctx.body_error
        captured = self._pending_updates
        self._pending_updates = None
        if not 0.0 <= cost < math.inf:
            raise SchedulerError(
                f"task {task.name!r} yielded a negative or non-finite "
                f"cost {cost}")
        self._queue.push(self._now + cost,
                         lambda: self._chunk_done(task, captured),
                         key=self._chunk_keys[id(task)])

    def _chunk_done(self, task: FluidTask,
                    captured: List[Tuple[Count, Any]]) -> None:
        self._publish(captured)
        self._advance(task)

    def _body_left(self, task: FluidTask,
                   captured: List[Tuple[Count, Any]]) -> None:
        """Free the core, then let the context judge the leaving; the
        END_CHECK verdict comes after the modelled end-check cost."""
        self._generators.pop(id(task), None)
        self._release_core()
        ctx = self._ctx
        if not ctx.body_left(task):
            return
        task.region.stats.overhead_time += self.overheads.end_check

        def finish():
            # Mark outputs final (end_check -> finish_run) *before*
            # publishing the last chunk's count updates: a consumer whose
            # start valve flips on the final update must observe the
            # producer's data as final/precise, otherwise a fully
            # serialized schedule would still record imprecise starts and
            # re-execute spuriously.
            ctx.end_check(task)
            self._publish(captured)

        self._queue.push(self._now + self.overheads.end_check, finish,
                         key=f"end:{task.name}")

    # ---------------------------------------------------------- updates

    def _publish(self, captured: List[Tuple[Count, Any]]) -> None:
        if not captured:
            # Most chunks of compute-heavy bodies publish nothing.
            return
        for count, value in captured:
            count.dispatch(value)
        for task in self._ctx.woken(count for count, _value in captured):
            self._check_start(task)
