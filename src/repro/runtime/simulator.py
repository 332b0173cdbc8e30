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
completed and an admission slot is free.  The region lifecycle and the
wake rule (``admit`` / ``woken`` / ``begin`` over ``context.waiting``)
are :class:`~repro.runtime.context.RunContext`'s; this driver adds
virtual time, cores and the per-chunk visibility rule, and publishes for
the wake rule (docs/runtime-semantics.md, "Wakeups"): a chunk's completion
re-checks the records ``woken`` names, a finalised cell the polled ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.count import Count, UpdateSink
from ..core.errors import SchedulerError, TaskBodyError
from ..core.guard import GuardHost, ModulationPolicy
from ..core.region import FluidRegion
from ..core.states import TaskState
from ..core.task import FluidTask
from .context import RegionRun, RunContext
from .events import EventQueue
from .executor import Executor, RunResult
from .tracing import Trace


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


class _BufferingSink(UpdateSink):
    """Holds count updates until the surrounding chunk completes."""

    def __init__(self, executor: "SimExecutor"):
        self.executor = executor

    def count_updated(self, count: Count, value: Any) -> None:
        pending = self.executor._pending_updates
        if pending is None:
            # Updates outside a chunk (e.g. region build code) publish
            # immediately.
            count.dispatch(value)
        else:
            pending.append((count, value))


class SimExecutor(Executor, GuardHost):
    """Discrete-event executor with ``cores`` virtual processors."""

    def __init__(self, cores: int = 20,
                 overheads: Optional[Overheads] = None,
                 modulation: Optional[ModulationPolicy] = None,
                 max_active_regions: Optional[int] = None,
                 cancel_first_runs: bool = False,
                 trace: bool = False,
                 policy: Optional[Any] = None,
                 telemetry: Optional[Any] = None,
                 scheduler: Optional[Any] = None,
                 autotune: Optional[Any] = None):
        if cores < 1:
            raise SchedulerError("need at least one core")
        self.cores = cores
        self.overheads = overheads if overheads is not None else Overheads()
        self.cancel_first_runs = cancel_first_runs
        self.modulation = modulation
        self.max_active_regions = max_active_regions or cores
        # Instrumentation: an explicit Telemetry wins; plain trace=True
        # gets a lightweight one (trace only) so Trace keeps working as
        # before through the same bus plumbing.
        if telemetry is None and trace:
            from ..telemetry import Telemetry
            telemetry = Telemetry(metrics=False, chrome=False)
        # Per-run state and the region lifecycle live in a RunContext —
        # the same container the shared thread pool multiplexes many of;
        # the single-shot simulator owns exactly one.
        self.context = RunContext.for_executor(
            "sim-run", telemetry=telemetry, autotune=autotune,
            modulation=modulation, cancel_first_runs=cancel_first_runs)
        self.telemetry = self.context.telemetry
        self.autotuner = self.context.autotuner
        self.trace: Optional[Trace] = (
            self.telemetry.trace if self.telemetry is not None else None)
        #: SchedLab schedule policy: tie-breaks among simultaneous
        #: events, core allocation among ready tasks, and the wake order
        #: of parked records.  None keeps the deterministic FIFO order.
        self.policy = policy
        self.scheduler = self.context.make_scheduler(
            scheduler, policy=policy, point="core", workers=cores)

        self._queue = EventQueue(policy)
        self._now = 0.0
        # Core identities: a LIFO free pool so the scheduler's worker
        # hints (work-stealing) name the core about to be assigned.
        self._free_core_ids: List[int] = list(range(cores))
        self._task_core: Dict[int, int] = {}
        self._queued: Set[int] = set()
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

    # ------------------------------------------------------------- public

    def run(self) -> SimResult:
        self._start_once()
        ctx = self.context
        ctx.bind(self, time_scale=1.0, sink=_BufferingSink(self),
                 policy=self.policy)
        try:
            self._try_admissions()
            queue = self._queue
            while queue or self._idle_repoll():
                time, callback = queue.pop()
                self._now = time
                callback()
        finally:
            ctx.record_run(self.scheduler, self.cores)
        incomplete = [run.region.name for run in ctx.runs if not run.done]
        if incomplete:
            raise SchedulerError(
                "simulation drained with incomplete regions "
                f"{incomplete}: {ctx.pending_description()}")
        overhead = sum(region.stats.overhead_time for region in ctx.regions)
        return SimResult(self._now, ctx.regions, overhead, self.trace)

    def _idle_repoll(self) -> bool:
        """The safety net for parked records, on this driver's clock.

        The event queue ran dry, so nothing is left to publish: give
        every parked record one more look at the current virtual time (a
        valve over state nothing announces, an injected valve flake).
        False when that scheduled nothing — the simulation has drained.
        The wall-clock drivers' timed re-poll likewise fires only while
        nothing else is going on."""
        for task in tuple(self.context.waiting.records.values()):
            self._check_start(task)
        return bool(self._queue)

    # -------------------------------------------------------- GuardHost

    def now(self) -> float:
        return self._now

    def schedule_run(self, task: FluidTask) -> None:
        self._acquire_core_or_queue(task)

    def task_completed(self, task: FluidTask) -> None:
        if self.context.task_completed(task):
            self._active_regions -= 1
            self._try_admissions()

    def admit_dynamic_task(self, region: FluidRegion,
                           task: FluidTask) -> None:
        self.context.admit_dynamic_task(region, task)
        self._launch_guard(region, task)

    # ------------------------------------------------------- admission

    def _try_admissions(self) -> None:
        # A region whose predecessors are unfinished blocks the ones
        # behind it only if the slot limit is reached.
        for run in self.context.launchable():
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
        self.context.launch(run)
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
        self.context.admit(task)
        if id(task) in self.context.waiting.polled:
            # mark_final publishes no count: hear each input finalise,
            # once per cell.  (Never its bumps — the visibility rule.)
            for data in task.spec.inputs:
                if id(data) not in self._final_wired:
                    self._final_wired.add(id(data))
                    data.on_final(self._repoll)
        self._check_start(task)

    def _repoll(self, _data: Any) -> None:
        for task in tuple(self.context.waiting.polled.values()):
            self._check_start(task)

    def _check_start(self, task: FluidTask) -> None:
        if task.state is not TaskState.START_CHECK:
            return  # started: an earlier wake of this batch freed a core
        self.context.run_of(task).region.stats.overhead_time += (
            self.overheads.valve_check * max(1, len(task.spec.start_valves)))
        if task.start_valves_satisfied():
            self._acquire_core_or_queue(task)

    # ------------------------------------------------------------ cores

    def _acquire_core_or_queue(self, task: FluidTask) -> None:
        if id(task) in self._queued:
            return
        if self.context.skip_pointless_rerun(task):
            return
        if self._free_core_ids:
            self._begin_run(task)
        else:
            self._queued.add(id(task))
            self.scheduler.submit(task, now=self._now)

    def _release_core(self, finished: FluidTask) -> None:
        self._free_core_ids.append(self._task_core.pop(id(finished)))
        while self._free_core_ids:
            task = self.context.pick_ready(self.scheduler, self._queued,
                                           self._free_core_ids[-1])
            if task is None:
                break
            self._begin_run(task)

    # ------------------------------------------------------------- body

    def _begin_run(self, task: FluidTask) -> None:
        key = id(task)
        self._queued.discard(key)
        self._task_core[key] = self._free_core_ids.pop()
        self._generators[key] = task.make_generator(self.context.begin(task))
        if key not in self._chunk_keys:
            self._chunk_keys[key] = f"chunk:{task.name}"
        self._advance(task)

    def _advance(self, task: FluidTask) -> None:
        """Execute the next chunk of ``task`` and schedule its completion."""
        if task.cancel_requested:
            self._generators.pop(id(task), None)
            self._release_core(task)
            self.context.run_of(task).coordinator.body_cancelled(task)
            return
        generator = self._generators[id(task)]
        self._pending_updates = []
        try:
            cost = float(next(generator))
        except StopIteration:
            captured = self._pending_updates
            self._pending_updates = None
            self._body_done(task, captured)
            return
        except Exception as exc:
            self._pending_updates = None
            region_name = task.region.name if task.region else "?"
            raise TaskBodyError(region_name, task.name,
                                task.run_index, exc) from exc
        captured = self._pending_updates
        self._pending_updates = None
        if cost < 0:
            raise SchedulerError(
                f"task {task.name!r} yielded a negative cost {cost}")
        self._queue.push(self._now + cost,
                         lambda: self._chunk_done(task, captured),
                         key=self._chunk_keys[id(task)])

    def _chunk_done(self, task: FluidTask,
                    captured: List[Tuple[Count, Any]]) -> None:
        self._publish(captured)
        self._advance(task)

    def _body_done(self, task: FluidTask,
                   captured: List[Tuple[Count, Any]]) -> None:
        self._generators.pop(id(task), None)
        self._release_core(task)
        task.transition(TaskState.END_CHECK, self._now)
        run = self.context.run_of(task)
        run.region.stats.overhead_time += self.overheads.end_check

        def finish():
            # Mark outputs final (body_finished -> finish_run) *before*
            # publishing the last chunk's count updates: a consumer whose
            # start valve flips on the final update must observe the
            # producer's data as final/precise, otherwise a fully
            # serialized schedule would still record imprecise starts and
            # re-execute spuriously.
            run.coordinator.body_finished(task)
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
        for task in self.context.woken(count for count, _value in captured):
            self._check_start(task)
