"""Executor interface and the serial (non-Fluid) reference executor.

Every backend consumes finalized :class:`~repro.core.region.FluidRegion`
objects.  :func:`run_serial` executes a region the way the *original*,
non-fluidized program would: tasks run one at a time in topological
order, each consuming only final inputs.  Its makespan (the sum of all
chunk costs) and outputs are the baselines against which every fluid
result in the evaluation is normalized.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core.count import ImmediateSink
from ..core.errors import SchedulerError
from ..core.region import FluidRegion
from .context import RunContext


class RunResult:
    """Common result shape for all executors."""

    def __init__(self, makespan: float, regions: Sequence[FluidRegion],
                 overhead_time: float = 0.0):
        self.makespan = makespan
        self.regions = list(regions)
        self.overhead_time = overhead_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"RunResult(makespan={self.makespan:.3f}, "
                f"regions={len(self.regions)})")


class Executor:
    """A host of :class:`~repro.runtime.context.RunContext` runs, with
    a single-shot run of its own context.

    The host protocol (``SharedThreadPool`` speaks it too):
    ``start(ctx)`` binds a context and admits its work, ``wait(ctx,
    timeout)`` returns once it finished (raising its first error),
    ``now()`` is the host clock, ``scheduler`` its ready-queue
    discipline, ``shutdown()`` releases what the host holds.  A caller
    driving contexts through a host closes that run itself
    (``RunContext.record_run``); :meth:`run` closes its own.
    """

    _started = False
    #: Wall-clock deadline of :meth:`run`; None on the simulator.
    timeout: Optional[float] = None
    #: The parallelism denominator of ``MetricsRegistry.finalize``:
    #: virtual cores on the simulator, 1 on the GIL-bound thread driver,
    #: the pool size on the process driver.
    parallelism = 1

    def __init__(self, label: str, **run_options):
        #: The context :meth:`run` drives (submissions, completion,
        #: telemetry, the resolved autotuner).
        self.context = RunContext(label=label, **run_options)

    def submit(self, region: FluidRegion,
               after: Iterable[FluidRegion] = ()) -> FluidRegion:
        self.context.submit(region, after)
        return region

    def shutdown(self) -> None:
        """Release what the host holds (workers, a private pool)."""

    def run(self) -> RunResult:
        """Drive this executor's own context once: start, wait, shut the
        host down, then close the run on every exit path.  The makespan
        runs from ``start``, not from the host's construction."""
        if self._started:
            raise SchedulerError("executors are single-shot; build a new one")
        self._started = True
        ctx = self.context
        epoch = self.now()
        try:
            self.start(ctx)
            self.wait(ctx, self.timeout)
        finally:
            self.shutdown()
            makespan = self.now() - epoch
            ctx.record_run(self.scheduler, self.parallelism, makespan)
        return self._result(ctx, makespan)

    def _result(self, ctx: RunContext, makespan: float) -> RunResult:
        return RunResult(makespan, ctx.regions)


#: Names accepted by :func:`make_executor` (and the bench ``--backend``
#: flag): the virtual-time simulator, the GIL-bound thread backend, and
#: the true-parallel multiprocessing backend.
BACKENDS = ("sim", "thread", "process")


def make_executor(backend: str, **kwargs) -> Executor:
    """Construct an executor by backend name.

    All three backends consume the same finalized regions and drive the
    same guard coordinator, so callers can treat the returned object
    uniformly; ``kwargs`` are forwarded to the backend constructor
    (each backend documents its own knobs).
    """
    if backend == "sim":
        from .simulator import SimExecutor

        return SimExecutor(**kwargs)
    if backend == "thread":
        from .thread_backend import ThreadExecutor

        return ThreadExecutor(**kwargs)
    if backend == "process":
        from .process_backend import ProcessExecutor

        return ProcessExecutor(**kwargs)
    raise SchedulerError(
        f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}")


class _SerialDynamicHost:
    """Collects tasks spawned during a serial run for later execution."""

    def __init__(self):
        self.pending: List = []

    def admit_dynamic_task(self, region, task) -> None:
        self.pending.append(task)


def run_serial(*regions: FluidRegion) -> RunResult:
    """Execute regions back-to-back, each task serially in topo order.

    This is the precise original program: no valves, no guards, no
    overlap, no framework overhead.  Outputs are exactly the conservative
    results, and the makespan is the sum of every chunk's cost.
    Dynamically spawned tasks (Section 8) are executed after the task
    that spawned them, preserving dataflow order.
    """
    from ..core.states import TaskState

    total = 0.0
    for region in regions:
        graph = region.finalize()
        region.bind_sink(ImmediateSink())
        host = _SerialDynamicHost()
        region.dynamic_host = host

        def execute(task):
            nonlocal total
            ctx = task.begin_run()
            generator = task.make_generator(ctx)
            task.state = TaskState.RUNNING   # so ctx.spawn() is legal
            for cost in generator:
                total += float(cost)
            task.finish_run()
            # Every input was final and precise, so the task completes
            # precisely; reflect that for downstream assertions.
            task.stats.enter(TaskState.INIT, total)
            task.state = TaskState.COMPLETE
            task.stats.enter(TaskState.COMPLETE, total)

        worklist = list(graph.topo_order())
        index = 0
        while index < len(worklist):
            execute(worklist[index])
            index += 1
            if host.pending:
                # Spawned tasks only consume data from tasks that already
                # ran (their producers include the spawner); append them
                # in spawn order.
                worklist.extend(host.pending)
                host.pending.clear()
        region.dynamic_host = None
        region.stats.makespan = total
    return RunResult(total, regions)
