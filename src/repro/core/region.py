"""Fluid regions: the unit of approximate concurrency.

A :class:`FluidRegion` corresponds to one Fluid object in the paper: it
encapsulates the Fluid data, counts, valves and tasks of a single
approximable region.  Regions have a non-Fluid input and non-Fluid
outputs; fluidity is confined inside the region (Section 3.2).

Two usage styles are supported:

* imperative — instantiate a region and call :meth:`add_data`,
  :meth:`add_count`, :meth:`add_task` directly (what the FluidPy
  compiler's generated code does);
* declarative — subclass and override :meth:`build`, which is invoked by
  :meth:`finalize` before the region is handed to an executor (what the
  bundled applications do)::

      class EdgeDetection(FluidRegion):
          def build(self):
              d1 = self.input_data("d1", image)
              d2 = self.add_array("d2", buffer)
              ct = self.add_count("ct")
              ...
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .count import Count, UpdateSink
from .data import FluidArray, FluidData, FluidScalar
from .errors import GraphError
from .graph import TaskGraph
from .stats import RegionStats, TaskStats
from .task import FluidTask, TaskBody, TaskSpec
from .valves import Valve

_region_counter = [0]


class FluidRegion:
    """One Fluid object: data + counts + valves + a static task graph."""

    def __init__(self, name: Optional[str] = None):
        if name is None:
            _region_counter[0] += 1
            name = f"{type(self).__name__.lower()}_{_region_counter[0]}"
        self.name = name
        self.datas: Dict[str, FluidData] = {}
        self.counts: Dict[str, Count] = {}
        self.valves: List[Valve] = []
        self.tasks: List[FluidTask] = []
        self.graph: Optional[TaskGraph] = None
        self.stats = RegionStats(name)
        self._finalized = False
        # Set by an executor that supports dynamic task graphs; a
        # TaskContext.spawn() call routes through it (Section 8).
        self.dynamic_host = None
        # Set by SchedLab to inject faults (body exceptions, valve
        # flakiness, delays) into this region's tasks; None in normal
        # operation.  See repro.schedlab.faults.FaultPlan.
        self.fault_plan = None
        # Set by an executor when telemetry is enabled: a
        # repro.telemetry.TelemetryBus that task transitions and valve
        # evaluations publish into; None means no instrumentation.
        self.telemetry = None
        # Process-backend contract: a picklable ``(callable, args,
        # kwargs)`` triple whose module-level callable rebuilds a
        # structurally identical region (same task and cell names, in
        # the same order).  Every worker of a
        # :class:`repro.runtime.worker_pool.PersistentProcessPool`
        # installs the region from it.  ``None`` (the default) keeps
        # the region off the process backend, which refuses it with a
        # SchedulerError before any body runs.
        self.remote_factory = None
        self._bound_sink: Optional[UpdateSink] = None

    # -- declaration API ---------------------------------------------------

    def add_data(self, name: str, value: Any = None) -> FluidData:
        """Declare a scalar Fluid data member (``#pragma data {T d;}``)."""
        return self._register_data(FluidScalar(name, value))

    def add_array(self, name: str, value: Any = None) -> FluidArray:
        """Declare an array Fluid data member (``#pragma data {T *d;}``)."""
        return self._register_data(FluidArray(name, value))

    def input_data(self, name: str, value: Any = None) -> FluidData:
        """Declare the region's non-Fluid input: born final and precise."""
        data = FluidScalar(name, value)
        data.mark_input()
        return self._register_data(data)

    def _register_data(self, data: FluidData) -> FluidData:
        if data.name in self.datas:
            raise GraphError(
                f"region {self.name!r}: duplicate data {data.name!r}")
        data.region = self
        self.datas[data.name] = data
        return data

    def add_count(self, name: str, initial: Any = 0) -> Count:
        """Declare a count member (``#pragma count {T ct;}``)."""
        if name in self.counts:
            raise GraphError(
                f"region {self.name!r}: duplicate count {name!r}")
        count = Count(name, initial)
        if self._bound_sink is not None:
            # Counts declared after launch (dynamic tasks) must publish
            # through the executor like every other count.
            count.bind_sink(self._bound_sink)
        self.counts[name] = count
        return count

    def add_valve(self, valve: Valve) -> Valve:
        """Register a valve (``#pragma valve``) for bookkeeping/reset."""
        self.valves.append(valve)
        return valve

    def add_task(self, name: str, body: TaskBody,
                 start_valves: Sequence[Valve] = (),
                 end_valves: Sequence[Valve] = (),
                 inputs: Sequence[FluidData] = (),
                 outputs: Sequence[FluidData] = (),
                 priority: float = 0.0,
                 deadline: "float | None" = None,
                 cost_estimate: "float | None" = None) -> FluidTask:
        """Schedule a task (``#pragma task <<<name, SV, EV, In, Out>>>``).

        ``priority`` / ``deadline`` / ``cost_estimate`` are optional
        scheduling hints for the non-default :mod:`repro.sched`
        disciplines; the FCFS default ignores them.
        """
        if self._finalized:
            raise GraphError(
                f"region {self.name!r}: cannot add tasks after finalize(); "
                "dynamic task graphs are future work (Section 8)")
        spec = TaskSpec(name, body, start_valves, end_valves, inputs, outputs,
                        priority=priority, deadline=deadline,
                        cost_estimate=cost_estimate)
        task = FluidTask(spec, region=self)
        self.tasks.append(task)
        for valve in tuple(start_valves) + tuple(end_valves):
            if valve not in self.valves:
                self.valves.append(valve)
        return task

    # -- lifecycle -----------------------------------------------------------

    def build(self) -> None:
        """Hook for subclasses: declare data, counts, valves and tasks."""

    def finalize(self) -> TaskGraph:
        """Build (if needed), infer the task graph, and validate the region."""
        if not self._finalized:
            if not self.tasks:
                self.build()
            self.graph = TaskGraph(self.tasks)
            self.graph.validate()
            # Region inputs are non-Fluid (Section 3.2): any data cell
            # consumed but produced by no task is born final and precise.
            for data in self.graph.region_inputs():
                data.mark_input()
            self._finalized = True
        return self.graph

    def bind_sink(self, sink: UpdateSink) -> None:
        """Route all count updates through the executor's sink."""
        self._bound_sink = sink
        for count in self.counts.values():
            count.bind_sink(sink)

    # -- dynamic task graphs (paper Section 8) -----------------------------

    def spawn_task(self, spawner: "FluidTask", name: str, body: TaskBody,
                   start_valves: Sequence[Valve] = (),
                   end_valves: Sequence[Valve] = (),
                   inputs: Sequence[FluidData] = (),
                   outputs: Sequence[FluidData] = ()) -> FluidTask:
        """Add a task to an *executing* region (``ctx.spawn``).

        Only available under an executor that installed itself as the
        region's dynamic host; the spawner must still be running, which
        structurally guarantees the region has not completed.
        """
        from .states import TaskState

        if self.dynamic_host is None:
            raise GraphError(
                f"region {self.name!r}: this executor does not support "
                "dynamic task graphs")
        if spawner.state is not TaskState.RUNNING:
            raise GraphError(
                f"task {spawner.name!r} may only spawn while RUNNING")
        spec = TaskSpec(name, body, start_valves, end_valves, inputs,
                        outputs)
        task = FluidTask(spec, region=self)
        assert self.graph is not None
        self.graph.add_dynamic_task(task, spawner)
        self.tasks.append(task)
        for valve in tuple(start_valves) + tuple(end_valves):
            if valve not in self.valves:
                self.valves.append(valve)
        self.dynamic_host.admit_dynamic_task(self, task)
        return task

    def reset(self, name: str) -> None:
        """Re-arm a finished region in place as ``name``, keeping its
        graph: tasks in INIT with fresh stats, valves at base with no
        checks, counts at their initial value (data is the owner's)."""
        from .states import TaskState

        self.name, self.stats = name, RegionStats(name)
        for task in self.tasks:
            task.state, task.stats = TaskState.INIT, TaskStats(task.name)
            task.run_index, task.input_snapshots = 0, {}
            task.cancel_requested = task.started_precise = False
            task.pending_update = task.rerun_scheduled = False
        for valve in self.valves:
            valve.checks = 0
            valve.relax_to_base()
        for count in self.counts.values():
            count.reset()

    # -- results ---------------------------------------------------------------

    @property
    def complete(self) -> bool:
        from .states import TaskState

        return bool(self.tasks) and all(
            task.state is TaskState.COMPLETE for task in self.tasks)

    def output(self, name: str) -> Any:
        """Read a region output by data name; requires the run to be done."""
        return self.datas[name].read_final()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FluidRegion({self.name}, tasks={len(self.tasks)}, "
                f"complete={self.complete})")
