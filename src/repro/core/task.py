"""Fluid tasks: dynamic instances of Fluid methods (``#pragma task``).

A :class:`TaskSpec` is the static half — the guard tuple
``<<<name, SV, EV, Inputs, Outputs>>>`` plus the body function.  A
:class:`FluidTask` is the dynamic half: current state-machine state,
per-run bookkeeping (input snapshots, pending signals) and statistics.

Task bodies are *generators*: they perform a chunk of work, then
``yield`` the chunk's virtual cost (a non-negative float).  The executor
interleaves chunks of concurrently-running tasks; in the simulator
backend the yielded costs advance virtual time, in the thread backend
they are cooperative cancellation points.  A body receives a
:class:`TaskContext` as its only framework argument::

    def gaussian(ctx):
        image = d_in.read()
        for row in range(height):
            out[row] = blur(image, row)
            ct.add(width)
            yield width * KERNEL_COST
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Sequence

from .data import DataSnapshot, FluidData
from .errors import GraphError
from .states import TaskState, check_transition
from .stats import TaskStats
from .valves import Valve

TaskBody = Callable[..., Generator[float, None, None]]


class TaskContext:
    """Handle passed to every task body.

    Exposes the run index (0 for the first execution, >0 for
    re-executions triggered by quality failures) and a cooperative
    cancellation flag used by the early-termination mechanism.
    """

    def __init__(self, task: "FluidTask"):
        self.task = task

    @property
    def run_index(self) -> int:
        return self.task.run_index

    @property
    def cancelled(self) -> bool:
        return self.task.cancel_requested

    @property
    def name(self) -> str:
        return self.task.name

    def spawn(self, name: str, body: "TaskBody", start_valves=(),
              end_valves=(), inputs=(), outputs=()):
        """Dynamically add a successor task to the running region.

        This is the Section-8 extension ("accommodating dynamic
        task-graphs"): a running task may create new tasks whose outputs
        are fresh data cells — e.g. one consumer per item an ongoing
        scan discovers.  Requires an executor with dynamic support
        (both bundled executors provide it)."""
        return self.task.region.spawn_task(
            self.task, name, body, start_valves=start_valves,
            end_valves=end_valves, inputs=inputs, outputs=outputs)


class TaskSpec:
    """Static description of one Fluid task."""

    def __init__(self, name: str, body: TaskBody,
                 start_valves: Sequence[Valve] = (),
                 end_valves: Sequence[Valve] = (),
                 inputs: Sequence[FluidData] = (),
                 outputs: Sequence[FluidData] = ()):
        if not name:
            raise GraphError("tasks must be named")
        self.name = name
        self.body = body
        self.start_valves = tuple(start_valves)
        self.end_valves = tuple(end_valves)
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TaskSpec({self.name}, in={[d.name for d in self.inputs]}, "
                f"out={[d.name for d in self.outputs]})")


class FluidTask:
    """A schedulable dynamic instance of a Fluid method."""

    def __init__(self, spec: TaskSpec, region: "object" = None):
        self.spec = spec
        self.region = region
        self.state = TaskState.INIT
        self.stats = TaskStats(spec.name)
        self.run_index = 0
        self.cancel_requested = False
        # Snapshots of every input at the start of the current/last run.
        self.input_snapshots: Dict[str, DataSnapshot] = {}
        self.started_precise = False
        # Signals that arrived while the task could not act on them.
        self.pending_update = False
        # A re-run has been handed to the backend but has not started yet.
        self.rerun_scheduled = False
        # Filled in by the graph: parent and child FluidTasks.
        self.parents: Sequence["FluidTask"] = ()
        self.children: Sequence["FluidTask"] = ()
        self.descendants: Sequence["FluidTask"] = ()

    # -- convenience -----------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_root(self) -> bool:
        return not self.parents

    @property
    def has_end_valves(self) -> bool:
        return bool(self.spec.end_valves)

    # -- state machine -----------------------------------------------------

    def transition(self, new_state: TaskState, now: float) -> None:
        check_transition(self.state, new_state)
        old_state = self.state
        self.state = new_state
        self.stats.enter(new_state, now)
        telemetry = getattr(self.region, "telemetry", None)
        if telemetry is not None:
            telemetry.emit(
                "transition", getattr(self.region, "name", ""), self.name,
                new_state.name, ts=now,
                data={"src": old_state.name, "run": self.run_index})

    # -- run bookkeeping ---------------------------------------------------

    def begin_run(self) -> TaskContext:
        """Snapshot inputs and build the generator context for one run."""
        self.input_snapshots = {
            data.name: data.snapshot() for data in self.spec.inputs}
        self.started_precise = all(
            data.precise for data in self.spec.inputs)
        self.cancel_requested = False
        self.pending_update = False
        self.rerun_scheduled = False
        return TaskContext(self)

    def make_generator(self, ctx: TaskContext) -> Generator[float, None, None]:
        generator = self.spec.body(ctx)
        if not hasattr(generator, "__next__"):
            raise GraphError(
                f"task {self.name!r}: body must be a generator function "
                f"(got {type(generator).__name__})")
        fault_plan = getattr(self.region, "fault_plan", None)
        if fault_plan is not None:
            generator = fault_plan.wrap_body(self, generator)
        return generator

    def finish_run(self) -> None:
        """Mark outputs final, record precision, advance the run index."""
        for data in self.spec.outputs:
            data.mark_final(precise=self.started_precise)
        self.stats.runs += 1
        self.run_index += 1

    def end_valves_satisfied(self) -> bool:
        return self._check_valves("end", self.spec.end_valves)

    def start_valves_satisfied(self) -> bool:
        return self._check_valves("start", self.spec.start_valves)

    def _check_valves(self, which: str, valves: Sequence[Valve]) -> bool:
        """Evaluate one valve set and tally its verdict in :attr:`stats`.

        Empty valve sets pass vacuously and are not tallied.  A SchedLab
        fault plan may transiently force the verdict; a forced verdict
        is tallied (``forced`` on its event) so metric parity holds
        under fault injection.  The ``valve`` event is built only when a
        bus subscriber reads that kind.
        """
        fault_plan = getattr(self.region, "fault_plan", None)
        forced = (None if fault_plan is None
                  else fault_plan.valve_override(self, which))
        if forced is not None:
            if valves:
                self._tally_verdict(which, forced, len(valves), True)
            return forced
        if not valves:
            return True
        result = all(valve.check() for valve in valves)
        self._tally_verdict(which, result, len(valves), False)
        return result

    def _tally_verdict(self, which: str, result: bool, valves: int,
                       forced: bool) -> None:
        (self.stats.valve_passes if result
         else self.stats.valve_fails)[which] += 1
        telemetry = getattr(self.region, "telemetry", None)
        if telemetry is not None and telemetry.wants("valve"):
            data = {"result": result, "valves": valves}
            if forced:
                data["forced"] = True
            telemetry.emit("valve", getattr(self.region, "name", ""),
                           self.name, which, data=data)

    def descendants_complete(self) -> bool:
        return all(task.state is TaskState.COMPLETE
                   for task in self.descendants)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FluidTask({self.name}, {self.state}, run={self.run_index})"
