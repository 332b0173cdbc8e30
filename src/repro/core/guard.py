"""Guard coordination: the Figure-5 state machine, backend-agnostic.

Each Fluid task is driven by a *guard*.  The paper realizes guards as one
thread per task; this module factors the guard's decision logic out of
any particular execution backend so that every driver (the simulator,
the thread pool, the process pool) shares exactly the same semantics.

The :class:`Coordinator` reacts to four stimuli:

* a task body finished a run (``body_finished``) — evaluate the CE
  conditions;
* a task completed — cascade descendant-completion upward and trigger
  early termination of now-pointless re-executions;
* a producer finished a run — deliver *input update* signals to children
  in W or D (transitions (2) and (4) of Figure 5);
* a consumer in W cannot make progress — send *request* signals up the
  chain, stalling producers into D (transition (3)).

The backend supplies a :class:`GuardHost`.  All Coordinator methods
must be called serialized: the simulator and the process driver call
them from their single control loop, the thread driver under its pool
lock.  A body's leaving reaches the Coordinator only through
``RunContext.body_left`` (:mod:`repro.runtime.context`), on every driver.
"""

from __future__ import annotations

from typing import Optional

from .errors import ValveError
from .graph import TaskGraph
from .states import TaskState
from .task import FluidTask


class GuardHost:
    """Execution services a backend provides to the coordinator: a
    clock, a way to put a task body on an execution resource, a
    cancellation hook and two notifications (a task completed, a
    watched data cell changed)."""

    def now(self) -> float:
        raise NotImplementedError

    def schedule_run(self, task: FluidTask) -> None:
        """Arrange for the task body to (re)start as soon as resources
        allow.  The backend transitions the task into RUNNING when the
        body actually starts."""
        raise NotImplementedError

    def request_cancel(self, task: FluidTask) -> None:
        """Ask a RUNNING task to stop at its next chunk boundary."""
        task.cancel_requested = True

    def task_completed(self, task: FluidTask) -> None:
        """Notification hook (region completion checks, tracing)."""

    def cell_updated(self, data) -> None:
        """A watched data cell gained information (version bump or
        finality).  Event-driven backends poke their sleeping guards
        here so timed waits are pure fallbacks, not the wake mechanism;
        the default is a no-op for backends that discover progress some
        other way (the simulator's virtual clock, the process backend's
        message stream).  May be called from any thread that mutates
        Fluid data, i.e. from inside running task bodies."""


class ModulationPolicy:
    """Runtime valve-threshold modulation (Sections 4.4 / 6.1).

    On every quality failure the start valves of the failing task's
    region are tightened ``fraction`` of the way toward full
    serialization, so repeated failures converge to precise execution
    even before the re-execution chain does.

    The policy also accumulates *pressure* across failures.  Because
    regions are finalized lazily (an epoch region builds only when the
    scheduler admits it, after its predecessors ran), applications that
    instantiate repeated regions can consult :meth:`adjust` at build
    time to start later epochs with a threshold already raised by the
    failures earlier epochs observed — the cross-invocation adaptation
    the paper sketches in Section 4.4.  ``fraction`` must lie in
    [0, 1]; anything else is refused here, not at the first failure.
    """

    def __init__(self, fraction: float = 0.0):
        if not 0.0 <= fraction <= 1.0:
            raise ValveError(
                f"modulation fraction {fraction} outside [0, 1]")
        self.fraction = fraction
        #: accumulated failure pressure in [0, 1); 0 = no failures seen.
        self.pressure = 0.0
        self.failures = 0

    def on_quality_failure(self, task: FluidTask) -> None:
        self.failures += 1
        if self.fraction <= 0.0:
            return
        self.pressure += (1.0 - self.pressure) * self.fraction
        for valve in task.spec.start_valves:
            valve.tighten(self.fraction)
        for parent in task.parents:
            for valve in parent.spec.start_valves:
                valve.tighten(self.fraction)

    def adjust(self, threshold: float) -> float:
        """A build-time threshold raised toward 1.0 by observed failures."""
        return threshold + (1.0 - threshold) * self.pressure


class Coordinator:
    """Shared guard logic for all tasks of one region."""

    def __init__(self, host: GuardHost, graph: TaskGraph,
                 modulation: Optional[ModulationPolicy] = None,
                 cancel_first_runs: bool = False,
                 policy: Optional[object] = None,
                 telemetry: Optional[object] = None):
        self.host = host
        self.graph = graph
        self.modulation = modulation or ModulationPolicy(0.0)
        #: A repro.telemetry.TelemetryBus; guard decisions publish into
        #: it as kind="guard" events when set.
        self.telemetry = telemetry
        #: SchedLab schedule policy: when set, the fan-out order of
        #: update signals, child requests and completion cascades is
        #: chosen by the policy instead of graph declaration order.
        #: None (the default) preserves the historical deterministic
        #: order exactly.
        self.policy = policy
        #: Early termination always applies to re-executions (Section
        #: 6.1).  Applying it to *first* runs — killing a producer whose
        #: consumers already met quality, as the paper does for NN's
        #: first layer and for Graph Coloring's selection tail — changes
        #: what work gets skipped, so apps opt in explicitly.
        self.cancel_first_runs = cancel_first_runs
        self._wakeup_cells: "set[int]" = set()

    def enable_update_wakeups(self) -> None:
        """Route data-cell update/final notifications to the host.

        Registers :meth:`GuardHost.cell_updated` as an ``on_update`` and
        ``on_final`` watcher on every data cell the region's tasks read
        or write, so an event-driven backend is poked the moment a
        watched cell bumps instead of discovering it on the next poll
        tick.  Idempotent and safe to call again after dynamic tasks
        join the graph (only newly-seen cells are wired).
        """
        for task in self.graph:
            for data in tuple(task.spec.inputs) + tuple(task.spec.outputs):
                if id(data) in self._wakeup_cells:
                    continue
                self._wakeup_cells.add(id(data))
                data.on_update(self.host.cell_updated)
                data.on_final(self.host.cell_updated)

    # ------------------------------------------------------------------ API

    def body_finished(self, task: FluidTask) -> None:
        """The body ran to completion; task is in END_CHECK.

        Implements the three CE -> C conditions of Section 6.1 and the
        fall-through to W.
        """
        if not task.started_precise and \
                self._inputs_effectively_precise(task):
            # Retroactive precision: every input is now final and precise
            # *and never changed during the run* — the task consumed
            # exactly the values a conservative schedule would have fed
            # it (the paper's Section-2 case 1: the input had already
            # attained its final value).  Without this, a consumer whose
            # valve fires on the producer's very last update would record
            # an imprecise start and re-execute for nothing.
            task.started_precise = True
        task.finish_run()  # outputs become final (and precise if inputs were)
        completed, reason = self._end_decision(task)
        if completed:
            self._complete(task, reason)
        else:
            task.transition(TaskState.WAITING, self.host.now())
            if task.has_end_valves:
                task.stats.quality_failures += 1
                self.modulation.on_quality_failure(task)
            self._emit("wait", task, reason)
        # Children waiting for more accurate input can now use this run's
        # final output, whether or not this task itself completed.
        self._deliver_update_signals(task)
        if not completed:
            self._poke_waiting(task)

    def body_cancelled(self, task: FluidTask) -> None:
        """Early termination: a re-execution was cancelled because every
        descendant completed (Section 6.1)."""
        task.stats.cancelled_runs += 1
        self._complete(task, "early-termination")

    def body_failed(self, task: FluidTask, error: Exception) -> None:
        """The body raised: count the failed run.  The run's context
        records ``error`` for its driver to surface."""
        task.stats.failed_runs += 1
        self._emit("failed", task, repr(error))

    def skip_rerun(self, task: FluidTask) -> None:
        """A scheduled re-execution became pointless before it started:
        every descendant completed while it sat in the ready queue."""
        task.rerun_scheduled = False
        task.stats.skipped_reruns += 1
        self._complete(task, "rerun-skipped")

    # --------------------------------------------------------- CE decision

    def _end_decision(self, task: FluidTask) -> "tuple[bool, str]":
        # (ii) all inputs were precise before the run started: the output
        # is identical to a conservative execution; quality is overridden.
        if task.started_precise:
            return True, "precise-inputs"
        # (i) a leaf whose end valves (quality function) are all satisfied.
        if task.is_leaf:
            if not task.has_end_valves:
                return True, "leaf-no-quality"
            if task.end_valves_satisfied():
                return True, "quality-passed"
            return False, "quality-failed"
        # (iii) every descendant already completed; output will not be
        # consumed again.
        if task.descendants_complete():
            return True, "descendants-complete"
        return False, "descendants-pending"

    # ------------------------------------------------------------ completion

    def _complete(self, task: FluidTask, reason: str) -> None:
        task.transition(TaskState.COMPLETE, self.host.now())
        self._emit("complete", task, reason)
        self.host.task_completed(task)
        # Cascade: ancestors whose descendants are now all complete can
        # retire; running re-executions become pointless and are cancelled.
        for ancestor in self._ancestors(task):
            if ancestor.state in (TaskState.WAITING, TaskState.DEP_STALLED,
                                  TaskState.INIT, TaskState.START_CHECK):
                if not ancestor.rerun_scheduled and ancestor.descendants_complete():
                    self._complete(ancestor, "descendants-complete")
            elif ancestor.state is TaskState.RUNNING:
                if (ancestor.run_index > 0 or self.cancel_first_runs) and \
                        ancestor.descendants_complete():
                    self.host.request_cancel(ancestor)

    def _ancestors(self, task: FluidTask):
        seen = set()
        stack = self._ordered("cascade", task.parents)
        while stack:
            node = stack.pop()
            if node.name in seen:
                continue
            seen.add(node.name)
            yield node
            stack.extend(self._ordered("cascade", node.parents))

    # ---------------------------------------------------------------- signals

    def _ordered(self, point: str, tasks) -> "list[FluidTask]":
        """Fan-out order for signals: policy-chosen when exploring."""
        tasks = list(tasks)
        if self.policy is None or len(tasks) <= 1:
            return tasks
        permutation = self.policy.order(point, [t.name for t in tasks])
        return [tasks[i] for i in permutation]

    def _deliver_update_signals(self, producer: FluidTask) -> None:
        """The producer finished a run: more accurate data exists."""
        for child in self._ordered("signal", producer.children):
            if child.state is TaskState.WAITING or \
                    child.state is TaskState.DEP_STALLED:
                self._rerun(child, "input-update")
            elif child.state is TaskState.RUNNING:
                child.pending_update = True

    def _poke_waiting(self, task: FluidTask) -> None:
        """Entering W: decide between immediate re-run, requesting more
        precise input, or sitting tight.

        Re-runs are gated on *completed* producer runs (final data that
        advanced since our run started), not on raw version bumps: a fast
        consumer failing quality against a slow, still-running producer
        waits in W for the producer's completion signal — the behaviour
        behind the single long Wait visit of Sobel in the paper's
        Table 3 — rather than spinning one re-execution per producer
        chunk.
        """
        if task.pending_update or self._final_inputs_advanced(task):
            self._rerun(task, "inputs-advanced")
            return
        if task.is_leaf and task.has_end_valves:
            # Quality failed and no better input exists yet.  If some
            # producer of an imprecise input is idle in W, request a more
            # accurate version (transition (3)).  Producers still RUNNING
            # are left alone: their completion will wake us.
            for parent in self._ordered("request", task.parents):
                if not self._edge_precise(parent, task):
                    self._request(parent)

    @staticmethod
    def _inputs_effectively_precise(task: FluidTask) -> bool:
        """All inputs are final+precise and unchanged since the run began."""
        return all(
            data.final and data.precise and
            task.input_snapshots[data.name].version == data.version
            for data in task.spec.inputs)

    @staticmethod
    def _final_inputs_advanced(task: FluidTask) -> bool:
        """Some input finished a fresh producer run since our run began."""
        return any(
            data.final and task.input_snapshots[data.name].advanced_in(data)
            for data in task.spec.inputs)

    def _edge_precise(self, producer: FluidTask, consumer: FluidTask) -> bool:
        return all(data.precise for data in producer.spec.outputs
                   if data in consumer.spec.inputs)

    def _request(self, producer: FluidTask) -> None:
        """A child asked ``producer`` for more accurate output."""
        if producer.state is not TaskState.WAITING or producer.rerun_scheduled:
            # RUNNING / queued: better data is already on the way.
            # DEP_STALLED: already waiting on its own parents.
            # START_CHECK/INIT: the first run has not even happened.
            # COMPLETE: its output is final; the child must consume it.
            return
        if producer.pending_update or self._final_inputs_advanced(producer):
            self._rerun(producer, "child-request")
            return
        producer.transition(TaskState.DEP_STALLED, self.host.now())
        self._emit("dep-stalled", producer, "child-request")
        for grandparent in self._ordered("request", producer.parents):
            if not self._edge_precise(grandparent, producer):
                self._request(grandparent)

    def _rerun(self, task: FluidTask, reason: str) -> None:
        if task.rerun_scheduled:
            return
        task.rerun_scheduled = True
        task.pending_update = False
        task.stats.reruns += 1
        self._emit("rerun", task, reason)
        self.host.schedule_run(task)

    # ------------------------------------------------------------------ misc

    def _emit(self, event: str, task: FluidTask, detail: str) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(
                "guard", getattr(task.region, "name", ""), task.name, event,
                ts=self.host.now(), data={"detail": detail})
