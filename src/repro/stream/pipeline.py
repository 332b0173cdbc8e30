"""Streaming pipelines: chained Fluid regions over staleness-relaxed queues.

A :class:`Pipeline` turns an unbounded item stream into a sequence of
*windows*; each window becomes one Fluid region in which a paced source
task feeds stage tasks linked by :class:`~repro.stream.queue.StageQueue`
edges.  The relaxation contract per edge is "consume input no staler
than k":

* a stage's **start valves** are a
  :class:`~repro.core.valves.StalenessValve` on the input queue's
  settled count — the stage may begin once at most ``k`` of the
  window's items are outstanding (``k = 0`` degrades to stage-serial
  precise execution) — plus a must-deliver predicate, so no stage ever
  consumes before every must item is in (sheddable stragglers beyond
  the bound are the accuracy currency);
* the **leaf stage** re-checks the same contract as its end valves
  (the region shape rules reserve quality functions for leaves), so a
  leaf whose body finished while a must item was still in flight parks
  in ``WAITING`` and the guard machinery re-runs it when the
  producer's next slot write lands — the paper's quality-failure/rerun
  loop driving a recompute-on-fresher-input streaming model that works
  identically on all three backends (crucially, without mid-run update
  streaming, which the process backend does not have).

Stage state (for stateful fold stages like EMA aggregation) chains
*between* windows through region outputs, and is cloned from the
window-initial value on every (re)run so re-execution stays idempotent.

Backends: ``sim`` builds one deterministic
:class:`~repro.runtime.SimExecutor` per window (virtual arrival pacing,
per-item latency curves); ``thread`` reuses one
:class:`~repro.runtime.thread_pool.SharedThreadPool` across windows
with a fresh :class:`~repro.runtime.context.RunContext` each — the
PR-7 sustained-load path; ``process`` builds a
:class:`~repro.runtime.ProcessExecutor` per window over one
:class:`~repro.runtime.PersistentProcessPool`.  A window can also
be submitted through :class:`repro.service.FluidService`
(:meth:`Pipeline.run_service`) for admission-controlled streaming.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional

from ..core.errors import FluidError
from ..core.region import FluidRegion
from ..core.valves import PredicateValve, StalenessValve
from .queue import StageQueue

StageFn = Callable[[Any, int, Any], "tuple[Any, Any]"]


class Stage(NamedTuple):
    """One pipeline stage: ``fn(state, seq, value) -> (state, out)``.

    ``fn`` must be a pure fold step over items in seq order: it is
    re-invoked from the window-initial ``state`` on every re-execution,
    and on the process backend it runs in a pool worker, so it must
    be a module-level (picklable) callable that does not mutate
    ``value`` in place.  ``cost`` is the per-item virtual cost yielded
    on the sim backend (ignored by the wall-clock backends, where
    yields are only preemption points).
    """

    name: str
    fn: StageFn
    cost: float = 1.0
    state0: Any = None


class WindowReport(NamedTuple):
    """Per-window outcome folded into a :class:`PipelineResult`."""

    index: int
    makespan: float
    drops: int
    parks: int
    stale_reads: int
    max_displacement: int
    end_verdicts: Dict[str, bool]


class PipelineResult:
    """Everything one :meth:`Pipeline.run` produced.

    ``outputs`` maps *global* seq -> final-stage output for every item
    that survived to the last queue; at ``k = 0`` it is total and equal
    to :meth:`Pipeline.run_serial`'s.  ``latencies`` maps global seq ->
    source-to-final-queue latency, read off the final queue's arrival
    stamps (virtual time on sim, wall seconds on the thread backend;
    unavailable on process, where stage bodies run in workers on their
    own copies of the queues, and through a service).
    """

    def __init__(self, total_items: int):
        self.total_items = total_items
        self.outputs: Dict[int, Any] = {}
        self.latencies: Dict[int, float] = {}
        self.windows: List[WindowReport] = []
        self.states: List[Any] = []
        # Runtime-efficiency counters summed over the window regions
        # (same trio the bench baselines guard across revisions).
        self.valve_checks = 0
        self.valve_checks_skipped = 0
        self.reexecutions = 0

    @property
    def delivered(self) -> int:
        return len(self.outputs)

    @property
    def drops(self) -> int:
        return sum(w.drops for w in self.windows)

    @property
    def parks(self) -> int:
        return sum(w.parks for w in self.windows)

    @property
    def stale_reads(self) -> int:
        return sum(w.stale_reads for w in self.windows)

    @property
    def max_displacement(self) -> int:
        return max((w.max_displacement for w in self.windows), default=0)

    @property
    def makespan(self) -> float:
        return sum(w.makespan for w in self.windows)

    @property
    def end_verdicts(self) -> Dict[str, bool]:
        """Final end-valve verdicts, keyed ``w<i>/<task>/<valve>``."""
        verdicts: Dict[str, bool] = {}
        for window in self.windows:
            for key, value in window.end_verdicts.items():
                verdicts[f"w{window.index}/{key}"] = value
        return verdicts

    def percentile_latency(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        values = sorted(self.latencies.values())
        index = min(len(values) - 1, int(q * len(values)))
        return values[index]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PipelineResult({self.delivered}/{self.total_items} "
                f"delivered, drops={self.drops}, "
                f"makespan={self.makespan:.3f})")


class _WindowBuild(NamedTuple):
    region: FluidRegion
    queues: List[StageQueue]
    state_outs: List[Any]
    count: int


class Pipeline:
    """A chain of :class:`Stage` folds with one staleness bound ``k``.

    Parameters
    ----------
    stages:
        The stage chain, applied in order to every item.
    k:
        Staleness bound on every inter-stage queue.  ``0`` is lossless
        FIFO (exact parity with :meth:`run_serial`).
    capacity:
        Optional per-queue occupancy bound; overflow sheds sheddable
        items (up to ``k``) and parks must-deliver ones.
    must:
        ``must(global_seq) -> bool`` marking must-deliver items;
        ``None`` means every item is must-deliver (lossless).  On the
        process backend it must pickle (a module-level function).
    interarrival:
        Virtual cost between item arrivals at the source (sim pacing).
    window:
        Items per window / region.
    autotune:
        Optional :class:`repro.tuning.ValveAutotuner`; since
        :class:`~repro.core.valves.StalenessValve` is a
        :class:`~repro.core.valves.CountValve`, the tuner's threshold
        actuation steers the *effective* k of every start valve (and,
        through :meth:`StageQueue.attach_valve`, the drain bound).
    """

    def __init__(self, stages: Iterable[Stage], *, k: float = 0,
                 capacity: Optional[int] = None,
                 must: Optional[Callable[[int], bool]] = None,
                 interarrival: float = 1.0,
                 window: int = 32,
                 name: str = "stream",
                 telemetry: Optional[Any] = None,
                 autotune: Optional[Any] = None):
        self.stages = list(stages)
        if not self.stages:
            raise FluidError("a pipeline needs at least one stage")
        self.k = float(k)
        self.capacity = capacity
        self.must = must
        self.interarrival = float(interarrival)
        self.window = int(window)
        if self.window < 1:
            raise FluidError("window must hold at least one item")
        self.name = name
        self.telemetry = telemetry
        self.autotune = autotune

    # -- window construction -----------------------------------------------

    def _must_seqs(self, base: int, count: int):
        if self.must is None:
            return None
        return frozenset(i for i in range(count) if self.must(base + i))

    def build_window(self, index: int, items: List[Any],
                     states: List[Any]) -> _WindowBuild:
        """Build one window's Fluid region: source + stages + queues."""
        count = len(items)
        k = min(self.k, count)
        region = FluidRegion(f"{self.name}_w{index}")
        base = index * self.window
        must_seqs = self._must_seqs(base, count)
        queues = [
            StageQueue(f"q{i}", count, bound=k, capacity=self.capacity,
                       must_seqs=must_seqs, region=region)
            for i in range(len(self.stages) + 1)
        ]
        items_cell = region.input_data("items", list(items))
        interarrival = self.interarrival
        source_queue = queues[0]

        def source(ctx):
            payload = items_cell.read()
            for seq, value in enumerate(payload):
                yield interarrival
                source_queue.put(seq, value, task="source")

        region.add_task("source", source, inputs=[items_cell],
                        outputs=[source_queue.slots],
                        cost_estimate=interarrival * count)

        state_outs = []
        last = len(self.stages) - 1
        for position, stage in enumerate(self.stages):
            qin, qout = queues[position], queues[position + 1]
            state_in = region.input_data(f"state_in_{position}",
                                         states[position])
            state_out = region.add_data(f"state_out_{position}")
            state_outs.append(state_out)
            # Start gate: input no staler than k AND every must-deliver
            # item already in.  Requiring must-completion *at start*
            # (rather than as an intermediate end valve, which the
            # region shape rules reserve for leaves) guarantees a
            # single drain serves every must item: total missing <= k
            # at start, so the gap walk never breaks early.
            start_valve = StalenessValve(qin.settled_count, count, k,
                                         name=f"stale_{stage.name}")
            qin.attach_valve(start_valve)
            start_valves = [
                start_valve,
                PredicateValve(qin.must_complete,
                               watches=[qin.settled_count],
                               name=f"must_{stage.name}"),
            ]
            # Only the leaf may carry quality functions (Section 3.3):
            # the final stage re-checks the same contract at exit, and a
            # failure (a must item still in flight when the body ends)
            # parks it WAITING for the rerun loop.
            end_valves = []
            if position == last:
                end_valves = [
                    StalenessValve(qin.settled_count, count, k,
                                   name=f"end_stale_{stage.name}"),
                    PredicateValve(qin.must_complete,
                                   watches=[qin.settled_count],
                                   name=f"end_must_{stage.name}"),
                ]
            body = _stage_body(stage, qin, qout, state_in, state_out, base)
            region.add_task(stage.name, body,
                            start_valves=start_valves,
                            end_valves=end_valves,
                            inputs=[qin.slots, state_in],
                            outputs=[qout.slots, state_out],
                            cost_estimate=stage.cost * count)
        # How a process-pool worker rebuilds this window: every process
        # driver (``_run_process``, a process ``FluidService``) needs it,
        # so the stage fns, the ``must`` predicate and the entry states
        # must pickle there.
        region.remote_factory = (
            _rebuild_window_region,
            (self._pool_config(), index, list(items), list(states)), {})
        return _WindowBuild(region, queues, state_outs, count)

    def _initial_states(self) -> List[Any]:
        return [copy.deepcopy(stage.state0) for stage in self.stages]

    def _windows(self, items: List[Any]):
        for start in range(0, len(items), self.window):
            yield items[start:start + self.window]

    # -- result harvesting ---------------------------------------------------

    def _harvest(self, result: PipelineResult, index: int,
                 build: _WindowBuild, makespan: float, states: List[Any],
                 telemetry: Optional[Any], epoch: Optional[float] = None,
                 pace: float = 0.0) -> List[Any]:
        """Fold one finished window into ``result`` and ``telemetry``.

        Latencies come from the final queue's arrival stamps, less the
        window's ``epoch`` on the bus clock and, on the paced simulator,
        the item's own arrival at ``(seq + 1) * pace``.  ``epoch=None``
        (the process backend, a service) records none.
        """
        base = index * self.window
        final_queue = build.queues[-1]
        for seq, value in final_queue.items():
            result.outputs[base + seq] = value
            if epoch is not None:
                result.latencies[base + seq] = max(
                    0.0, final_queue.arrivals[seq] - epoch - (seq + 1) * pace)
        metrics = getattr(telemetry, "metrics", None)
        if metrics is not None:
            for queue in build.queues:
                metrics.record_queue(queue.stats())
        # Sheds propagate downstream as tombstones, so the final queue's
        # tombstone count is exactly the distinct items lost end-to-end
        # (summing across queues would re-count inherited sheds).
        drops = final_queue.drops()
        parks = sum(q.parks for q in build.queues)
        stale = sum(q.stale_reads for q in build.queues)
        displacement = max(q.max_displacement for q in build.queues)
        verdicts: Dict[str, bool] = {}
        for task in build.region.tasks:
            for valve in task.spec.end_valves:
                verdicts[f"{task.name}/{valve.name}"] = valve.check()
        for valve in build.region.valves:
            result.valve_checks += valve.checks
            result.valve_checks_skipped += valve.checks_skipped
        for task in build.region.tasks:
            result.reexecutions += max(0, task.stats.runs - 1)
        result.windows.append(WindowReport(index, makespan, drops, parks,
                                           stale, displacement, verdicts))
        next_states = [cell.read() for cell in build.state_outs]
        result.states = next_states
        return next_states

    # -- drivers -------------------------------------------------------------

    def run(self, items: Iterable[Any], *, backend: str = "sim",
            cores: int = 4, workers: int = 2, slots: int = 4,
            timeout: float = 60.0) -> PipelineResult:
        """Run the whole stream through the pipeline on one backend."""
        items = list(items)
        result = PipelineResult(len(items))
        result.states = self._initial_states()
        if backend == "sim":
            self._run_sim(items, result, cores)
        elif backend == "thread":
            self._run_thread(items, result, slots, timeout)
        elif backend == "process":
            self._run_process(items, result, workers, timeout)
        else:
            raise FluidError(f"unknown pipeline backend {backend!r}")
        return result

    def _ensure_telemetry(self):
        if self.telemetry is None:
            from ..telemetry import Telemetry
            self.telemetry = Telemetry(metrics=True, chrome=False)
        return self.telemetry

    def _run_sim(self, items: List[Any], result: PipelineResult,
                 cores: int) -> None:
        from ..runtime import SimExecutor

        telemetry = self._ensure_telemetry()
        states = result.states
        for index, window_items in enumerate(self._windows(items)):
            build = self.build_window(index, window_items, states)
            executor = SimExecutor(cores=cores, telemetry=telemetry,
                                   autotune=self.autotune)
            executor.submit(build.region)
            run = executor.run()
            states = self._harvest(result, index, build, run.makespan,
                                   states, telemetry, epoch=0.0,
                                   pace=self.interarrival)

    def _run_thread(self, items: List[Any], result: PipelineResult,
                    slots: int, timeout: float) -> None:
        from ..runtime.context import RunContext
        from ..runtime.thread_pool import SharedThreadPool

        telemetry = self._ensure_telemetry()
        states = result.states
        pool = SharedThreadPool(slots=slots, bus=telemetry.bus)
        try:
            for index, window_items in enumerate(self._windows(items)):
                build = self.build_window(index, window_items, states)
                # One fresh RunContext per window over the shared pool:
                # the PR-7 sustained-load path (the pool clock keeps
                # running across windows, so timestamps are epoch-based).
                ctx = RunContext(label=f"{self.name}-w{index}",
                                 telemetry=telemetry,
                                 autotuner=self.autotune)
                epoch_before = pool.now()
                ctx.submit(build.region)
                pool.start(ctx)
                pool.wait(ctx, timeout)
                makespan = pool.now() - epoch_before
                states = self._harvest(result, index, build, makespan,
                                       states, telemetry,
                                       epoch=epoch_before)
        finally:
            pool.shutdown()
            telemetry.run_finished(pool.now(), slots)

    def _pool_config(self) -> Dict[str, Any]:
        """Picklable constructor kwargs for :func:`_rebuild_window_region`.

        Telemetry/autotune are deliberately excluded: a pool worker only
        runs stage bodies; guard decisions (and their instrumentation)
        stay in the parent.
        """
        return {"stages": self.stages, "k": self.k,
                "capacity": self.capacity, "must": self.must,
                "interarrival": self.interarrival,
                "window": self.window, "name": self.name}

    def _run_process(self, items: List[Any], result: PipelineResult,
                     workers: int, timeout: float) -> None:
        from ..runtime import PersistentProcessPool, ProcessExecutor

        states = result.states
        # One pool for every window; each window is rebuilt inside the
        # workers from the factory ``build_window`` attaches.
        with PersistentProcessPool(workers=workers,
                                   name=f"{self.name}-pool") as pool:
            for index, window_items in enumerate(self._windows(items)):
                build = self.build_window(index, window_items, states)
                executor = ProcessExecutor(pool=pool, timeout=timeout)
                executor.submit(build.region)
                run = executor.run()
                # Stage bodies ran in workers whose queues are not ours:
                # per-item latencies and the queue tallies are not
                # observable here.
                states = self._harvest(result, index, build, run.makespan,
                                       states, self.telemetry)

    async def run_service(self, items: Iterable[Any], service, *,
                          sheddable: bool = False,
                          latency_slo: Optional[float] = None) -> PipelineResult:
        """Stream windows through a :class:`repro.service.FluidService`.

        Windows are submitted sequentially (state chains between them)
        but share the service's pool, admission control and SLO
        accounting with whatever other load the service carries.
        """
        items = list(items)
        result = PipelineResult(len(items))
        states = self._initial_states()
        result.states = states
        for index, window_items in enumerate(self._windows(items)):
            build = self.build_window(index, window_items, states)
            outcome = await service.submit(build.region,
                                           sheddable=sheddable,
                                           latency_slo=latency_slo)
            states = self._harvest(result, index, build, outcome.latency,
                                   states, service.telemetry)
        return result

    # -- the precise reference ------------------------------------------------

    def run_serial(self, items: Iterable[Any]) -> Dict[int, Any]:
        """Fold every item through every stage in seq order: the exact
        reference a ``k = 0`` run must match item-for-item."""
        states = self._initial_states()
        outputs: Dict[int, Any] = {}
        for seq, value in enumerate(items):
            for position, stage in enumerate(self.stages):
                states[position], value = stage.fn(states[position], seq,
                                                   value)
            outputs[seq] = value
        return outputs


def _rebuild_window_region(config: Dict[str, Any], index: int,
                           items: List[Any], states: List[Any]) -> FluidRegion:
    """Rebuild one window's region inside a pool worker.

    ``build_window`` is deterministic given (index, items, entry
    states), so the rebuilt region is structurally identical to the
    parent's — same task/cell names and indices — which is all the
    pooled wire protocol needs (the parent ships authoritative cell
    snapshots at dispatch anyway).
    """
    pipeline = Pipeline(config["stages"], k=config["k"],
                        capacity=config["capacity"], must=config["must"],
                        interarrival=config["interarrival"],
                        window=config["window"], name=config["name"])
    return pipeline.build_window(index, list(items), list(states)).region


def _stage_body(stage: Stage, qin: StageQueue, qout: StageQueue,
                state_in, state_out, base: int):
    """Build the recompute-model task body for one stage.

    Every (re)execution starts from the window-initial state, drains
    whatever the input queue can serve under the staleness bound, folds
    in seq order, and (re)puts the outputs — puts are idempotent slot
    rewrites, so a rerun triggered by a late must-deliver item simply
    recomputes a more complete window.
    """

    def body(ctx):
        qin.begin_consume(task=stage.name)
        state = copy.deepcopy(state_in.read())
        for seq, value in qin.drain(task=stage.name):
            state, out = stage.fn(state, base + seq, value)
            qout.put(seq, out, task=stage.name)
            if stage.cost:
                yield stage.cost
        for seq in range(qin.expected):
            if qin.is_dropped(seq):
                qout.shed(seq, task=stage.name)
        state_out.write(state)

    return body
