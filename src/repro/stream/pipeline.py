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

Backends: a run builds its window region once, re-arms it in place
for every window and drives each as a fresh
:class:`~repro.runtime.context.RunContext` on one host (``start(ctx)``
/ ``wait(ctx)``) — ``sim`` a :class:`~repro.runtime.SimExecutor` whose
virtual clock runs on across windows (virtual arrival pacing, per-item
latency curves), ``thread`` a
:class:`~repro.runtime.thread_pool.SharedThreadPool`, ``process`` a
:class:`~repro.runtime.ProcessExecutor` that forks its pool once.
Windows can also go through :class:`repro.service.FluidService`
(:meth:`Pipeline.run_service`) for admission-controlled streaming.
"""

from __future__ import annotations

import copy
import itertools
from array import array
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

    def __init__(self, total_items: int = 0):
        self.total_items = total_items
        self.outputs: Dict[int, Any] = {}
        self.latencies: Dict[int, float] = {}
        self.windows: List[WindowReport] = []
        self.states: List[Any] = []
        #: Re-runs summed over the window regions' tasks.
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


class _WindowBuild:
    """One window's region, queues and cells, re-armed in place for
    every window of its length (``Pipeline._arm``)."""

    def __init__(self, region: FluidRegion, queues: List[StageQueue],
                 count: int):
        self.region, self.queues, self.count = region, queues, count
        self.items = region.input_data("items")
        self.state_ins: List[Any] = []
        self.state_outs: List[Any] = []
        #: Global seq of the window's first item, read by stage bodies.
        self.base = 0

    def release(self) -> None:
        """Cut the build's reference cycles once no window runs on it
        again, so reference counting frees it; outputs, task stats and
        valves stay readable."""
        for task in self.region.tasks:
            task.region = None
            task.parents = task.children = task.descendants = ()
        for data in self.region.datas.values():
            data.region = data.producer = None
        for queue in self.queues:
            queue.region = queue.valve = None
        self.region = None


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
        Optional :class:`repro.tuning.ValveAutotuner` or spec string,
        one tuner for all of a run's windows; since
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

    def build_window(self, index: int, items: List[Any],
                     states: List[Any]) -> _WindowBuild:
        """Build one window's Fluid region: source + stages + queues."""
        count = len(items)
        k = min(self.k, count)
        region = FluidRegion(f"{self.name}_w{index}")
        queues = [
            StageQueue(f"q{i}", count, bound=k, capacity=self.capacity,
                       region=region)
            for i in range(len(self.stages) + 1)
        ]
        build = _WindowBuild(region, queues, count)
        items_cell = build.items
        interarrival = self.interarrival
        source_queue = queues[0]

        def source(ctx):
            source_queue.begin_produce()
            payload = items_cell.read()
            for seq, value in enumerate(payload):
                yield interarrival
                source_queue.put(seq, value, task="source")

        region.add_task("source", source, inputs=[items_cell],
                        outputs=[source_queue.slots])

        last = len(self.stages) - 1
        for position, stage in enumerate(self.stages):
            qin, qout = queues[position], queues[position + 1]
            state_in = region.input_data(f"state_in_{position}")
            state_out = region.add_data(f"state_out_{position}")
            build.state_ins.append(state_in)
            build.state_outs.append(state_out)
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
            body = _stage_body(stage, qin, qout, state_in, state_out, build)
            region.add_task(stage.name, body,
                            start_valves=start_valves,
                            end_valves=end_valves,
                            inputs=[qin.slots, state_in],
                            outputs=[qout.slots, state_out])
        self._arm(build, index, items, states)
        return build

    def _arm(self, build: _WindowBuild, index: int, items: List[Any],
             states: List[Any]) -> None:
        """Re-arm ``build`` in place for window ``index`` (of the length
        it was built for).  Every valve watches a count, so no host
        wired a cell watcher that could outlive its run."""
        build.base = base = index * self.window
        build.region.reset(f"{self.name}_w{index}")
        must_seqs = None if self.must is None else frozenset(
            seq for seq in range(build.count) if self.must(base + seq))
        for queue in build.queues:
            queue.reset(must_seqs)
        items, states = list(items), list(states)
        for cell, value in zip([build.items] + build.state_ins,
                               [items] + states):
            cell.init(value)
            cell.mark_input()
        for cell in build.state_outs:
            cell.init(None)
        # How a process-pool worker rebuilds this window, so the stage
        # fns, the ``must`` predicate and the entry states must pickle.
        # The worker only runs stage bodies: guard decisions, their
        # telemetry and the tuner stay in the parent.
        remote = Pipeline(self.stages, k=self.k, capacity=self.capacity,
                          must=self.must, interarrival=self.interarrival,
                          window=self.window, name=self.name)
        build.region.remote_factory = (_rebuild_window_region,
                                       (remote, index, items, states), {})

    def _initial_states(self) -> List[Any]:
        return [copy.deepcopy(stage.state0) for stage in self.stages]

    def _windows(self, items: Iterable[Any], result: PipelineResult,
                 telemetry: Optional[Any]):
        """``(index, build)`` per window of ``items``, read lazily: one
        build re-armed in place, a new one for a window of another
        length (a short last window).  Each finished window's queue
        counts join one run tally, folded into the ``stream.*`` metrics
        when the generator ends or is closed."""
        items, build = iter(items), None
        tally = {"puts": 0, "served": 0, "stale_reads": 0, "sheds": 0,
                 "parks": 0, "occupancies": array("i")}
        try:
            for index in itertools.count():
                window = list(itertools.islice(items, self.window))
                if not window:
                    return
                result.total_items += len(window)
                if build is not None and build.count == len(window):
                    self._arm(build, index, window, result.states)
                else:
                    if build is not None:
                        build.release()
                    build = self.build_window(index, window, result.states)
                yield index, build
                for queue in build.queues:
                    queue.fold_into(tally)
        finally:
            if build is not None:
                build.release()
            metrics = getattr(telemetry, "metrics", None)
            if metrics is not None:
                metrics.record_queues([tally])

    # -- result harvesting ---------------------------------------------------

    def _harvest(self, result: PipelineResult, index: int,
                 build: _WindowBuild, makespan: float,
                 epoch: Optional[float] = None, pace: float = 0.0) -> None:
        """Fold one finished window into ``result``, before the next
        window re-arms the build.

        Latencies come from the final queue's arrival stamps, less the
        window's ``epoch`` on the bus clock and, on the paced simulator,
        the item's own arrival at ``(seq + 1) * pace``.  ``epoch=None``
        (the process backend, a service) records none.
        """
        base = build.base
        final_queue = build.queues[-1]
        for seq, value in final_queue.items():
            result.outputs[base + seq] = value
            if epoch is not None:
                result.latencies[base + seq] = max(
                    0.0, final_queue.arrivals[seq] - epoch - (seq + 1) * pace)
        # ``peek``: the region's valve checks were folded when it
        # finished, and reading a verdict is not a check.
        verdicts = {f"{task.name}/{valve.name}": valve.peek()
                    for task in build.region.tasks
                    for valve in task.spec.end_valves}
        result.reexecutions += sum(max(0, task.stats.runs - 1)
                                   for task in build.region.tasks)
        # Sheds propagate downstream as tombstones, so the final queue's
        # tombstone count is exactly the distinct items lost end-to-end
        # (summing across queues would re-count inherited sheds).
        result.windows.append(WindowReport(
            index, makespan, final_queue.drops(),
            sum(queue.parks for queue in build.queues),
            sum(queue.stale_reads for queue in build.queues),
            max(queue.max_displacement for queue in build.queues),
            verdicts))
        result.states = [cell.read() for cell in build.state_outs]

    # -- the driver ----------------------------------------------------------

    def run(self, items: Iterable[Any], *, backend: str = "sim",
            cores: int = 4, workers: int = 2, slots: int = 4,
            timeout: float = 60.0) -> PipelineResult:
        """Run the whole stream through the pipeline on one backend, as
        one run: one host drives every window as a fresh
        :class:`~repro.runtime.context.RunContext` over one telemetry
        bundle and one tuner, so a tuned position carries over from
        window to window, and the run is closed once, at the end."""
        from ..runtime.context import RunContext
        from ..tuning import make_autotuner

        if backend not in ("sim", "thread", "process"):
            raise FluidError(f"unknown pipeline backend {backend!r}")
        if self.telemetry is None:
            from ..telemetry import Telemetry
            self.telemetry = Telemetry(metrics=True, chrome=False)
        telemetry = self.telemetry
        tuner = make_autotuner(self.autotune)
        host = self._host(backend, cores, workers, slots)
        # Latencies are read off the host clock from each window's
        # epoch, less the simulator's paced arrivals; stage bodies on
        # process workers stamp their own copies of the queues.
        stamped = backend != "process"
        pace = self.interarrival if backend == "sim" else 0.0
        result, ctx = PipelineResult(), None
        result.states = self._initial_states()
        windows = self._windows(items, result, telemetry)
        try:
            for index, build in windows:
                ctx = RunContext(label=f"{self.name}-w{index}",
                                 telemetry=telemetry, autotune=tuner)
                ctx.submit(build.region)
                epoch = host.now()
                host.start(ctx)
                host.wait(ctx, timeout)
                self._harvest(result, index, build, host.now() - epoch,
                              epoch if stamped else None, pace)
        finally:
            host.shutdown()
            windows.close()
            if ctx is not None:
                ctx.record_run(host.scheduler, host.parallelism,
                               makespan=result.makespan)
        return result

    def _host(self, backend: str, cores: int, workers: int, slots: int):
        """The one host every window of a run starts on."""
        from ..runtime import ProcessExecutor, SharedThreadPool, SimExecutor

        if backend == "sim":
            return SimExecutor(cores=cores, telemetry=self.telemetry)
        if backend == "thread":
            return SharedThreadPool(slots=slots, name=f"{self.name}-pool")
        # One private pool for every window; each window is rebuilt
        # inside the workers from the factory ``build_window`` attaches.
        return ProcessExecutor(workers=workers, telemetry=self.telemetry)

    async def run_service(self, items: Iterable[Any], service, *,
                          sheddable: bool = False,
                          latency_slo: Optional[float] = None) -> PipelineResult:
        """Stream windows through a :class:`repro.service.FluidService`.

        Windows are submitted sequentially (state chains between them)
        but share the service's pool, admission control and SLO
        accounting with whatever other load the service carries.
        """
        result = PipelineResult()
        result.states = self._initial_states()
        for index, build in self._windows(items, result, service.telemetry):
            outcome = await service.submit(build.region,
                                           sheddable=sheddable,
                                           latency_slo=latency_slo)
            self._harvest(result, index, build, outcome.latency)
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


def _rebuild_window_region(pipeline: Pipeline, index: int,
                           items: List[Any], states: List[Any]) -> FluidRegion:
    """Rebuild one window's region inside a pool worker.

    ``build_window`` is deterministic given (index, items, entry
    states), so the rebuilt region is structurally identical to the
    parent's — same task/cell names and indices — which is all the
    pooled wire protocol needs (the parent ships authoritative cell
    snapshots at dispatch anyway).
    """
    return pipeline.build_window(index, items, states).region


def _stage_body(stage: Stage, qin: StageQueue, qout: StageQueue,
                state_in, state_out, build: _WindowBuild):
    """Build the recompute-model task body for one stage.

    Every (re)execution retakes the output queue's producer tally,
    starts from the window-initial state, drains whatever the input
    queue can serve under the staleness bound, folds in seq order, and
    (re)puts the outputs — puts are idempotent slot rewrites, so a rerun
    triggered by a late must-deliver item simply recomputes a more
    complete window.
    """

    def body(ctx):
        qout.begin_produce()
        qin.begin_consume(task=stage.name)
        state = copy.deepcopy(state_in.read())
        base = build.base
        for seq, value in qin.drain(task=stage.name):
            state, out = stage.fn(state, base + seq, value)
            qout.put(seq, out, task=stage.name)
            if stage.cost:
                yield stage.cost
        if qin.drops():
            for seq in range(qin.expected):
                if qin.is_dropped(seq):
                    qout.shed(seq, task=stage.name)
        state_out.write(state)

    return body
