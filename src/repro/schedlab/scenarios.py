"""SchedLab scenarios: small programs with interesting schedule spaces.

Each :class:`Scenario` builds a *fresh* set of regions per run (schedule
exploration mutates task state destructively), knows which backends it
supports, and can produce the serial precise output for serial-elision
equivalence checks.

Synthetic scenarios (pipeline / overtake / diamond) exercise the
re-execution machinery — quality failures, W/D residence, update
signals — with analytically-known answers.  App scenarios (K-means,
Bellman-Ford) run shrunken versions of the paper's applications.  The
``racy`` scenario contains a deliberate order-dependent bug (a task that
crashes when it observes too much of a sibling's progress) used to test
that sweeps find ordering bugs and that the shrinker converges; it is
excluded from default sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..core.errors import FluidError
from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve, PredicateValve
from ..runtime.executor import run_serial


class RacyOrderingBug(FluidError):
    """The deliberate bug planted in the ``racy`` scenario."""


class ScenarioRun:
    """One fresh, runnable instance of a scenario."""

    def __init__(self, regions: Sequence[FluidRegion],
                 submit: Callable, extract: Callable):
        self.regions = list(regions)
        #: submit(executor) — registers every region (with topology).
        self.submit = submit
        #: extract() — the scenario-level output after the run.
        self.extract = extract


class Scenario:
    """Base: named builder of fresh runs plus its precise reference."""

    name = ""
    backends = ("sim", "thread", "process")
    #: Included when a sweep does not name scenarios explicitly.
    in_default_sweep = True
    #: Whether a strict (always-strict valves) build exists whose output
    #: must bit-match the serial run under any schedule.
    supports_strict = True

    def fresh(self, strict: bool = False) -> ScenarioRun:
        raise NotImplementedError

    def precise_output(self):
        """Serial precise run of a strict build (the elision baseline)."""
        run = self.fresh(strict=True)
        run_serial(*run.regions)
        return run.extract()


def _single_region(region: FluidRegion, extract: Callable) -> ScenarioRun:
    def submit(executor):
        executor.submit(region)
    return ScenarioRun([region], submit, extract)


class PipelineScenario(Scenario):
    """Slow producer, fast consumer, exact quality: the consumer starts
    on a partial input, fails quality, and is woken by the producer's
    completion signal — the canonical re-execution chain."""

    name = "pipeline"

    def __init__(self, n: int = 24):
        self.n = n

    def fresh(self, strict: bool = False) -> ScenarioRun:
        n = self.n
        start_fraction = 1.0 if strict else 0.3

        class Pipeline(FluidRegion):
            def build(self):
                src = self.input_data("src", list(range(n)))
                mid = self.add_array("mid", [0] * n)
                out = self.add_array("out", [0] * n)
                ct = self.add_count("ct")

                def produce(ctx):
                    data = src.read()
                    for i in range(n):
                        mid[i] = data[i] * 2
                        ct.add()
                        yield 2.0

                def consume(ctx):
                    for i in range(n):
                        out[i] = mid[i] + 1
                        yield 1.0

                self.add_task("produce", produce, inputs=[src],
                              outputs=[mid])
                self.add_task(
                    "consume", consume,
                    start_valves=[PercentValve(ct, start_fraction, n)],
                    end_valves=[PredicateValve(
                        lambda: all(out[i] == 2 * i + 1 for i in range(n)),
                        name="exact")],
                    inputs=[mid], outputs=[out])

        region = Pipeline("pipeline")
        return _single_region(
            region, lambda: list(region.datas["out"].read()))


class OvertakeScenario(Scenario):
    """A consumer that sprints past the producer early and then crawls:
    the producer finishes *during* the consumer's run, so the pending
    input-update signal is consumed by the W-entry poke — removing that
    wake-up (the ``drop-wait-poke`` mutation) deadlocks this scenario."""

    name = "overtake"

    def __init__(self, n: int = 24):
        self.n = n

    def fresh(self, strict: bool = False) -> ScenarioRun:
        n = self.n
        start_fraction = 1.0 if strict else 0.25

        class Overtake(FluidRegion):
            def build(self):
                src = self.input_data("src", list(range(n)))
                mid = self.add_array("mid", [0] * n)
                out = self.add_array("out", [0] * n)
                ct = self.add_count("ct")

                def produce(ctx):
                    data = src.read()
                    for i in range(n):
                        mid[i] = data[i] + 10
                        ct.add()
                        yield 1.0

                def consume(ctx):
                    for i in range(n):
                        out[i] = mid[i] * 3
                        yield 0.3 if i < n // 2 else 3.0

                self.add_task("produce", produce, inputs=[src],
                              outputs=[mid])
                self.add_task(
                    "consume", consume,
                    start_valves=[PercentValve(ct, start_fraction, n)],
                    end_valves=[PredicateValve(
                        lambda: all(out[i] == (i + 10) * 3
                                    for i in range(n)),
                        name="exact")],
                    inputs=[mid], outputs=[out])

        region = Overtake("overtake")
        return _single_region(
            region, lambda: list(region.datas["out"].read()))


class DiamondScenario(Scenario):
    """root -> (left, right) -> join with an exact-quality leaf: two
    producers racing into one consumer, re-executions on both edges."""

    name = "diamond"

    def __init__(self, n: int = 20):
        self.n = n

    def fresh(self, strict: bool = False) -> ScenarioRun:
        n = self.n
        fraction = 1.0 if strict else 0.4

        class Diamond(FluidRegion):
            def build(self):
                src = self.input_data("src", list(range(n)))
                base = self.add_array("base", [0] * n)
                left = self.add_array("left", [0] * n)
                right = self.add_array("right", [0] * n)
                out = self.add_array("out", [0] * n)
                ct0 = self.add_count("ct0")
                ctl = self.add_count("ctl")
                ctr = self.add_count("ctr")

                def root(ctx):
                    data = src.read()
                    for i in range(n):
                        base[i] = data[i]
                        ct0.add()
                        yield 1.0

                def go_left(ctx):
                    for i in range(n):
                        left[i] = base[i] + 1
                        ctl.add()
                        yield 1.0

                def go_right(ctx):
                    for i in range(n):
                        right[i] = base[i] * 2
                        ctr.add()
                        yield 1.5

                def join(ctx):
                    for i in range(n):
                        out[i] = left[i] + right[i]
                        yield 1.0

                self.add_task("root", root, inputs=[src], outputs=[base])
                self.add_task("left", go_left, inputs=[base],
                              outputs=[left],
                              start_valves=[PercentValve(ct0, fraction, n)])
                self.add_task("right", go_right, inputs=[base],
                              outputs=[right],
                              start_valves=[PercentValve(ct0, fraction, n)])
                self.add_task(
                    "join", join, inputs=[left, right], outputs=[out],
                    start_valves=[PercentValve(ctl, fraction, n),
                                  PercentValve(ctr, fraction, n)],
                    end_valves=[PredicateValve(
                        lambda: all(out[i] == 3 * i + 1 for i in range(n)),
                        name="exact")])

        region = Diamond("diamond")
        return _single_region(
            region, lambda: list(region.datas["out"].read()))


class RacyScenario(Scenario):
    """Deliberate ordering bug for harness self-tests.

    ``probe`` crashes iff two or more of ``burst``'s count publications
    land before probe's second chunk runs.  All events tie at the same
    virtual time (zero-cost chunks), so the outcome is decided purely by
    the event tie-break policy: FIFO order is safe, many random orders
    are not.  The minimal failing schedule is two event-tie decisions.
    """

    name = "racy"
    backends = ("sim",)
    in_default_sweep = False
    supports_strict = False

    def fresh(self, strict: bool = False) -> ScenarioRun:
        published: List[int] = []

        class Racy(FluidRegion):
            def build(self):
                src = self.input_data("src", 1)
                ready = self.add_data("ready")
                burst_out = self.add_data("burst_out")
                probe_out = self.add_data("probe_out")
                ct = self.add_count("ct")
                ct.subscribe(lambda _count, value: published.append(value))

                def header(ctx):
                    ready.write(True)
                    yield 1.0

                def burst(ctx):
                    for step in range(4):
                        ct.add()
                        yield 0.0
                    burst_out.write(4)
                    yield 0.0

                def probe(ctx):
                    yield 0.0
                    if len(published) >= 2:
                        raise RacyOrderingBug(
                            f"probe observed {len(published)} burst "
                            "publications before its second chunk")
                    probe_out.write(len(published))
                    yield 0.0

                self.add_task("header", header, inputs=[src],
                              outputs=[ready])
                self.add_task("burst", burst,
                              start_valves=[DataFinalValve(ready)],
                              inputs=[ready], outputs=[burst_out])
                self.add_task("probe", probe,
                              start_valves=[DataFinalValve(ready)],
                              inputs=[ready], outputs=[probe_out])

        region = Racy("racy")
        return _single_region(
            region, lambda: region.datas["probe_out"].read())


class KMeansScenario(Scenario):
    """Two epochs of shrunken K-means (2 assign bands per epoch)."""

    name = "kmeans"
    #: the epoch regions share one assignments buffer across bands,
    #: which violates the process-backend payload-aliasing contract.
    backends = ("sim", "thread")

    def make_app(self):
        from ..apps.kmeans import KMeansApp

        rng = np.random.default_rng(7)
        image = rng.integers(0, 255, size=(8, 8)).astype(float)
        return KMeansApp(image, num_clusters=3, epochs=2, seed=1)

    def fresh(self, strict: bool = False) -> ScenarioRun:
        app = self.make_app()
        plan = app.build_regions(threshold=1.0 if strict else 0.4,
                                 valve="percent", parallelism=2)
        return ScenarioRun(plan.ordered_regions(), plan.submit_to,
                           lambda: app.extract_output(plan))


class BellmanFordScenario(Scenario):
    """Four pipelined relax iterations on a small random digraph."""

    name = "bellman_ford"
    #: the iteration chain relaxes one shared distance vector in place,
    #: which the process backend's workers would not observe.
    backends = ("sim", "thread")

    def make_app(self):
        from ..apps.bellman_ford import BellmanFordApp
        from ..workloads.graphs import random_graph

        graph = random_graph(24, 96, seed=3)
        return BellmanFordApp(graph, iterations=4)

    def fresh(self, strict: bool = False) -> ScenarioRun:
        app = self.make_app()
        plan = app.build_regions(threshold=1.0 if strict else 0.4,
                                 valve="percent", parallelism=1)
        return ScenarioRun(plan.ordered_regions(), plan.submit_to,
                           lambda: app.extract_output(plan))


class StreamScenario(Scenario):
    """One window of the streaming log-aggregation pipeline.

    A paced source feeds three stages over staleness-relaxed
    :class:`~repro.stream.StageQueue` edges (bound ``k``).  The
    invariant checker audits the queues' ``stream`` events: a
    ``valve_true`` fault on a stage's start valves makes it consume
    while more than ``k`` items are unsettled, which surfaces as a
    ``staleness`` violation — the streaming analogue of the
    drop-update-signals mutation.  Strict builds use ``k = 0``
    (lossless FIFO) and must bit-match the serial fold.
    """

    name = "stream"
    #: stage bodies on the process backend run in workers, whose copy
    #: of the region has no bus: the parent would hear no ``stream``
    #: events and the audit would be vacuous, so it is not swept.
    backends = ("sim", "thread")

    def __init__(self, n: int = 20, k: int = 3):
        self.n = n
        self.k = k

    def _pipeline(self, k: float):
        from ..stream.apps import APPS

        return APPS["logagg"].pipeline(k=k, window=self.n)

    def fresh(self, strict: bool = False) -> ScenarioRun:
        from ..stream.apps import make_log_items

        pipeline = self._pipeline(0 if strict else self.k)
        items = make_log_items(self.n)
        build = pipeline.build_window(0, items,
                                      pipeline._initial_states())
        final_queue = build.queues[-1]
        return _single_region(
            build.region, lambda: sorted(final_queue.items()))


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (PipelineScenario(), OvertakeScenario(),
                     DiamondScenario(), RacyScenario(),
                     KMeansScenario(), BellmanFordScenario(),
                     StreamScenario())
}


def default_scenarios(backend: str) -> List[str]:
    """Scenario names swept when the user does not pick any."""
    return [name for name, scenario in SCENARIOS.items()
            if scenario.in_default_sweep and backend in scenario.backends]
