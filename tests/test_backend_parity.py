"""Parity tests: the simulator, thread and process backends share one
semantics.

All three executors drive the same :class:`~repro.core.guard.Coordinator`;
these tests check that for the same region the backends produce the same
*outputs* (determinism of timing is only promised by the simulator), and
that fully-serialized valve settings produce the same deterministic
re-execution counts everywhere.  Includes a hypothesis sweep over random
layered DAGs.
"""

import pytest
from hypothesis import given, settings

from repro import ProcessExecutor, SimExecutor, ThreadExecutor

from test_properties import build_dag_region, dag_specs
from util import (chain_expected, diamond_expected, make_chain,
                  make_diamond, make_pipeline, pipeline_expected)


def run_sim(region):
    executor = SimExecutor(cores=4)
    executor.submit(region)
    executor.run()
    return region


def run_threads(region):
    executor = ThreadExecutor(timeout=30)
    executor.submit(region)
    executor.run()
    return region


def run_process(region):
    executor = ProcessExecutor(workers=2, timeout=60)
    executor.submit(region)
    executor.run()
    return region


ALL_BACKENDS = [run_sim, run_threads, run_process]


class TestTopologyParity:
    def test_pipeline_outputs_agree(self):
        outputs = [run(make_pipeline(n=30, exact_quality=True)).output("out")
                   for run in ALL_BACKENDS]
        assert outputs == [pipeline_expected(30)] * len(ALL_BACKENDS)

    def test_chain_outputs_agree(self):
        outputs = [run(make_chain(depth=3, n=20)).output("a2")
                   for run in ALL_BACKENDS]
        assert outputs == [chain_expected(3, 20)] * len(ALL_BACKENDS)

    def test_diamond_outputs_agree(self):
        outputs = [run(make_diamond(n=20, exact_quality=True)).output("out")
                   for run in ALL_BACKENDS]
        assert outputs == [diamond_expected(20)] * len(ALL_BACKENDS)

    def test_racing_pipeline_repairs_on_all_backends(self):
        config = dict(n=50, producer_cost=2.0, consumer_cost=0.1,
                      start_fraction=0.3, exact_quality=True)
        sim = run_sim(make_pipeline(**config))
        thread = run_threads(make_pipeline(**config))
        process = run_process(make_pipeline(**config))
        assert sim.output("out") == pipeline_expected(50)
        assert thread.output("out") == pipeline_expected(50)
        assert process.output("out") == pipeline_expected(50)
        # The simulator deterministically observed a quality failure; the
        # real-time backends may legitimately win the race, but whenever
        # the end valve rejected a run they must also have re-executed.
        assert sim.graph.task("consume").stats.quality_failures >= 1
        for region in (thread, process):
            consume = region.graph.task("consume")
            assert consume.stats.runs >= 1 + consume.stats.quality_failures


class TestDeterministicReruns:
    """Fully-serialized valves give the same run counts on every backend."""

    def test_pipeline_serialized_runs_once_everywhere(self):
        for run in ALL_BACKENDS:
            region = run(make_pipeline(n=20, start_fraction=1.0,
                                       exact_quality=True))
            consume = region.graph.task("consume")
            assert consume.stats.runs == 1, run.__name__
            assert consume.stats.quality_failures == 0, run.__name__

    def test_chain_serialized_runs_once_everywhere(self):
        for run in ALL_BACKENDS:
            region = run(make_chain(depth=3, n=12, start_fraction=1.0))
            for task in region.tasks:
                assert task.stats.runs == 1, (run.__name__, task.name)
                assert task.stats.quality_failures == 0

    def test_diamond_serialized_runs_once_everywhere(self):
        for run in ALL_BACKENDS:
            region = run(make_diamond(n=12, start_fraction=1.0,
                                      exact_quality=True))
            for task in region.tasks:
                assert task.stats.runs == 1, (run.__name__, task.name)


@settings(max_examples=10, deadline=None)
@given(dag_specs())
def test_random_dags_agree_across_backends(spec):
    nodes, costs, fraction = spec
    sim_region, expected = build_dag_region(nodes, costs, fraction, n=8)
    thread_region, _ = build_dag_region(nodes, costs, fraction, n=8)
    run_sim(sim_region)
    run_threads(thread_region)
    children = [[] for _ in nodes]
    for node, parents in enumerate(nodes):
        for p in parents:
            children[p].append(node)
    for node, kids in enumerate(children):
        if not kids:  # leaves demanded exactness on both backends
            assert list(sim_region.datas[f"d{node}"].read()) == \
                list(thread_region.datas[f"d{node}"].read()) == \
                expected[node]


@settings(max_examples=5, deadline=None)
@given(dag_specs())
def test_random_dags_agree_on_process_backend(spec):
    nodes, costs, fraction = spec
    region, expected = build_dag_region(nodes, costs, fraction, n=8)
    run_process(region)
    children = [[] for _ in nodes]
    for node, parents in enumerate(nodes):
        for p in parents:
            children[p].append(node)
    for node, kids in enumerate(children):
        if not kids:
            assert list(region.datas[f"d{node}"].read()) == expected[node]


class TestStatsParity:
    def test_all_backends_record_visits(self):
        from repro.core.states import TaskState
        for run in ALL_BACKENDS:
            region = run(make_pipeline(n=20))
            for task in region.tasks:
                assert task.stats.visits[TaskState.RUNNING] >= 1
                assert task.stats.visits[TaskState.COMPLETE] == 1


# ---------------------------------------------------------------- memoization

def make_cross_wake(n_a=8, n_b=60, pace=0.0, name=None):
    """Two producers, one consumer gated on both counts.

    Once the fast producer (``a``) finishes, every wakeup caused by the
    slow producer's count re-tests the already-frozen ``a`` valve — the
    workload that valve memoization exists to short-circuit.  ``pace``
    adds a real sleep per ``b`` element so the consumer guard observes
    individual publishes instead of coalescing them.
    """
    import time as _time

    from repro import FluidRegion, PercentValve
    from repro.core.valves import DataFinalValve

    class CrossWake(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(max(n_a, n_b))))
            go = self.add_data("go", 0)
            a = self.add_array("a", [0] * n_a)
            b = self.add_array("b", [0] * n_b)
            out = self.add_array("out", [0] * n_b)
            ct_a = self.add_count("ct_a")
            ct_b = self.add_count("ct_b")

            def header(ctx):
                go.write(1)
                yield 1.0

            def produce_a(ctx):
                data = src.read()
                for i in range(n_a):
                    a[i] = data[i] * 2
                    ct_a.add()
                    yield 1.0

            def produce_b(ctx):
                data = src.read()
                for i in range(n_b):
                    if pace:
                        _time.sleep(pace)
                    b[i] = data[i] * 3
                    ct_b.add()
                    yield 1.0

            def consume(ctx):
                for i in range(n_b):
                    out[i] = b[i] + (a[i % n_a] if n_a else 0)
                    yield 1.0

            self.add_task("header", header, inputs=[src], outputs=[go])
            self.add_task("produce_a", produce_a,
                          start_valves=[DataFinalValve(go)],
                          inputs=[go, src], outputs=[a])
            self.add_task("produce_b", produce_b,
                          start_valves=[DataFinalValve(go)],
                          inputs=[go, src], outputs=[b])
            self.add_task("consume", consume,
                          start_valves=[PercentValve(ct_a, 1.0, n_a),
                                        PercentValve(ct_b, 1.0, n_b)],
                          inputs=[a, b], outputs=[out])

    return CrossWake(name)


def cross_wake_expected(n_a=8, n_b=60):
    return [3 * i + 2 * (i % n_a) for i in range(n_b)]


def _valve_counters(region):
    return (sum(v.checks for v in region.valves),
            sum(v.checks_skipped for v in region.valves))


class TestMemoizationParity:
    """Valve memoization must never change results, only skip work."""

    def _run_memo(self, runner, builder, memo):
        from repro.core.valves import set_memoization

        previous = set_memoization(memo)
        try:
            return runner(builder())
        finally:
            set_memoization(previous)

    def test_sim_kmeans_invariant(self):
        from repro.apps.kmeans import KMeansApp
        from repro.workloads import synthetic_image

        def build():
            return KMeansApp(synthetic_image(20, 20, diversity=3, noise=6.0,
                                             seed=3),
                             num_clusters=3, epochs=3)

        runs = {memo: self._run_memo(lambda app: app.run_fluid(),
                                     build, memo)
                for memo in (False, True)}
        assert runs[False].makespan == runs[True].makespan
        assert runs[False].error == runs[True].error

    def test_sim_bellman_ford_invariant(self):
        import numpy as np

        from repro.apps.bellman_ford import BellmanFordApp
        from repro.workloads import random_graph

        def build():
            return BellmanFordApp(random_graph(200, 800, seed=13),
                                  iterations=4)

        runs = {memo: self._run_memo(lambda app: app.run_fluid(),
                                     build, memo)
                for memo in (False, True)}
        assert runs[False].makespan == runs[True].makespan
        assert np.array_equal(np.asarray(runs[False].output),
                              np.asarray(runs[True].output))

    def test_thread_fewer_evaluations_same_output(self):
        results = {}
        for memo in (False, True):
            region = self._run_memo(
                run_threads, lambda: make_cross_wake(pace=0.001), memo)
            assert region.output("out") == cross_wake_expected()
            results[memo] = _valve_counters(region)
        checks_off, skipped_off = results[False]
        checks_on, skipped_on = results[True]
        assert skipped_off == 0
        # With memoization on, a strict subset of the same wakeup-driven
        # check() calls is actually evaluated.
        assert skipped_on > 0
        assert checks_on < checks_on + skipped_on

    def test_process_fewer_evaluations_same_output(self):
        results = {}
        for memo in (False, True):
            region = self._run_memo(
                run_process, lambda: make_cross_wake(), memo)
            assert region.output("out") == cross_wake_expected()
            results[memo] = _valve_counters(region)
        checks_off, skipped_off = results[False]
        checks_on, skipped_on = results[True]
        assert skipped_off == 0
        assert skipped_on > 0
        assert checks_on < checks_off


# ------------------------------------------------------ region lifecycle

def make_sleeper(name, seconds):
    """One task that takes ``seconds`` of wall clock *and* the same
    amount of virtual time (module-level, so a shared pool accepts it)."""
    import time

    from repro import FluidRegion

    class _Sleeper(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                time.sleep(seconds)
                out.write(1)
                yield seconds * 1000.0

            self.add_task("nap", body, outputs=[out])

    region = _Sleeper(name)
    region.remote_factory = (make_sleeper, (name, seconds), {})
    return region


def _lifecycle_executors():
    from repro.runtime import PersistentProcessPool

    def shared_pool(telemetry):
        pool = PersistentProcessPool(workers=2)
        return (ProcessExecutor(timeout=60, pool=pool, telemetry=telemetry),
                pool.close)

    return {
        "sim": lambda t: (SimExecutor(cores=4, telemetry=t), None),
        "thread": lambda t: (ThreadExecutor(timeout=30, telemetry=t), None),
        "process-private": lambda t: (
            ProcessExecutor(workers=2, timeout=60, telemetry=t), None),
        "process-shared": shared_pool,
    }


class TestLifecycleParity:
    """Launch and region-done have one owner (RunContext), so every
    backend emits the same per-region lifecycle for an ``after`` chain."""

    @pytest.mark.parametrize("backend", sorted(_lifecycle_executors()))
    def test_after_chain_lifecycle(self, backend):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(chrome=False)
        events = []
        telemetry.bus.subscribe(events.append)
        first, second = make_sleeper("a", 0.2), make_sleeper("b", 0.05)
        executor, cleanup = _lifecycle_executors()[backend](telemetry)
        try:
            executor.submit(first)
            executor.submit(second, after=[first])
            executor.run()
        finally:
            if cleanup is not None:
                cleanup()
        lifecycle = [(event.region, event.name) for event in events
                     if event.kind == "sched"]
        assert lifecycle == [
            ("a", "launch"), ("a", "run"), ("a", "region-done"),
            ("b", "launch"), ("b", "run"), ("b", "region-done")]
        memo = [event.region for event in events
                if (event.kind, event.name) == ("valve", "memo")]
        assert memo == ["a", "b"]
        # Makespans are measured from each region's own launch: the
        # dependent region does not inherit its predecessor's 0.2 s
        # (the thread backend used to measure from context start).
        assert second.stats.makespan < first.stats.makespan
        run_b = executor.context.run_for(second)
        assert run_b.launch_time >= first.stats.makespan


# ---------------------------------------------------------- the wake rule

WAKE_CONSUMERS = ("by_count", "by_final", "by_predicate", "by_convergence")


def make_wake_rule_region(n=12, pace=0.002):
    """One producer; four consumers whose start valves open four ways:
    a count threshold, the input going final, an opaque predicate over
    the input's contents, a non-monotone convergence window.  Exact
    end-quality, so every consumer ends on the precise sum."""
    import time

    from repro import FluidRegion, PercentValve, PredicateValve
    from repro.core.valves import ConvergenceValve, DataFinalValve

    total = n * (n + 1) // 2

    class WakeRule(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            mid = self.add_array("mid", [0] * n)
            ct = self.add_count("ct")
            energy = self.add_count("energy")

            def produce(ctx):
                data = src.read()
                for i in range(n):
                    time.sleep(pace)
                    mid[i] = data[i] + 1
                    ct.add()
                    # Improves for the first half, then plateaus.
                    energy.track_min(max(n // 2 - i, 0))
                    yield 1.0

            self.add_task("produce", produce, inputs=[src], outputs=[mid])
            starts = {
                "by_count": PercentValve(ct, 0.5, n),
                "by_final": DataFinalValve(mid),
                "by_predicate": PredicateValve(lambda: mid[n - 1] != 0),
                "by_convergence": ConvergenceValve(energy, window=2),
            }
            for name in WAKE_CONSUMERS:
                out = self.add_data(f"out_{name}", 0)

                def body(ctx, out=out):
                    out.write(sum(mid.read()))
                    yield 1.0

                self.add_task(
                    name, body, start_valves=[starts[name]],
                    end_valves=[PredicateValve(
                        lambda out=out: out.read() == total, name="exact")],
                    inputs=[mid], outputs=[out])

    return WakeRule("wake-rule"), total


def _flaky_starts(region):
    """A bounded start-valve flake on the root task (which nothing
    publishes for) and on the count-gated consumer."""
    from repro.schedlab.faults import Fault, FaultPlan

    return FaultPlan([
        Fault("valve_false", task="produce", valve="start", count=1),
        Fault("valve_false", task="consume", valve="start", count=2),
    ]).attach([region])


class TestWakeRuleParity:
    """How a parked task learns it may run has one owner (RunContext
    admit / woken / begin), so every driver files, wakes and releases
    the same records."""

    @pytest.mark.parametrize("backend",
                             ["sim", "thread", "process-private"])
    def test_every_valve_kind_opens_and_records_leave(self, backend):
        from repro.telemetry import Telemetry

        telemetry = Telemetry(chrome=False)
        executor, _cleanup = _lifecycle_executors()[backend](telemetry)
        waiting = executor.context.waiting
        region, total = make_wake_rule_region()
        parked_at_first_check, parked_at_run = {}, {}

        def observe(event):
            if (event.kind, event.name) == ("valve", "start"):
                seen = parked_at_first_check
            elif (event.kind, event.name) == ("sched", "run"):
                seen = parked_at_run
            else:
                return
            task = region.graph.task(event.task)
            seen.setdefault(event.task, id(task) in waiting.records)

        telemetry.bus.subscribe(observe)
        executor.submit(region)
        executor.run()
        assert region.complete
        for name in WAKE_CONSUMERS:
            assert region.output(f"out_{name}") == total
        # Parked before its first valve check; gone when its body starts.
        assert parked_at_first_check == dict.fromkeys(WAKE_CONSUMERS, True)
        assert parked_at_run == dict.fromkeys(
            ("produce",) + WAKE_CONSUMERS, False)
        assert len(executor.context.waiting) == 0

    @pytest.mark.parametrize("run", ALL_BACKENDS)
    def test_bounded_start_flakes_recover(self, run):
        region = make_pipeline(n=20, exact_quality=True)
        plan = _flaky_starts(region)
        assert run(region).output("out") == pipeline_expected(20)
        assert [entry[:2] for entry in plan.fired] == \
            [("valve_false", "produce")] + [("valve_false", "consume")] * 2


class TestOptionsCensus:
    def test_constructor_options_are_pinned(self):
        """Every independently settable constructor value of the runtime
        and service entry points; a new knob is a deliberate diff here."""
        import inspect

        from repro.runtime import PersistentProcessPool, SharedThreadPool
        from repro.service import FluidService

        census = {cls.__name__: list(inspect.signature(cls).parameters)
                  for cls in (SimExecutor, ThreadExecutor, SharedThreadPool,
                              ProcessExecutor, PersistentProcessPool,
                              FluidService)}
        assert census == {
            "SimExecutor": [
                "cores", "overheads", "modulation", "max_active_regions",
                "cancel_first_runs", "trace", "policy", "telemetry",
                "scheduler", "autotune"],
            "ThreadExecutor": [
                "modulation", "fallback_interval", "timeout",
                "cancel_first_runs", "policy", "telemetry", "scheduler",
                "slots", "autotune"],
            "SharedThreadPool": [
                "slots", "scheduler", "policy", "bus", "fallback_interval",
                "name"],
            "ProcessExecutor": [
                "workers", "modulation", "fallback_interval", "timeout",
                "cancel_first_runs", "flush_interval", "policy",
                "telemetry", "scheduler", "autotune", "batch_size",
                "pool"],
            # inherit= is data, not a mode: the regions a private pool's
            # workers keep from their fork.
            "PersistentProcessPool": ["workers", "name", "inherit"],
            "FluidService": [
                "backend", "slots", "scheduler", "queue_capacity",
                "discipline", "max_concurrency", "capacity_curves",
                "latency_slo", "batch_max", "batch_cost_threshold",
                "request_timeout", "telemetry", "backend_options", "name"],
        }

    def test_the_bus_is_the_only_observation_path(self):
        """The observer registries, the ``transition`` monkey-patch and
        the standalone queue storage are gone; a second way to watch a
        run is a deliberate diff here."""
        import inspect

        import repro.core.states
        import repro.stream
        from repro.runtime.gantt import TimelineRecorder

        assert sorted(repro.stream.__all__) == [
            "APPS", "DROPPED", "Pipeline", "PipelineResult", "Stage",
            "StageQueue", "StreamApp", "WindowReport"]
        assert not [name for name in vars(repro.core.states)
                    if "observer" in name.lower()
                    or name.startswith("notify")]
        assert not hasattr(TimelineRecorder, "attach")
        region = inspect.signature(repro.stream.StageQueue) \
            .parameters["region"]
        assert region.default is inspect.Parameter.empty
