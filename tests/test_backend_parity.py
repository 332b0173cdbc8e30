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

from repro import (ConvergenceValve, FluidRegion, PercentValve,
                   PredicateValve, ProcessExecutor, SimExecutor,
                   StalenessValve, ThreadExecutor)

from test_properties import build_dag_region, dag_specs
from util import (chain_expected, diamond_expected, make_chain,
                  make_diamond, make_pipeline, pipeline_expected,
                  with_factory)


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


# ------------------------------------------------------ two-count gate

def make_cross_wake(n_a=8, n_b=60, pace=0.0, name=None):
    """Two producers, one consumer gated on both counts.

    Once the fast producer (``a``) finishes, every wakeup caused by the
    slow producer's count re-tests the already-open ``a`` valve.
    ``pace`` adds a real sleep per ``b`` element so the consumer guard
    observes individual publishes instead of coalescing them.
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

    return with_factory(CrossWake(name), make_cross_wake, n_a=n_a, n_b=n_b,
                        pace=pace)


def cross_wake_expected(n_a=8, n_b=60):
    return [3 * i + 2 * (i % n_a) for i in range(n_b)]


@pytest.mark.parametrize("run", ALL_BACKENDS,
                         ids=["sim", "thread", "process"])
def test_consumer_gated_on_two_counts(run):
    pace = 0.001 if run is run_threads else 0.0
    region = run(make_cross_wake(pace=pace))
    assert region.output("out") == cross_wake_expected()


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
        folded = []
        record_region = telemetry.record_region
        telemetry.record_region = lambda region, now=None: (
            folded.append(region.name), record_region(region, now))
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
        # Each region's task records are folded into the metrics once,
        # at its region-done.
        assert folded == ["a", "b"]
        # Makespans are measured from each region's own launch: the
        # dependent region does not inherit its predecessor's 0.2 s
        # (the thread backend used to measure from context start).
        assert second.stats.makespan < first.stats.makespan
        run_b = executor.context.run_for(second)
        assert run_b.launch_time >= first.stats.makespan


# ---------------------------------------------------------- the wake rule

WAKE_CONSUMERS = ("by_count", "by_final", "by_predicate", "by_convergence")


def make_wake_rule_region(n=12, pace=0.002):
    """``(wake_rule_region(n, pace), the precise sum)``."""
    return wake_rule_region(n, pace), n * (n + 1) // 2


def wake_rule_region(n=12, pace=0.002, name="wake-rule"):
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

    return with_factory(WakeRule(name), wake_rule_region, n=n, pace=pace)


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


# ------------------------------------------------------- gated publishes

def _gate_half(ct, n):
    return PercentValve(ct, 0.5, n, name="half")


def _gate_opaque(ct, n):
    """An opaque valve over ``ct`` that records each count it reads."""
    def predicate():
        valve.seen.append(ct.value)
        return ct.value >= n // 2

    valve = PredicateValve(predicate, watches=[ct], name="opaque")
    valve.seen = []
    return valve


def _gate_set_k(ct, n):
    return StalenessValve(ct, n, k=0, name="stale")


def _gate_relax_to_base(ct, n):
    tightened = PercentValve(ct, 0.5, n, name="tightened")
    tightened.tighten(1.0)
    return tightened


class _Converge(ConvergenceValve):
    """A convergence valve that records the history length its first
    True verdict saw (``opened_at``)."""

    opened_at = None

    def _satisfied(self):
        verdict = super()._satisfied()
        if verdict and self.opened_at is None:
            self.opened_at = len(self._history)
        return verdict


def _gate_converge(ct, n):
    """Observation floor N / 2; a rising count never improves by more
    than ``tolerance`` 1.0 over one update, so it opens at the floor."""
    return _Converge(ct, window=1, tolerance=1.0, min_updates=n // 2,
                     mode="max", name="converge")


GATES = {"half": _gate_half, "opaque": _gate_opaque,
         "set_k": _gate_set_k, "relax_to_base": _gate_relax_to_base,
         "converge": _gate_converge}


def gated_region(n=20, gate="half", name="gated", produce_step=None,
                 consume_start=None):
    """``produce`` publishes ``ct`` n times, ``consume`` records the
    value it starts at behind the start valve ``GATES[gate](ct, n)``.
    ``produce_step(value)`` runs after each publish and
    ``consume_start()`` first thing in the consumer's body."""
    region = FluidRegion(name)
    ct = region.add_count("ct")
    mid = region.add_data("mid")
    out = region.add_data("out")

    def produce(ctx):
        for _ in range(n):
            ct.add()
            if produce_step is not None:
                produce_step(ct.value)
            yield 1.0
        mid.write(n)

    def consume(ctx):
        if consume_start is not None:
            consume_start()
        out.write(ct.value)
        yield 1.0

    region.add_task("produce", produce, outputs=[mid])
    region.add_task("consume", consume, inputs=[mid], outputs=[out],
                    start_valves=[GATES[gate](ct, n)])
    return with_factory(region, gated_region, n=n, gate=gate)


def _gate_of(region):
    (consume,) = [task for task in region.tasks if task.name == "consume"]
    return consume.spec.start_valves[0]


GATED_EXECUTORS = {
    "sim": lambda: SimExecutor(cores=4),
    "thread": lambda: ThreadExecutor(timeout=5),
    "process-private": lambda: ProcessExecutor(workers=2, timeout=20),
}


@pytest.mark.usefixtures("slow_safety_net", "every_chunk_flushes")
class TestGatedCountPublishes:
    """A publish that leaves a parked record's start valve shut — a
    count valve below its threshold, a convergence valve below its
    observation floor (``Valve.shut``) — rules the record out before its
    check (``RunContext.woken``) on every driver: no check, no ``valve``
    event, no ``valve_check`` charge.  Each test names the broken gate
    it catches."""

    def _run(self, backend, region):
        executor = GATED_EXECUTORS[backend]()
        executor.submit(region)
        executor.run()
        assert region.complete
        return region

    #: Admission, the publish that reaches N / 2 and, where the opened
    #: record waits in a ready queue, the re-check at its pick
    #: (``may_start``); the simulator starts it on a free core at once.
    OPENING_CHECKS = {"sim": 2, "thread": 3, "process-private": 3}

    @pytest.mark.parametrize("n", [20, 200])
    @pytest.mark.parametrize("gate", ["half", "converge"])
    @pytest.mark.parametrize("backend", sorted(GATED_EXECUTORS))
    def test_a_closed_count_valve_is_checked_only_when_it_can_open(
            self, backend, gate, n):
        # Mutants caught: a gate that never skips (N / 2 - 1 more
        # checks); a convergence floor off by one (one check more, or a
        # first True verdict away from N / 2); on the thread driver, a
        # publish that tests ``opens`` without ``count._subscribers``
        # first (the floor is read before the history grows, so the
        # convergence consumer never opens and the run times out).
        region = self._run(backend, gated_region(n, gate,
                                                 f"gate-skip-{gate}-{n}"))
        valve = _gate_of(region)
        assert valve.checks == self.OPENING_CHECKS[backend]
        assert region.output("out") >= n // 2
        if gate == "converge":
            assert valve.opened_at == n // 2

    @pytest.mark.parametrize("backend", sorted(GATED_EXECUTORS))
    def test_an_opaque_valve_on_the_count_is_checked_on_every_publish(
            self, backend):
        # Mutant caught: a gate that treats a record with no count valve
        # on the published count as closed (the run stalls at admission;
        # the simulator's idle re-poll opens it only once drained).
        n = 20
        region = self._run(backend, gated_region(n, "opaque", "gate-opaque"))
        seen = _gate_of(region).seen
        # The admission check (the simulator's reads the producer's
        # first chunk, already run), every publish up to N / 2, and the
        # re-check at the pick where there is one.
        assert seen[1:n // 2 + 1] == list(range(1, n // 2 + 1))
        assert len(seen) == n // 2 + self.OPENING_CHECKS[backend] - 1

    @pytest.mark.parametrize("gate", ["half", "converge"])
    @pytest.mark.parametrize("backend", sorted(GATED_EXECUTORS))
    def test_a_region_with_a_fault_plan_checks_on_every_publish(
            self, backend, gate):
        # Mutant caught: a gate that ignores the region's fault plan
        # (a forced verdict would go unasked).
        from repro.schedlab.faults import FaultPlan

        n = 20
        region = gated_region(n, gate, f"gate-faults-{gate}")
        FaultPlan().attach([region])
        self._run(backend, region)
        # Admission, every publish up to N / 2, and the pick's re-check.
        valve = _gate_of(region)
        assert valve.checks == n // 2 + self.OPENING_CHECKS[backend] - 1

    @pytest.mark.parametrize("lower", ["set_k", "relax_to_base"])
    @pytest.mark.parametrize("backend", ["sim", "thread"])
    def test_a_threshold_lowered_while_parked_opens_on_the_next_publish(
            self, backend, lower):
        # Mutant caught: a gate that caches the threshold at park time
        # (the consumer waits for the full count instead).  A body can
        # lower only its own process's valve, so no process variant.
        import threading

        n, before = 8, 4
        started = threading.Event()

        def step(value):
            # Lower the threshold to the value just published (so no
            # publish has seen it open), then hold the producer one
            # publish later until the consumer has started.
            if value == before:
                if lower == "set_k":
                    valve.set_k(n - before)
                else:
                    valve.relax_to_base()
            elif value == before + 1:
                started.wait(2.0)

        region = gated_region(n, lower, f"gate-{lower}", produce_step=step,
                              consume_start=started.set)
        valve = _gate_of(region)
        assert valve.threshold == n
        self._run(backend, region)
        assert valve.threshold == before
        # The simulator makes a chunk's publish visible when the chunk
        # completes, after the body lowered the threshold in it.
        opened_at = before if backend == "sim" else before + 1
        assert region.output("out") == opened_at


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
                "modulation", "timeout", "cancel_first_runs", "policy",
                "telemetry", "scheduler", "slots", "autotune"],
            "SharedThreadPool": [
                "slots", "scheduler", "policy", "bus", "name"],
            "ProcessExecutor": [
                "workers", "modulation", "timeout", "cancel_first_runs",
                "policy", "telemetry", "scheduler", "autotune",
                "batch_size", "pool"],
            "PersistentProcessPool": ["workers", "name"],
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
