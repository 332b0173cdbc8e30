"""Tests for the real-thread backend (semantics under preemption)."""

import pytest

from repro import (DataFinalValve, FluidRegion, PercentValve, PredicateValve,
                   SchedulerError, TaskState, ThreadExecutor, submit_all,
                   submit_chain, sync)
from repro.core.errors import TaskBodyError
from repro.runtime import RunContext, SharedThreadPool, thread_pool

from util import (chain_expected, diamond_expected, make_chain, make_diamond,
                  make_pipeline, pipeline_expected)


def run_threads(*regions, chain=False, **kwargs):
    kwargs.setdefault("timeout", 30)
    executor = ThreadExecutor(**kwargs)
    if chain:
        submit_chain(executor, regions)
    else:
        submit_all(executor, regions)
    return executor, executor.run()


class TestThreadSemantics:
    def test_pipeline_output(self):
        region = make_pipeline(n=30, exact_quality=True)
        run_threads(region)
        assert region.output("out") == pipeline_expected(30)

    def test_makespan_is_measured_from_the_run(self):
        """Time between building the executor and ``run()`` is not the
        run's: the result and ``run.makespan`` start at ``start``."""
        import time

        from repro.telemetry import Telemetry

        idle = 0.5
        telemetry = Telemetry(chrome=False)
        executor = ThreadExecutor(timeout=30, telemetry=telemetry)
        time.sleep(idle)
        executor.submit(make_pipeline(n=4, exact_quality=True))
        result = executor.run()
        assert 0.0 < result.makespan < idle
        assert telemetry.metrics.gauges["run.makespan"] == result.makespan

    def test_chain_output(self):
        region = make_chain(depth=3, n=20, exact_quality=True)
        run_threads(region)
        assert region.output("a2") == chain_expected(3, 20)

    def test_diamond_output(self):
        region = make_diamond(n=20, exact_quality=True)
        run_threads(region)
        assert region.output("out") == diamond_expected(20)

    def test_all_states_terminal(self):
        region = make_pipeline(n=20)
        run_threads(region)
        assert all(t.state is TaskState.COMPLETE for t in region.tasks)

    def test_multiple_concurrent_regions(self):
        regions = [make_pipeline(n=15, exact_quality=True, name=f"r{i}")
                   for i in range(3)]
        run_threads(*regions)
        for region in regions:
            assert region.output("out") == pipeline_expected(15)

    def test_chained_regions_fcfs(self):
        regions = [make_pipeline(n=10, name=f"c{i}") for i in range(3)]
        run_threads(*regions, chain=True)
        assert all(region.complete for region in regions)

    def test_single_shot(self):
        executor, _result = run_threads(make_pipeline(n=5))
        with pytest.raises(SchedulerError):
            executor.run()

    def test_makespan_positive(self):
        _, result = run_threads(make_pipeline(n=5))
        assert result.makespan > 0

    def test_reexecution_happens_under_threads(self):
        # A consumer much faster than its producer must fail quality and
        # re-execute, same as under the simulator.
        region = make_pipeline(n=200, producer_cost=1.0, consumer_cost=1.0,
                               start_fraction=0.05, exact_quality=True)

        # Slow the producer down for real by wrapping its body.
        produce_task = None
        region.finalize()
        assert region.output  # region built
        leaf = region.graph.task("consume")
        run_threads(region)
        assert region.output("out") == pipeline_expected(200)


class TestSyncApi:
    def test_sync_on_completed_region(self):
        region = make_pipeline(n=10)
        executor, _ = run_threads(region)
        sync(region, executor=executor)  # returns immediately

    def test_sync_on_completed_task(self):
        region = make_pipeline(n=10)
        executor, _ = run_threads(region)
        sync(region.graph.task("consume"), executor=executor)

    def test_sync_all(self):
        region = make_pipeline(n=10)
        executor, _ = run_threads(region)
        sync(executor=executor)

    def test_sync_times_out_on_unrun_region(self):
        region = make_pipeline(n=10)
        region.finalize()
        executor = ThreadExecutor()
        executor.submit(region)
        with pytest.raises(SchedulerError):
            sync(region, executor=executor, timeout=0.05)


class _ConstantJitterPolicy:
    """Minimal SchedLab-style policy stub: a fixed delay at every point."""

    def __init__(self, delay):
        self.delay = delay

    def begin_run(self):
        pass

    def jitter(self, point):
        return self.delay

    def order(self, point, keys):
        return list(range(len(keys)))


@pytest.mark.usefixtures("slow_safety_net")
class TestEventDrivenWakeups:
    """Guards must be woken by events, not fallback polls.

    Regression guard for the event-driven rework: with a fallback
    interval far longer than the whole workload, progress can only come
    from count-publish / data-bump / schedule_run notifications.  Before
    the rework these runs took at least one fallback tick per guard
    decision and would blow the wall-clock budget below.
    """

    def test_pipeline_completes_without_polling(self):
        import time

        region = make_pipeline(n=30, exact_quality=True)
        start = time.perf_counter()
        run_threads(region, timeout=30)
        elapsed = time.perf_counter() - start
        assert region.output("out") == pipeline_expected(30)
        assert elapsed < 5.0, \
            f"event wakeups missing: {elapsed:.1f}s (one 10s fallback tick" \
            " should never be needed)"

    def test_chain_completes_without_polling(self):
        import time

        region = make_chain(depth=3, n=20, exact_quality=True)
        start = time.perf_counter()
        run_threads(region, timeout=30)
        elapsed = time.perf_counter() - start
        assert region.output("a2") == chain_expected(3, 20)
        assert elapsed < 5.0

    def test_no_lost_wakeup_under_seeded_jitter(self):
        # Satellite audit: check-then-wait must re-test under the lock.
        # Seeded jitter widens the window between a valve flipping and
        # the guard parking; with the huge fallback interval a single
        # lost notification would stall the run past the assertion.
        import time

        from repro.schedlab.policy import SeededRandomPolicy

        for seed in (1, 7, 23):
            region = make_pipeline(n=20, exact_quality=True,
                                   name=f"jit{seed}")
            policy = SeededRandomPolicy(seed=seed, jitter_scale=0.002)
            start = time.perf_counter()
            run_threads(region, policy=policy, timeout=30)
            elapsed = time.perf_counter() - start
            assert region.output("out") == pipeline_expected(20)
            assert elapsed < 5.0, f"seed {seed} stalled: {elapsed:.1f}s"


    def test_opaque_predicate_opens_on_cell_bump(self):
        # A start valve over array *contents* declares no count, so only
        # the producer's cell bumps can re-evaluate it.
        import time

        region = FluidRegion("bump-path")
        mid = region.add_array("mid", [0] * 8)
        out = region.add_data("out")

        def produce(ctx):
            for i in range(8):
                mid[i] = i + 1
                yield 1.0
            time.sleep(0.2)  # stay RUNNING: finalisation must not be needed

        def consume(ctx):
            out.write(time.perf_counter())
            yield 1.0

        region.add_task("produce", produce, outputs=[mid])
        region.add_task(
            "consume", consume, inputs=[mid], outputs=[out],
            start_valves=[PredicateValve(lambda: mid[3] != 0, name="row3")])
        start = time.perf_counter()
        run_threads(region, timeout=30)
        assert out.read() - start < 0.15, \
            "consumer waited for the producer to finish (bump path dead)"
        assert time.perf_counter() - start < 1.0

    def test_data_final_valve_opens_on_finalisation(self):
        import time

        region = FluidRegion("final-path")
        mid = region.add_data("mid", 0)
        out = region.add_data("out")

        def produce(ctx):
            mid.write(7)
            yield 1.0

        def consume(ctx):
            out.write(mid.read() + 1)
            yield 1.0

        region.add_task("produce", produce, outputs=[mid])
        region.add_task("consume", consume, inputs=[mid], outputs=[out],
                        start_valves=[DataFinalValve(mid)])
        start = time.perf_counter()
        run_threads(region, timeout=30)
        assert region.output("out") == 8
        assert time.perf_counter() - start < 1.0


class TestJitterShutdown:
    def test_stop_event_interrupts_jitter_sleep(self):
        # Satellite regression: _sleep_jitter used time.sleep, which
        # ignored shutdown; it must park on the executor's stop event.
        import threading
        import time

        executor = ThreadExecutor(policy=_ConstantJitterPolicy(30.0))
        sleeper = threading.Thread(
            target=executor._sleep_jitter, args=("wake:test",), daemon=True)
        start = time.perf_counter()
        sleeper.start()
        time.sleep(0.05)
        executor._stop.set()
        sleeper.join(5.0)
        assert not sleeper.is_alive(), "jitter sleep ignored shutdown"
        assert time.perf_counter() - start < 5.0

    def test_run_sets_stop_event(self):
        region = make_pipeline(n=10, exact_quality=True)
        executor, _result = run_threads(region)
        assert executor._stop.is_set()


class TestThreadHygiene:
    def test_no_thread_growth_across_sequential_runs(self):
        # Satellite regression: guard threads were daemonized and never
        # joined, so every run() leaked its guards until interpreter
        # exit.  Fifty back-to-back runs must leave the thread count
        # where it started.
        import threading

        baseline = threading.active_count()
        for index in range(50):
            region = make_pipeline(n=6, exact_quality=True,
                                   name=f"hygiene{index}")
            run_threads(region)
            assert region.output("out") == pipeline_expected(6)
        after = threading.active_count()
        assert after <= baseline + 1, \
            f"guard threads leaked: {baseline} before, {after} after"


def _start_on(pool, region):
    """Start ``region`` in a context of its own on a shared pool."""
    ctx = RunContext()
    ctx.submit(region)
    pool.start(ctx)
    return ctx


def _census_region(name, tasks, seen):
    """A root and ``tasks - 1`` unvalved children, each body recording
    the live thread count."""
    import threading

    region = FluidRegion(name)
    cells = [region.add_data(f"out{index}") for index in range(tasks)]
    for index, cell in enumerate(cells):
        def body(ctx, cell=cell):
            seen.append(threading.active_count())
            cell.write(1)
            yield 1.0
            seen.append(threading.active_count())

        region.add_task(f"t{index}", body, outputs=[cell],
                        inputs=[cells[0]] if index else [])
    return region


class TestThreadCensus:
    """No thread per task: the pool's ``slots`` workers are the only
    threads it ever adds, however many tasks or contexts are in flight."""

    def test_100_concurrent_regions_add_only_the_workers(self):
        import threading

        baseline = threading.active_count()
        seen = []
        pool = SharedThreadPool(slots=4, name="census")
        try:
            contexts = []
            for index in range(100):
                ctx = RunContext()
                ctx.submit(_census_region(f"census{index}", 3, seen))
                contexts.append(ctx)
            for ctx in contexts:
                pool.start(ctx)
            seen.append(threading.active_count())
            for ctx in contexts:
                pool.wait(ctx, 30)
        finally:
            pool.shutdown()
        assert len(seen) > 100
        assert max(seen) <= baseline + 4, \
            f"{max(seen) - baseline} threads over baseline on a 4-slot pool"
        assert threading.active_count() == baseline

    def test_30_task_region_on_two_slots(self):
        import threading

        baseline = threading.active_count()
        seen = []
        run_threads(_census_region("census-wide", 30, seen), slots=2)
        assert len(seen) > 30
        assert max(seen) <= baseline + 2
        assert threading.active_count() == baseline


class TestNoSpuriousReexecution:
    """Fully-closed regions (``start_fraction=1.0``) run every task
    exactly once.  The hazard this pins: a worker spawned lazily from
    inside a publish is handed the GIL by ``Thread.start()`` and runs
    the just-opened consumer to completion before the publishing
    producer is finalised — so workers start eagerly, on ``start()``."""

    @staticmethod
    def _strict(index):
        if index % 2:
            return make_diamond(n=8, start_fraction=1.0, exact_quality=True,
                                name=f"strict{index}")
        return make_chain(depth=3, n=8, start_fraction=1.0,
                          name=f"strict{index}")

    @staticmethod
    def _reexecutions(regions):
        return [(region.name, task.name, task.stats.runs)
                for region in regions for task in region.tasks
                if task.stats.runs != 1]

    def test_200_strict_regions_on_a_shared_pool(self):
        regions = [self._strict(index) for index in range(200)]
        pool = SharedThreadPool(slots=4, name="strict")
        try:
            for region in regions:
                pool.wait(_start_on(pool, region), 30)
        finally:
            pool.shutdown()
        assert self._reexecutions(regions) == []

    def test_200_strict_regions_single_shot(self):
        regions = [self._strict(index) for index in range(200)]
        for region in regions:
            run_threads(region)
        assert self._reexecutions(regions) == []


def _parked_region(name, root=None):
    """One task behind a valve nothing ever opens, under ``root``."""
    region = FluidRegion(name)
    out = region.add_data("out")
    inputs = []
    if root is not None:
        inputs = [region.add_data("side")]
        region.add_task("root", root, outputs=inputs)

    def never_runs(ctx):
        out.write(1)
        yield 1.0

    region.add_task("parked", never_runs, inputs=inputs, outputs=[out],
                    start_valves=[PredicateValve(lambda: False,
                                                 name="closed")])
    return region


class TestParkedRecords:
    @pytest.mark.usefixtures("slow_safety_net")
    def test_stop_context_finishes_a_parked_context_at_once(self):
        pool = SharedThreadPool(slots=2)
        try:
            ctx = RunContext()
            region = _parked_region("all-parked")
            ctx.submit(region)
            finished = []
            ctx.on_finished = finished.append
            pool.start(ctx)
            assert region.graph.task("parked").state is TaskState.START_CHECK
            assert len(ctx.waiting) == 1 and not ctx.finished.is_set()
            pool.stop_context(ctx)
            # Synchronously: no thread has to notice anything.
            assert ctx.finished.is_set() and finished == [ctx]
            assert len(ctx.waiting) == 0
            assert pool.active_contexts() == 0
        finally:
            pool.shutdown()

    @pytest.mark.usefixtures("slow_safety_net")
    def test_body_error_with_parked_sibling_reaches_wait_at_once(self):
        import time

        def explode(ctx):
            raise ValueError("kaboom")
            yield 1.0

        pool = SharedThreadPool(slots=2)
        try:
            start = time.perf_counter()
            ctx = _start_on(pool, _parked_region("parked-sibling",
                                                 root=explode))
            with pytest.raises(TaskBodyError, match="kaboom"):
                pool.wait(ctx, 30)
            assert time.perf_counter() - start < 1.0
            assert ctx.finished.wait(1.0)
        finally:
            pool.shutdown()

    def test_no_timed_waits_without_parked_records(self, monkeypatch):
        # The timed wait is a safety net for parked records only: with
        # none, an idle worker sleeps until notified.
        import time

        monkeypatch.setattr(thread_pool, "FALLBACK_INTERVAL", 0.001)
        pool = SharedThreadPool(slots=2)
        timeouts = []
        idle_wait = pool._idle.wait

        def recording_wait(timeout=None):
            timeouts.append(timeout)
            return idle_wait(timeout)

        pool._idle.wait = recording_wait
        try:
            for index in range(20):
                region = _census_region(f"untimed{index}", 2, [])
                pool.wait(_start_on(pool, region), 30)
            assert timeouts and set(timeouts) == {None}
            # ... and one parked record brings the safety net back.
            _start_on(pool, _parked_region("timed"))
            deadline = time.perf_counter() + 5.0
            while 0.001 not in timeouts and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert 0.001 in timeouts
        finally:
            pool.shutdown()


@pytest.mark.usefixtures("slow_safety_net")
class TestWorkerSurvival:
    def test_raising_valve_fails_its_context_not_the_worker(self):
        # Workers outlive contexts: a user predicate raising inside a
        # worker's critical section must fail that context at once and
        # leave the (only) worker serving the next one.
        calls = []

        def flaky():  # opens for start()'s check, raises for the worker's
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("bad predicate")
            return True

        region = FluidRegion("bad-valve")
        out = region.add_data("out")

        def body(ctx):
            out.write(1)
            yield 1.0

        region.add_task("only", body, outputs=[out],
                        start_valves=[PredicateValve(flaky, name="flaky")])
        pool = SharedThreadPool(slots=1)
        try:
            ctx = _start_on(pool, region)
            with pytest.raises(RuntimeError, match="bad predicate"):
                pool.wait(ctx, 5)
            assert ctx.finished.wait(1.0)
            healthy = make_pipeline(n=10, exact_quality=True)
            pool.wait(_start_on(pool, healthy), 5)
            assert healthy.output("out") == pipeline_expected(10)
        finally:
            pool.shutdown()


def _spawned_consumer_context(name):
    """A run whose producer publishes while its consumer is mid-admission.

    ``spawner`` spawns ``consume`` (opened only by ``ct`` reaching 1)
    while ``produce`` is in its body.  A bus subscriber holds the
    consumer's admission right after its START_CHECK transition, under
    the pool lock, until ``produce`` has published: the publish reads
    the gates before the record is parked, so only the check that
    follows the park can open it.
    """
    import threading
    import time

    from repro.telemetry import Telemetry

    producing, admitting = threading.Event(), threading.Event()
    region = FluidRegion(name)
    seed = region.add_data("seed")
    ct = region.add_count("ct")
    mid = region.add_data("mid")
    side = region.add_data("side")
    out = region.add_data("out")

    def head(ctx):
        seed.write(1)
        yield 1.0

    def produce(ctx):
        mid.write(7)
        producing.set()
        admitting.wait(1.0)
        ct.add()
        yield 1.0

    def consume(ctx):
        out.write(mid.read())
        yield 1.0

    def spawner(ctx):
        producing.wait(1.0)
        ctx.spawn("consume", consume,
                  start_valves=[PercentValve(ct, 1.0, 1)],
                  inputs=[mid], outputs=[out])
        side.write(1)
        yield 1.0

    def hold_admission(event):
        if event.kind == "transition" and event.task == "consume" and \
                event.name == "START_CHECK":
            admitting.set()
            deadline = time.perf_counter() + 1.0
            while not ct.value and time.perf_counter() < deadline:
                time.sleep(0)

    region.add_task("head", head, outputs=[seed])
    region.add_task("spawner", spawner, inputs=[seed], outputs=[side])
    region.add_task("produce", produce, inputs=[seed], outputs=[mid])
    telemetry = Telemetry(metrics=False, chrome=False)
    telemetry.bus.subscribe(hold_admission)
    ctx = RunContext(telemetry=telemetry)
    ctx.submit(region)
    return ctx


def _race(count, deadline):
    """Run ``count`` short producer -> consumer regions at once on a
    4-slot pool with a GIL switch every microsecond: static pipelines,
    and consumers spawned next to their running producer.  Every one
    must finish exactly, inside ``deadline`` (under the 10 s safety
    net, so a lost wakeup fails instead of being rescued)."""
    import sys
    import time

    contexts = []
    for index in range(count):
        if index % 2:
            contexts.append(_spawned_consumer_context(f"spawn{index}"))
        else:
            contexts.append(RunContext())
            contexts[-1].submit(make_pipeline(
                n=4, start_fraction=0.5, exact_quality=True,
                name=f"race{index}"))
    pool = SharedThreadPool(slots=4, name="race")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    start = time.perf_counter()
    try:
        for ctx in contexts:
            pool.start(ctx)
        for ctx in contexts:
            pool.wait(ctx, max(0.01, deadline - (time.perf_counter() - start)))
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert time.perf_counter() - start < deadline
    for index, ctx in enumerate(contexts):
        assert len(ctx.waiting) == 0 and ctx.host.running == 0
        (region,) = ctx.regions
        if index % 2:
            assert region.output("out") == 7, region.name
        else:
            assert region.output("out") == pipeline_expected(4), region.name


@pytest.mark.usefixtures("slow_safety_net")
class TestGateRace:
    """Publishers read a count's gates without the lock while other
    workers park and discard records under it.  Mutant caught: a task
    checked before it is parked (``_admit`` re-checking before
    ``ctx.admit``), which lets the held publish skip it for good."""

    def test_500_short_regions_under_a_tiny_switch_interval(self):
        _race(500, deadline=8.0)

    @pytest.mark.stress
    def test_5000_short_regions_under_a_tiny_switch_interval(self):
        _race(5000, deadline=9.0)


@pytest.mark.stress
@pytest.mark.usefixtures("slow_safety_net")
class TestPoolUnderPreemption:
    def test_relaxed_regions_with_a_tiny_switch_interval(self):
        # More workers than cores and a GIL switch every 10 us: publishes,
        # rechecks, picks and end checks of 60 overlapping contexts
        # interleave at almost every bytecode.  With the safety net out
        # of reach (10 s) a lost record or wake-up stalls past the
        # deadline; a double enqueue fails its context (``wait`` raises)
        # and a torn wait set breaks the final-state asserts.
        import sys
        import time

        regions = []
        for index in range(60):
            make = (make_pipeline, make_diamond)[index % 2]
            regions.append(make(n=12, exact_quality=True,
                                name=f"preempt{index}"))
        regions += [make_chain(depth=3, n=12, name=f"preempt-c{index}")
                    for index in range(20)]
        pool = SharedThreadPool(slots=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        start = time.perf_counter()
        try:
            contexts = [_start_on(pool, region) for region in regions]
            for ctx in contexts:
                pool.wait(ctx, 8.0)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert time.perf_counter() - start < 8.0
        assert pool.active_contexts() == 0
        for ctx, region in zip(contexts, regions):
            assert len(ctx.waiting) == 0 and ctx.host.running == 0
            assert all(task.state is TaskState.COMPLETE
                       for task in region.tasks), region.name
            for task in region.tasks:
                for valve in task.spec.end_valves:
                    assert valve.check(), (region.name, valve.name)
