"""Process-backend specifics: the payload/count wire protocol, worker
failure containment, timeouts, cancellation, and the real-core bench.

Parity with the other backends is covered by test_backend_parity; this
file tests what is unique to running bodies out-of-process.
"""

import os
import time

import numpy as np
import pytest

from repro import (FluidRegion, NeverValve, PercentValve, ProcessExecutor,
                   SchedulerError, TaskBodyError, make_executor)
from repro.core.count import Count, ImmediateSink, RecordingSink
from repro.core.data import (PAYLOAD_SHM_MIN_BYTES, FluidData,
                             InlinePayload, SharedArrayPayload,
                             export_payload, import_payload)
from repro.core.valves import DataFinalValve

from util import make_pipeline, pipeline_expected


# ------------------------------------------------------- payload protocol

class TestPayloadProtocol:
    def test_small_values_travel_inline(self):
        handle = export_payload([1, 2, 3])
        assert isinstance(handle, InlinePayload)
        assert import_payload(handle) == [1, 2, 3]

    def test_small_arrays_travel_inline(self):
        array = np.arange(16, dtype=np.float64)
        handle = export_payload(array)
        assert isinstance(handle, InlinePayload)
        assert np.array_equal(import_payload(handle), array)

    def test_large_arrays_travel_through_shared_memory(self):
        array = np.arange(PAYLOAD_SHM_MIN_BYTES, dtype=np.uint8)
        handle = export_payload(array)
        assert isinstance(handle, SharedArrayPayload)
        out = import_payload(handle)
        assert np.array_equal(out, array)
        assert out.dtype == array.dtype

    def test_shared_memory_preserves_shape_and_dtype(self):
        array = np.arange(128 * 256, dtype=np.float32).reshape(128, 256)
        handle = export_payload(array, shm_min_bytes=1024)
        assert isinstance(handle, SharedArrayPayload)
        out = import_payload(handle)
        assert out.shape == (128, 256) and out.dtype == np.float32
        assert np.array_equal(out, array)

    def test_discard_releases_unclaimed_segments(self):
        handle = export_payload(np.zeros(4096), shm_min_bytes=1024)
        handle.discard()  # must not raise; segment is unlinked

    def test_apply_payload_preserves_aliases(self):
        # Bodies and valves close over the payload object itself; the
        # import path must update it in place, not rebind the cell.
        data = FluidData("d", np.zeros(8))
        alias = data.read()
        data.apply_payload(np.arange(8.0))
        assert data.read() is alias
        assert np.array_equal(alias, np.arange(8.0))

    def test_apply_payload_in_place_for_lists(self):
        data = FluidData("d", [0, 0, 0])
        alias = data.read()
        data.apply_payload([4, 5, 6])
        assert data.read() is alias and alias == [4, 5, 6]

    def test_apply_payload_rebinds_on_shape_change(self):
        data = FluidData("d", np.zeros(4))
        data.apply_payload(np.zeros((2, 2)))
        assert data.read().shape == (2, 2)

    def test_apply_payload_bumps_version_only_when_asked(self):
        data = FluidData("d", [0])
        before = data.version
        data.apply_payload([1], bump=False)
        assert data.version == before
        data.apply_payload([2])
        assert data.version > before


class TestCountReplay:
    def test_export_install_round_trip(self):
        count = Count("ct", sink=ImmediateSink())
        count.add()
        count.add(3)
        state = count.export_state()
        other = Count("ct")
        other.install_state(*state)
        assert other.value == count.value
        assert other.updates == count.updates

    def test_recording_sink_buffers_and_replay_dispatches(self):
        sink = RecordingSink()
        count = Count("ct", sink=sink)
        count.add()
        count.add(2)
        assert sink.drain() == [("ct", 1), ("ct", 3)]
        assert sink.drain() == []

        seen = []
        target = Count("ct", sink=ImmediateSink())
        target.subscribe(lambda _count, value: seen.append(value))
        target.replay(1)
        target.replay(3)
        assert target.value == 3
        assert target.updates == 2
        assert seen == [1, 3]


class TestWakeRule:
    def test_unrelated_flushes_do_not_recheck_a_parked_consumer(self):
        """A count-gated consumer is re-evaluated when *its* count is
        replayed, not on every flush another task sends."""
        flushes = 30

        class Region(FluidRegion):
            def build(self):
                c1 = self.add_count("c1")
                c2 = self.add_count("c2")
                go = self.add_data("go", 0)
                noise = self.add_data("noise", 0)
                gated = self.add_data("gated", 0)
                out = self.add_data("out", 0)

                def header(ctx):
                    go.write(1)
                    yield 1.0

                def noisy(ctx):
                    for _ in range(flushes):
                        time.sleep(0.005)
                        c2.add()
                        yield 1.0
                    noise.write(1)

                def gate(ctx):
                    for _ in range(flushes + 10):
                        time.sleep(0.005)
                        yield 1.0
                    gated.write(1)
                    c1.add()

                def consume(ctx):
                    out.write(gated.read() + 1)
                    yield 1.0

                self.add_task("header", header, outputs=[go])
                for name, body, cell in (("noisy", noisy, noise),
                                         ("gate", gate, gated)):
                    self.add_task(name, body, inputs=[go], outputs=[cell],
                                  start_valves=[DataFinalValve(go)])
                self.add_task("consume", consume, inputs=[gated],
                              outputs=[out],
                              start_valves=[PercentValve(c1, 1.0, 1)])

        region = Region("quiet-consumer")
        # flush_interval=0: every chunk boundary that has something to
        # say is a message; a long fallback keeps the safety net out.
        executor = ProcessExecutor(workers=2, timeout=60, flush_interval=0.0,
                                   fallback_interval=5.0)
        executor.submit(region)
        executor.run()
        assert region.output("out") == 2
        assert region.counts["c2"].updates == flushes
        valve, = region.graph.task("consume").spec.start_valves
        # Launch, the c1 replay, the pick-time validation.
        assert valve.checks + valve.checks_skipped <= 6


# --------------------------------------------------------- failure modes

def make_error_region(name=None):
    class Exploding(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                yield 1.0
                raise ValueError("kapow")

            self.add_task("boom", body, outputs=[out])

    return Exploding(name)


class TestFailureContainment:
    def test_body_exception_surfaces_as_task_body_error(self):
        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(make_error_region("explode"))
        with pytest.raises(TaskBodyError) as info:
            executor.run()
        assert "kapow" in str(info.value)
        assert info.value.task_name == "boom"

    def test_failed_runs_are_counted(self):
        region = make_error_region("explode-stats")
        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(region)
        with pytest.raises(TaskBodyError):
            executor.run()
        assert region.graph.task("boom").stats.failed_runs == 1

    def test_crashed_worker_is_detected(self):
        class Crashing(FluidRegion):
            def build(self):
                out = self.add_data("out", 0)

                def body(ctx):
                    yield 1.0
                    os._exit(13)

                self.add_task("crash", body, outputs=[out])

        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(Crashing("crasher"))
        with pytest.raises(SchedulerError) as info:
            executor.run()
        assert "died" in str(info.value)

    def test_timeout_raises_with_diagnosis(self):
        class Stuck(FluidRegion):
            def build(self):
                out = self.add_data("out", 0)

                def body(ctx):
                    while True:
                        time.sleep(0.01)
                        yield 1.0

                self.add_task("spin", body, outputs=[out],
                              end_valves=[NeverValve()])

        executor = ProcessExecutor(workers=1, timeout=1.0)
        executor.submit(Stuck("stuck"))
        with pytest.raises(SchedulerError) as info:
            executor.run()
        assert "timed out" in str(info.value)

    def test_dynamic_spawn_is_rejected(self):
        class Spawner(FluidRegion):
            def build(self):
                out = self.add_data("out", 0)

                def body(ctx):
                    yield 1.0
                    ctx.spawn("child", lambda c: iter(()), outputs=[])
                    yield 1.0

                self.add_task("spawner", body, outputs=[out])

        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(Spawner("spawn"))
        with pytest.raises(TaskBodyError):
            executor.run()

    def test_executors_are_single_shot(self):
        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(make_pipeline(n=5, name="once"))
        executor.run()
        with pytest.raises(SchedulerError):
            executor.run()

    def test_zero_workers_rejected(self):
        with pytest.raises(SchedulerError):
            ProcessExecutor(workers=0)


# ----------------------------------------------------------- cancellation

class TestCancellation:
    def test_early_termination_cancels_running_producer(self):
        # The consumer completes from a partial read; the producer's
        # still-running rerun becomes pointless and is cancelled.
        class Early(FluidRegion):
            def build(self):
                n = 40
                src = self.input_data("src", list(range(n)))
                mid = self.add_array("mid", [0] * n)
                out = self.add_array("out", [0] * n)
                ct = self.add_count("ct")

                def produce(ctx):
                    for i in range(n):
                        mid[i] = src.read()[i]
                        ct.add()
                        time.sleep(0.004)
                        yield 1.0

                def consume(ctx):
                    for i in range(n):
                        out[i] = mid[i]
                        yield 0.5

                self.add_task("produce", produce, inputs=[src],
                              outputs=[mid])
                self.add_task("consume", consume,
                              start_valves=[PercentValve(ct, 0.2, n)],
                              end_valves=[PercentValve(ct, 0.5, n)],
                              inputs=[mid], outputs=[out])

        region = Early("early")
        executor = ProcessExecutor(workers=2, timeout=30,
                                   flush_interval=0.002)
        executor.submit(region)
        executor.run()
        assert region.complete
        produce = region.graph.task("produce")
        # The producer either finished or had its tail cancelled, but the
        # region completed early regardless.
        assert produce.stats.runs + produce.stats.cancelled_runs >= 1


# ------------------------------------------------------- factory and bench

class TestFactoryAndBench:
    def test_make_executor_builds_each_backend(self):
        from repro import SimExecutor, ThreadExecutor
        assert isinstance(make_executor("sim", cores=2), SimExecutor)
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process", workers=1),
                          ProcessExecutor)

    def test_make_executor_rejects_unknown_names(self):
        with pytest.raises(SchedulerError):
            make_executor("gpu")

    def test_backend_bench_outputs_match(self):
        from repro.bench.harness import run_backend_bench
        row = run_backend_bench(backend="process", workers=2, tasks=2,
                                scale=0.01)
        assert row.outputs_match
        assert row.thread_seconds > 0 and row.backend_seconds > 0
        assert row.speedup > 0

    def test_backend_bench_rejects_simulator(self):
        from repro.bench.harness import run_backend_bench
        with pytest.raises(ValueError):
            run_backend_bench(backend="sim")

    def test_bench_cli_process_smoke(self, capsys):
        from repro.bench.__main__ import main as bench_main
        assert bench_main(["--backend", "process", "--scale", "0.01",
                           "--tasks", "2", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs thread" in out
        assert "process" in out

    def test_run_fluid_accepts_thread_backend(self):
        # The app protocol routes non-sim backends through make_executor;
        # wall-clock makespans replace virtual time.
        from repro.apps.fft import FFTApp
        from repro.workloads import random_vector
        app = FFTApp([random_vector(256, seed=3)])
        run = app.run_fluid(threshold=1.0, backend="thread")
        assert run.error <= 0.05
        assert run.makespan > 0


# -------------------------------------------------- shared-memory regions

class TestSharedMemoryRegions:
    def test_large_numpy_outputs_round_trip(self):
        rows = 256
        class Big(FluidRegion):
            def build(self):
                src = self.input_data(
                    "src", np.arange(rows * 64, dtype=np.float64)
                    .reshape(rows, 64))
                out = self.add_array("out", np.zeros((rows, 64)))

                def body(ctx):
                    data = src.read()
                    for i in range(rows):
                        out[i] = data[i] * 3.0
                        if i % 32 == 0:
                            yield 1.0
                    yield 1.0

                self.add_task("scale", body, inputs=[src], outputs=[out])

        region = Big("big")
        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(region)
        executor.run()
        expected = np.arange(rows * 64, dtype=np.float64).reshape(rows, 64) * 3
        assert np.array_equal(region.output("out"), expected)

    def test_multi_region_after_clause(self):
        first = make_pipeline(n=10, name="first")
        second = make_pipeline(n=10, name="second")
        executor = ProcessExecutor(workers=2, timeout=30)
        executor.submit(first)
        executor.submit(second, after=[first])
        executor.run()
        assert first.output("out") == pipeline_expected(10)
        assert second.output("out") == pipeline_expected(10)


class TestShutdownDeadline:
    def test_hung_workers_share_one_shutdown_deadline(self, monkeypatch):
        # Satellite regression: teardown joined each worker for 0.5s
        # sequentially, so a wedged 4-worker pool took >= 2s to tear
        # down.  The graceful pass shares one 0.5s deadline and
        # stragglers are terminated in one batch.  The pool owns worker
        # teardown (the executor's private pool closes the same way).
        from repro.runtime import worker_pool

        def hung_worker(*_args):
            while True:  # pragma: no cover - runs in the forked child
                time.sleep(60)

        monkeypatch.setattr(worker_pool, "_pool_worker_main", hung_worker)
        pool = worker_pool.PersistentProcessPool(workers=4)
        assert all(pool.alive())
        start = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - start
        assert not any(pool.alive()), "hung workers survived shutdown"
        assert elapsed < 1.8, \
            f"shutdown took {elapsed:.2f}s; the graceful join must " \
            "share one deadline across workers, not 0.5s each"
