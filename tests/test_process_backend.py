"""Process-backend specifics: the payload/count wire protocol, worker
failure containment, timeouts, cancellation, and the real-core bench.

Parity with the other backends is covered by test_backend_parity; this
file tests what is unique to running bodies out-of-process.
"""

import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import (FluidRegion, NeverValve, PercentValve, ProcessExecutor,
                   SchedulerError, TaskBodyError, make_executor, run_serial)
from repro.core import graph
from repro.core.count import Count, ImmediateSink, RecordingSink
from repro.core.data import (PAYLOAD_SHM_MIN_BYTES, ArenaSlotPayload,
                             FluidData, InlinePayload, PayloadArena,
                             export_payload, import_payload)
from repro.core.valves import DataFinalValve
from repro.runtime import process_backend
from repro.runtime.worker_pool import PersistentProcessPool
from repro.telemetry import Telemetry

from util import (make_count_flusher_region, make_pipeline, pipeline_expected,
                  shm_names, with_factory)


# ------------------------------------------------------- payload protocol

class TestPayloadProtocol:
    def test_small_values_travel_inline(self):
        handle = export_payload([1, 2, 3])
        assert isinstance(handle, InlinePayload)
        assert import_payload(handle) == [1, 2, 3]

    def test_small_arrays_travel_inline(self):
        array = np.arange(16, dtype=np.float64)
        with_arena = PayloadArena()
        try:
            for handle in (export_payload(array),
                           export_payload(array, with_arena, "k")):
                assert isinstance(handle, InlinePayload)
                assert np.array_equal(import_payload(handle), array)
            assert with_arena.segment_count == 0
        finally:
            with_arena.close()

    def test_large_arrays_travel_through_shared_memory(self):
        array = np.arange(PAYLOAD_SHM_MIN_BYTES, dtype=np.uint8)
        arena = PayloadArena()
        try:
            handle = export_payload(array, arena, "k")
            assert isinstance(handle, ArenaSlotPayload)
            out = import_payload(handle)
            assert np.array_equal(out, array)
            assert out.dtype == array.dtype
        finally:
            arena.close()

    def test_shared_memory_preserves_shape_and_dtype(self):
        array = np.arange(128 * 256, dtype=np.float32).reshape(128, 256)
        arena = PayloadArena()
        try:
            handle = export_payload(array, arena, "k")
            assert isinstance(handle, ArenaSlotPayload)
            out = import_payload(handle)
            assert out.shape == (128, 256) and out.dtype == np.float32
            assert np.array_equal(out, array)
        finally:
            arena.close()

    def test_close_releases_every_segment(self):
        arena = PayloadArena(min_segment_bytes=1 << 16)
        handles = [arena.export(key, np.zeros(8192)) for key in "abc"]
        assert arena.segment_count == 3
        arena.close()
        from multiprocessing import shared_memory

        for handle in handles:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=handle.shm_name)

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


def make_quiet_consumer_region(flushes, name="quiet-consumer"):
    """``noisy`` flushes ``flushes`` count updates nobody waits on while
    ``gate`` works; ``consume`` waits on ``gate``'s count alone."""

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
            for task, body, cell in (("noisy", noisy, noise),
                                     ("gate", gate, gated)):
                self.add_task(task, body, inputs=[go], outputs=[cell],
                              start_valves=[DataFinalValve(go)])
            self.add_task("consume", consume, inputs=[gated],
                          outputs=[out],
                          start_valves=[PercentValve(c1, 1.0, 1)])

    return with_factory(Region(name), make_quiet_consumer_region,
                        flushes=flushes)


class TestWakeRule:
    @pytest.mark.usefixtures("every_chunk_flushes")
    def test_unrelated_flushes_do_not_recheck_a_parked_consumer(
            self, monkeypatch):
        """A count-gated consumer is re-evaluated when *its* count is
        replayed, not on every flush another task sends."""
        flushes = 30
        region = make_quiet_consumer_region(flushes)
        # Every chunk boundary that has something to say is a message;
        # a long fallback keeps the safety net out.
        monkeypatch.setattr(process_backend, "_FALLBACK_INTERVAL", 5.0)
        executor = ProcessExecutor(workers=2, timeout=60)
        executor.submit(region)
        executor.run()
        assert region.output("out") == 2
        assert region.counts["c2"].updates == flushes
        valve, = region.graph.task("consume").spec.start_valves
        # Launch, the c1 replay, the pick-time validation.
        assert valve.checks <= 6


class LoopLog(ProcessExecutor):
    """Logs the control loop: each drain, each applied message and each
    dispatched batch, in order, with the parent's clock."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []

    def _drain_events(self):
        self.log.append(("drain", None, time.perf_counter()))
        super()._drain_events()

    def _apply_event(self, message):
        kind, _slot, _id, region_index, task_index = message[:5]
        task = self._ctx.runs[region_index].region.tasks[task_index]
        super()._apply_event(message)
        self.log.append((kind, task.name, time.perf_counter()))

    def _send_batch(self, slot, tasks, fresh=True):
        for task in tasks:
            self.log.append(("send", task.name, time.perf_counter()))
        super()._send_batch(slot, tasks, fresh)

    def first(self, kind, name):
        return next(index for index, (k, n, _t) in enumerate(self.log)
                    if (k, n) == (kind, name))


@pytest.mark.usefixtures("every_chunk_flushes")
class TestRepollRule:
    """The records no count can open are re-polled after a drained batch
    that changed a cell, not after a count-only flush."""

    def test_count_only_flushes_do_not_repoll_a_final_gated_consumer(
            self, monkeypatch):
        flushes = 40
        # The safety net stays out: every re-poll here is a message's.
        monkeypatch.setattr(process_backend, "_FALLBACK_INTERVAL", 5.0)
        region = make_count_flusher_region(flushes, 0.0)
        executor = LoopLog(workers=2, timeout=60)
        executor.submit(region)
        executor.run()
        assert region.output("final_out") == flushes
        assert region.counts["ticks"].updates == flushes
        assert sum(1 for kind, name, _t in executor.log
                   if (kind, name) == ("progress", "produce")) >= flushes // 2
        valve, = region.graph.task("final").spec.start_valves
        # Launch, the re-poll after ``produce``'s _FINISHED, the pick.
        assert valve.checks <= 3, valve.checks
        # Dispatched in the loop iteration that applied the _FINISHED.
        finished = executor.first("finished", "produce")
        sent = executor.first("send", "final")
        assert finished < sent
        assert all(kind != "drain"
                   for kind, _n, _t in executor.log[finished:sent])
        assert executor.log[sent][2] - executor.log[finished][2] < 1.0

    def test_an_opaque_consumer_still_opens_through_the_fallback(
            self, monkeypatch):
        flushes = 10
        monkeypatch.setattr(process_backend, "_FALLBACK_INTERVAL", 0.05)
        region = make_count_flusher_region(flushes, 1.0)
        executor = LoopLog(workers=2, timeout=60)
        executor.submit(region)
        executor.run()
        assert region.output("final_out") == flushes
        # Only the fallback re-polls while ``produce`` is quiet, and the
        # count the predicate reads was in before it went quiet.
        assert executor.first("send", "opaque") < \
            executor.first("finished", "produce")


# ------------------------------------------------------- worker install

FAN_TASKS = 16


def make_fan_region(epoch, name="fan"):
    """``distribute`` writes a block; 16 ``crunch`` tasks gated on it by
    ``DataFinalValve`` read their element of it and ``scale``, a cell no
    task produces, and record whether ``scale`` was final."""
    region = FluidRegion(name)
    block = region.add_data("block", None)
    scale = region.add_data("scale", 3)

    def distribute(ctx):
        block.write([epoch + index for index in range(FAN_TASKS)])
        yield 1.0

    region.add_task("distribute", distribute, outputs=[block])
    for index in range(FAN_TASKS):
        out = region.add_data(f"out_{index}", None)

        def crunch(ctx, index=index, out=out):
            out.write((block.read()[index] * scale.read(), scale.final))
            yield 1.0

        region.add_task(f"crunch_{index}", crunch,
                        start_valves=[DataFinalValve(block)],
                        inputs=[block, scale], outputs=[out])
    return with_factory(region, make_fan_region, epoch=epoch)


def make_lazy_region(name="lazy"):
    """Tasks declared in ``build()``: ``double`` reads ``base``, which no
    task produces; ``report`` copies its result."""

    class Lazy(FluidRegion):
        def build(self):
            base = self.add_data("base", 5)
            mid = self.add_data("mid", None)
            out = self.add_data("out", None)

            def double(ctx):
                mid.write((2 * base.read(), base.final))
                yield 1.0

            def report(ctx):
                out.write(mid.read())
                yield 1.0

            self.add_task("double", double, inputs=[base], outputs=[mid])
            self.add_task("report", report, inputs=[mid], outputs=[out],
                          start_valves=[DataFinalValve(mid)])

    return with_factory(Lazy(name), make_lazy_region)


class TestWorkerInstall:
    def test_workers_install_regions_without_building_a_graph(
            self, monkeypatch):
        """The parent validates each region at launch; a worker declares
        its tasks and marks its inputs final, and builds no graph."""
        parent = os.getpid()
        graphs_in_workers = multiprocessing.Value("i", 0)
        init = graph.TaskGraph.__init__

        def spy(self, tasks):
            if os.getpid() != parent:
                graphs_in_workers.value += 1
            init(self, tasks)

        # Before the private pool forks, at the executor's first start.
        monkeypatch.setattr(graph.TaskGraph, "__init__", spy)
        fan, lazy = make_fan_region(7), make_lazy_region()
        executor = ProcessExecutor(workers=2, timeout=60)
        executor.submit(fan)
        executor.submit(lazy)
        executor.run()
        assert graphs_in_workers.value == 0
        serial_fan, serial_lazy = make_fan_region(7), make_lazy_region()
        run_serial(serial_fan, serial_lazy)
        outputs = [fan.output(f"out_{index}") for index in range(FAN_TASKS)]
        assert outputs == [serial_fan.output(f"out_{index}")
                           for index in range(FAN_TASKS)]
        assert outputs == [(3 * (7 + index), True)
                           for index in range(FAN_TASKS)]
        assert lazy.output("out") == serial_lazy.output("out") == (10, True)


# --------------------------------------------------------- failure modes

def make_error_region(name=None):
    class Exploding(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                yield 1.0
                raise ValueError("kapow")

            self.add_task("boom", body, outputs=[out])

    return with_factory(Exploding(name), make_error_region)


def make_crashing_region(name="crasher"):
    """The body hard-kills its worker on every run."""

    class Crashing(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                yield 1.0
                os._exit(13)

            self.add_task("crash", body, outputs=[out])

    return with_factory(Crashing(name), make_crashing_region)


def make_stuck_region(name="stuck"):
    """One body that never ends and a quality bar it never meets."""

    class Stuck(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                while True:
                    time.sleep(0.01)
                    yield 1.0

            self.add_task("spin", body, outputs=[out],
                          end_valves=[NeverValve()])

    return with_factory(Stuck(name), make_stuck_region)


def make_spawner_region(name="spawn"):
    """A body that spawns a dynamic task."""

    class Spawner(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                yield 1.0
                ctx.spawn("child", lambda c: iter(()), outputs=[])
                yield 1.0

            self.add_task("spawner", body, outputs=[out])

    return with_factory(Spawner(name), make_spawner_region)


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
        # Each death is detected, respawned and re-dispatched, until the
        # slot's respawn budget runs out.
        telemetry = Telemetry()
        executor = ProcessExecutor(workers=1, timeout=30,
                                   telemetry=telemetry)
        executor.submit(make_crashing_region())
        with pytest.raises(SchedulerError, match="exit code 13"):
            executor.run()
        assert telemetry.metrics.counters["process.worker_respawns"] == \
            process_backend._MAX_RESPAWNS

    def test_timeout_raises_with_diagnosis(self):
        executor = ProcessExecutor(workers=1, timeout=1.0)
        executor.submit(make_stuck_region())
        with pytest.raises(SchedulerError) as info:
            executor.run()
        assert "timed out" in str(info.value)

    def test_dynamic_spawn_is_rejected(self):
        executor = ProcessExecutor(workers=1, timeout=30)
        executor.submit(make_spawner_region())
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


def make_self_killer_region(flag_path, name="self-killer"):
    """``head`` releases four leaves at once, two per batch on a
    two-worker pool; ``leaf_0`` SIGKILLs its own worker mid-body once
    (gated on a flag file), so the retry completes."""
    region = FluidRegion(name)
    go = region.add_data("go", None)

    def head(ctx):
        go.write(1)
        yield 1.0

    region.add_task("head", head, outputs=[go])
    for index in range(4):
        out = region.add_data(f"out_{index}", None)

        def leaf(ctx, index=index, out=out):
            yield 1.0
            if index == 0 and not os.path.exists(flag_path):
                with open(flag_path, "w") as handle:
                    handle.write("killed")
                os.kill(os.getpid(), signal.SIGKILL)
            out.write(go.read() + index)
            yield 1.0

        region.add_task(f"leaf_{index}", leaf, inputs=[go], outputs=[out],
                        start_valves=[DataFinalValve(go)])
    return with_factory(region, make_self_killer_region,
                        flag_path=flag_path)


def make_idle_killer_region(victims, hold, name="idle-killer"):
    """``hold`` SIGKILLs every pid of ``victims`` but its own worker's,
    then holds its worker ``hold`` seconds inside one chunk."""
    region = FluidRegion(name)
    out = region.add_data("out", None)

    def body(ctx):
        for pid in victims:
            if pid != os.getpid():
                os.kill(pid, signal.SIGKILL)
        time.sleep(hold)
        out.write(os.getpid())
        yield 1.0

    region.add_task("hold", body, outputs=[out])
    return with_factory(region, make_idle_killer_region, victims=victims,
                        hold=hold)


class LoopCPU(ProcessExecutor):
    """Measures the parent's CPU time from ``start`` to the lease's
    reclaim (whose respawns fork, which costs the parent CPU)."""

    def start(self, ctx):
        self.loop_cpu = time.process_time()
        super().start(ctx)

    def _release_pool(self):
        self.loop_cpu = time.process_time() - self.loop_cpu
        super()._release_pool()


class TestLivenessFromSentinels:
    """A worker's liveness is read when its sentinel fires."""

    def test_a_busy_worker_killed_mid_body_is_respawned(self, tmp_path):
        telemetry = Telemetry()
        with PersistentProcessPool(workers=2) as pool:
            region = make_self_killer_region(str(tmp_path / "killed"))
            executor = ProcessExecutor(pool=pool, timeout=60,
                                       telemetry=telemetry)
            executor.submit(region)
            executor.run()
            assert [region.output(f"out_{index}") for index in range(4)] \
                == [1, 2, 3, 4]
            assert all(pool.alive())
        assert telemetry.metrics.counters["process.worker_respawns"] == 1

    def test_an_idle_worker_killed_mid_run_does_not_spin_the_parent(self):
        """Only busy slots are waited on: an idle dead worker's sentinel,
        always readable, would turn the wait into a spin.  The slot is
        respawned when the lease is reclaimed."""
        hold = 0.5
        with PersistentProcessPool(workers=2) as pool:

            def run(victims, name):
                region = make_idle_killer_region(victims, hold, name=name)
                executor = LoopCPU(pool=pool, timeout=60)
                executor.submit(region)
                executor.run()
                return region, executor.loop_cpu

            run([], "warm-up")
            _calm, calm_before = run([], "calm-before")
            pids = [process.pid for process in pool.processes]
            region, killed_cpu = run(pids, "killed")
            victim, = set(pids) - {region.output("out")}
            assert all(pool.alive())
            assert victim not in {process.pid for process in pool.processes}
            _calm, calm_after = run([], "calm-after")
            calm_cpu = max(calm_before, calm_after)
            assert killed_cpu <= 2 * calm_cpu, (killed_cpu, calm_cpu)


# ----------------------------------------------------------- cancellation

def make_early_region(name="early", n=40, pace=0.004):
    """The consumer completes once half the producer's count is in, so
    the producer's still-running body becomes pointless."""

    class Early(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            mid = self.add_array("mid", [0] * n)
            out = self.add_array("out", [0] * n)
            ct = self.add_count("ct")

            def produce(ctx):
                for i in range(n):
                    mid[i] = src.read()[i]
                    ct.add()
                    time.sleep(pace)
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

    return with_factory(Early(name), make_early_region, n=n, pace=pace)


class TestCancellation:
    def test_early_termination_cancels_running_producer(self, monkeypatch):
        # The consumer completes from a partial read; the producer's
        # still-running rerun becomes pointless and is cancelled.
        monkeypatch.setattr(process_backend, "FLUSH_INTERVAL", 0.002)
        region = make_early_region()
        executor = ProcessExecutor(workers=2, timeout=30)
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

def make_big_region(rows, name="big"):
    """One body triples a ``rows`` x 64 float array into ``out``."""

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

    return with_factory(Big(name), make_big_region, rows=rows)


class TestSharedMemoryRegions:
    def test_large_numpy_outputs_round_trip(self):
        rows = 256
        region = make_big_region(rows)
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


# ------------------------------------------------ payload arena contracts

#: 64 KiB of float64: the smallest array that takes an arena slot.
FINAL_ELEMS = PAYLOAD_SHM_MIN_BYTES // 8
FINAL_CHUNKS = 6


def final_block(chunk):
    return np.arange(FINAL_ELEMS, dtype=np.float64) + 1000.0 * chunk


def make_final_read_region(name):
    """``produce`` rewrites a 64 KiB array on every chunk; two consumers
    gated on its final value record a digest of what they read.  The two
    consumers start together, one on each of two workers: one reads the
    producer's worker-local copy, the other the parent's copy."""
    region = FluidRegion(name)
    block = region.add_data("block", None)

    def produce(ctx):
        for chunk in range(FINAL_CHUNKS):
            block.write(final_block(chunk))
            yield 1.0

    region.add_task("produce", produce, outputs=[block])
    for index in range(2):
        seen = region.add_data(f"seen_{index}", None)

        def consume(ctx, seen=seen):
            seen.write(hashlib.sha256(block.read().tobytes()).hexdigest())
            yield 1.0

        region.add_task(f"consume_{index}", consume, inputs=[block],
                        outputs=[seen], start_valves=[DataFinalValve(block)])
    region.remote_factory = (make_final_read_region, (name,), {})
    return region


def final_read_mismatches(runs):
    """Pooled runs in which the parent's final copy of ``block``, or a
    consumer's view of it, differed from the producer's last write."""
    final = final_block(FINAL_CHUNKS - 1)
    digest = hashlib.sha256(final.tobytes()).hexdigest()
    mismatches = 0
    with PersistentProcessPool(workers=2) as pool:
        for index in range(runs):
            region = make_final_read_region(f"final{index}")
            # Run under ``every_chunk_flushes``: the parent is reading
            # the slot while the worker keeps rewriting it.
            executor = ProcessExecutor(pool=pool, timeout=60)
            executor.submit(region)
            executor.run()
            if not np.array_equal(region.output("block"), final) or \
                    {region.output(f"seen_{i}") for i in range(2)} != \
                    {digest}:
                mismatches += 1
    return mismatches


@pytest.mark.usefixtures("every_chunk_flushes")
class TestFinalReadsNeverTorn:
    """The arena's relaxation bound, both directions: a non-final read
    may be torn or fresher than its message, a final read is exact."""

    def test_consumers_of_a_final_cell_see_its_final_bytes(self):
        assert final_read_mismatches(50) == 0

    def test_a_worker_rewriting_its_slot_after_finishing_is_caught(
            self, monkeypatch):
        run_body = process_backend._WorkerLoop._run_body

        def rewrite_after_finished(loop, flush_interval, dispatch_id,
                                   region_index, task_index, run_index,
                                   task):
            run_body(loop, flush_interval, dispatch_id, region_index,
                     task_index, run_index, task)
            for data in task.spec.outputs:
                loop.arena.export((region_index, data.name),
                                  final_block(FINAL_CHUNKS))

        # Patched before the pool forks, so the workers inherit it.
        monkeypatch.setattr(process_backend._WorkerLoop, "_run_body",
                            rewrite_after_finished)
        assert final_read_mismatches(50) > 0


class TestShippingMemo:
    def test_a_producer_is_never_sent_its_own_output(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        shipped = []

        def on_event(event):
            if (event.kind, event.name) == ("payload", "to-worker") and \
                    event.task.startswith("consume"):
                shipped.append(event.data["bytes"])

        telemetry.bus.subscribe(on_event)
        region = make_final_read_region("own-output")
        # One worker runs the producer and then both consumers.
        with PersistentProcessPool(workers=1) as pool:
            executor = ProcessExecutor(pool=pool, timeout=60,
                                       telemetry=telemetry)
            executor.submit(region)
            executor.run()
        assert np.array_equal(region.output("block"),
                              final_block(FINAL_CHUNKS - 1))
        assert len(shipped) == 2 and sum(shipped) < FINAL_ELEMS * 8


TRACKER_SCRIPT = textwrap.dedent("""
    from multiprocessing import shared_memory

    import numpy as np

    from repro.core.region import FluidRegion
    from repro.core.valves import DataFinalValve
    from repro.runtime import PersistentProcessPool, ProcessExecutor

    def make_region(epoch):
        region = FluidRegion(f"op{epoch}")
        block = region.add_data("block", None)

        def distribute(ctx):
            block.write(np.full(65536, float(epoch)))  # 512 KiB
            yield 1.0

        region.add_task("distribute", distribute, outputs=[block])
        for index in range(4):
            out = region.add_data(f"out_{index}", None)

            def crunch(ctx, out=out):
                out.write(float(block.read().sum()))
                yield 1.0

            region.add_task(f"crunch_{index}", crunch, inputs=[block],
                            outputs=[out],
                            start_valves=[DataFinalValve(block)])
        region.remote_factory = (make_region, (epoch,), {})
        return region

    # Shared memory touched before the pool forks: the parent's resource
    # tracker is running, and the workers inherit it.
    probe = shared_memory.SharedMemory(create=True, size=4096)
    probe.close()
    probe.unlink()
    with PersistentProcessPool(workers=2) as pool:
        for epoch in range(1, 4):
            region = make_region(epoch)
            executor = ProcessExecutor(pool=pool, timeout=60)
            executor.submit(region)
            executor.run()
            assert region.output("out_3") == 65536.0 * epoch
""")


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="lists POSIX shared memory through /dev/shm")
class TestResourceTracker:
    def test_workers_never_touch_the_owners_registration(self):
        """An attach must not unregister the segment's owner in a tracker
        the workers share with the parent: the owner's unlink would then
        print a ``KeyError`` traceback, and a dead parent would leave
        the arena behind."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        before = shm_names()
        result = subprocess.run([sys.executable, "-c", TRACKER_SCRIPT],
                                env=env, capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr, result.stderr
        assert shm_names() == before
