"""Persistent worker pools: reuse, crash respawn, batched-dispatch parity.

PID stability is the pool's whole point — ``FluidService`` requests and
``repro.stream`` windows must stop forking a fresh worker set per run —
so these tests read ``os.getpid()`` out of worker-run task bodies and
assert the processes stay put.  Crash recovery gets its own regression
tests because it leans on fragile OS detail.
"""

import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.region import FluidRegion
from repro.core.valves import DataFinalValve
from repro.runtime import (PersistentProcessPool, ProcessExecutor,
                           SimExecutor, ThreadExecutor, pool_blob)
from repro.runtime.context import RunContext
from repro.service.pools import OneShotPool
from repro.stream import Pipeline, Stage
from repro.telemetry import Telemetry

from util import make_pipeline, pipeline_expected, shm_names


# ------------------------------------------------------- region factories

def make_pid_region(name="pids", tasks=2):
    """Every task writes its worker's PID to its own output cell."""

    class _Pids(FluidRegion):
        def build(self):
            token = self.add_data("token", 0)

            def header(ctx):
                token.write(1)
                yield 1.0

            self.add_task("header", header, inputs=[], outputs=[token])
            for index in range(tasks):
                out = self.add_data(f"pid_{index}", 0)

                def body(ctx, out=out):
                    out.write(os.getpid())
                    yield 1.0

                self.add_task(f"t{index}", body,
                              start_valves=[DataFinalValve(token)],
                              inputs=[token], outputs=[out])

    region = _Pids(name)
    region.remote_factory = (make_pid_region, (name, tasks), {})
    return region


def make_crasher_region(flag_path, name="crasher"):
    """The body hard-kills its worker once (gated on a flag file), so
    the retry after the respawn completes normally."""

    class _Crasher(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                if not os.path.exists(flag_path):
                    with open(flag_path, "w") as handle:
                        handle.write("crashed")
                    os._exit(13)
                out.write(42)
                yield 1.0

            self.add_task("boom", body, inputs=[], outputs=[out])

    region = _Crasher(name)
    region.remote_factory = (make_crasher_region, (flag_path, name), {})
    return region


def make_big_crasher_region(flag_path, name="big-crasher"):
    """``big`` returns a 512 KiB array (through its worker's result
    arena); ``boom``, gated on it and so run by the same one-worker pool,
    kills that worker once."""
    region = FluidRegion(name)
    big = region.add_data("big", None)
    out = region.add_data("out", 0.0)

    def produce(ctx):
        big.write(np.ones(65536))
        yield 1.0

    def boom(ctx):
        if not os.path.exists(flag_path):
            with open(flag_path, "w") as handle:
                handle.write("crashed")
            os._exit(13)
        out.write(float(big.read().sum()))
        yield 1.0

    region.add_task("big", produce, outputs=[big])
    region.add_task("boom", boom, inputs=[big], outputs=[out],
                    start_valves=[DataFinalValve(big)])
    region.remote_factory = (make_big_crasher_region, (flag_path, name), {})
    return region


#: One count record per chunk of the streaming body: larger than a
#: socket buffer, so each flush blocks its worker until the parent reads.
STREAM_BYTES = 256 * 1024
STREAM_CHUNKS = 4


def make_streamer_region(flag_path, kill_after, name="streamer"):
    """``stream`` flushes one ``STREAM_BYTES`` count record per chunk (run
    it with ``flush_interval=0``), then writes ``out``.  Its first run,
    gated on a flag file, has a timer thread SIGKILL its worker
    ``kill_after`` seconds in, while the body is sending; the retry on
    the replacement worker streams to the end."""
    region = FluidRegion(name)
    blob = region.add_count("blob", b"")
    out = region.add_data("out", 0)

    def stream(ctx):
        if not os.path.exists(flag_path):
            with open(flag_path, "w") as handle:
                handle.write("killed")
            threading.Timer(kill_after, os.kill,
                            (os.getpid(), signal.SIGKILL)).start()
        for chunk in range(STREAM_CHUNKS):
            blob.set(bytes([chunk]) * STREAM_BYTES)
            yield 1.0
        out.write(len(blob.value) * STREAM_CHUNKS)
        yield 1.0

    region.add_task("stream", stream, outputs=[out])
    region.remote_factory = (make_streamer_region,
                             (flag_path, kill_after, name), {})
    return region


def make_sleeper_region(name, seconds, value):
    """One task sleeps ``seconds``, then writes ``value`` to ``out``."""
    region = FluidRegion(name)
    out = region.add_data("out", 0)

    def sleep(ctx):
        time.sleep(seconds)
        out.write(value)
        yield 1.0

    region.add_task("sleep", sleep, outputs=[out])
    region.remote_factory = (make_sleeper_region, (name, seconds, value), {})
    return region


def make_payload_region(name, elems):
    """Two producers start together, one per worker of a two-worker
    pool, and each writes an ``elems``-long array; two consumers read
    both, so every run ships one array each way on each worker.  The
    array cells are named after the region, so no two runs share an
    arena slot key."""
    region = FluidRegion(name)
    token = region.add_data("token", 0)

    def header(ctx):
        token.write(1)
        yield 1.0

    region.add_task("header", header, outputs=[token])
    arrays = [region.add_data(f"{name}.a{index}", None)
              for index in range(2)]
    for index, cell in enumerate(arrays):

        def produce(ctx, cell=cell, value=float(index + 1)):
            cell.write(np.full(elems, value))
            yield 1.0

        region.add_task(f"p{index}", produce, inputs=[token], outputs=[cell],
                        start_valves=[DataFinalValve(token)])
    for index in range(2):
        out = region.add_data(f"sum{index}", None)

        def consume(ctx, out=out):
            out.write(float(arrays[0].read().sum() + arrays[1].read().sum()))
            yield 1.0

        region.add_task(f"c{index}", consume, inputs=arrays, outputs=[out],
                        start_valves=[DataFinalValve(cell)
                                      for cell in arrays])
    region.remote_factory = (make_payload_region, (name, elems), {})
    return region


def make_pooled_pipeline(n=30, name=None):
    """tests.util.make_pipeline with a factory so pools accept it."""
    region = make_pipeline(n=n, exact_quality=True, name=name)
    region.remote_factory = (make_pipeline, (n,),
                             {"exact_quality": True, "name": name})
    return region


def _pid_stage(state, seq, value):
    return state, (value, os.getpid())


# ------------------------------------------------------------- pool_blob

class TestPoolBlob:
    def test_fork_only_region_has_no_blob(self):
        assert pool_blob(make_pipeline(n=5)) is None

    def test_factory_region_pickles(self):
        blob = pool_blob(make_pid_region())
        assert isinstance(blob, bytes) and blob

    def test_unpicklable_factory_is_refused(self):
        region = make_pid_region()
        region.remote_factory = (lambda: region, (), {})
        assert pool_blob(region) is None


# ----------------------------------------------------------- pool reuse

class TestPoolReuse:
    def test_worker_pids_stable_across_sequential_runs(self):
        with PersistentProcessPool(workers=2) as pool:
            before = [process.pid for process in pool.processes]
            observed = set()
            for round_index in range(3):
                region = make_pid_region(name=f"pids{round_index}", tasks=4)
                executor = ProcessExecutor(timeout=60, pool=pool)
                executor.submit(region)
                executor.run()
                observed.update(region.output(f"pid_{index}")
                                for index in range(4))
            assert [process.pid for process in pool.processes] == before
            assert observed <= set(before)

    def test_pool_runs_full_pipeline_semantics(self):
        with PersistentProcessPool(workers=2) as pool:
            for round_index in range(2):
                region = make_pooled_pipeline(n=30, name=f"p{round_index}")
                executor = ProcessExecutor(timeout=60, pool=pool)
                executor.submit(region)
                executor.run()
                assert region.output("out") == pipeline_expected(30)

    def test_fork_only_region_is_refused_on_a_pool(self):
        from repro.core.errors import SchedulerError

        with PersistentProcessPool(workers=2) as pool:
            executor = ProcessExecutor(timeout=60, pool=pool)
            executor.submit(make_pipeline(n=5))
            with pytest.raises(SchedulerError, match="remote_factory"):
                executor.run()

    def test_lease_is_exclusive_and_close_is_idempotent(self):
        pool = PersistentProcessPool(workers=1)
        try:
            assert pool.lease() is pool
            pool.release()
        finally:
            pool.close()
            pool.close()  # second close is a no-op
        from repro.core.errors import SchedulerError

        with pytest.raises(SchedulerError, match="closed"):
            pool.lease()


# -------------------------------------------------------- crash respawn

class TestRespawn:
    def test_killed_worker_respawned_without_failing_run(self, tmp_path):
        telemetry = Telemetry()
        with PersistentProcessPool(workers=2) as pool:
            region = make_crasher_region(str(tmp_path / "crashed-once"))
            executor = ProcessExecutor(timeout=60, pool=pool,
                                       telemetry=telemetry)
            executor.submit(region)
            executor.run()
            assert region.output("out") == 42
            assert all(pool.alive())
            # The replacement worker serves the next run normally.
            follow_up = make_pid_region(name="after-crash", tasks=2)
            executor = ProcessExecutor(timeout=60, pool=pool)
            executor.submit(follow_up)
            executor.run()
            pids = {follow_up.output(f"pid_{index}") for index in range(2)}
            assert pids <= {process.pid for process in pool.processes}
        assert telemetry.metrics.counters.get(
            "process.worker_respawns", 0) >= 1

    def test_non_pool_executor_still_fails_on_dead_worker(self, tmp_path):
        # Closure-only: the region exists nowhere but in the private
        # pool's forks, so a replacement worker could not run it.
        from repro.core.errors import SchedulerError

        region = make_crasher_region(str(tmp_path / "never-retried"))
        region.remote_factory = None
        executor = ProcessExecutor(workers=2, timeout=60)
        executor.submit(region)
        with pytest.raises(SchedulerError, match="died"):
            executor.run()

    def test_private_pool_respawns_for_a_factory_region(self, tmp_path):
        # Respawn-or-fail follows the region (does it carry a factory
        # blob?), not whether the pool is shared or private.
        telemetry = Telemetry()
        region = make_crasher_region(str(tmp_path / "crashed-once"))
        executor = ProcessExecutor(workers=2, timeout=60,
                                   telemetry=telemetry)
        executor.submit(region)
        executor.run()
        assert region.output("out") == 42
        assert telemetry.metrics.counters.get(
            "process.worker_respawns", 0) == 1


# ------------------------------------------------- shared-memory lifetime

@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="lists POSIX shared memory through /dev/shm")
class TestSharedMemoryLifetime:
    def test_segments_neither_grow_nor_leak_across_leases(self):
        before = shm_names()
        elems_cycle = (8192, 65536, 131072)  # 64 KiB / 512 KiB / 1 MiB
        counts = []
        pool = PersistentProcessPool(workers=2)
        try:
            for lease in range(50):
                elems = elems_cycle[lease % 3]
                region = make_payload_region(f"lease{lease}", elems)
                executor = ProcessExecutor(timeout=60, pool=pool)
                executor.submit(region)
                executor.run()
                assert region.output("sum0") == region.output("sum1") \
                    == 3.0 * elems
                counts.append(len(shm_names() - before))
        finally:
            pool.close()
        assert counts[2] > 0 and set(counts[3:]) == {counts[2]}, counts
        assert shm_names() == before

    def test_a_dead_workers_segments_are_swept(self, tmp_path):
        before = shm_names()
        with PersistentProcessPool(workers=1) as pool:
            dead = pool.processes[0].pid
            region = make_big_crasher_region(str(tmp_path / "crashed-once"))
            executor = ProcessExecutor(timeout=60, pool=pool)
            executor.submit(region)
            executor.run()
            assert region.output("out") == 65536.0
            assert pool.processes[0].pid != dead
            # Result segments are named from the pool and the worker pid.
            assert not [name for name in shm_names() - before
                        if f"-{dead}-" in name]
        assert shm_names() == before


# ------------------------------------------------------ one pipe per worker

class _SendRuleConn:
    """Parent end of a worker's pipe that fails any write to a worker
    still holding an item it has not reported a terminal message for."""

    def __init__(self, conn):
        self.conn = conn
        self.held = 0
        self.sent = []

    def send(self, message):
        assert self.held == 0, \
            f"sent {message!r:.40} to a worker holding {self.held} item(s)"
        if message is not None and message[0] == "runs":
            self.held += len(message[3])
        self.sent.append(message)
        self.conn.send(message)

    def recv(self):
        message = self.conn.recv()
        if message[0] != "progress":
            self.held -= 1
        return message

    def __getattr__(self, name):
        return getattr(self.conn, name)


class TestOnePipePerWorker:
    @pytest.mark.stress
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="lists POSIX shared memory through /dev/shm")
    def test_a_worker_killed_mid_send_never_wedges_the_pool(self, tmp_path):
        """200 times: a worker is SIGKILLed while it sends a flush larger
        than its pipe's buffer.  Its lease still completes on the
        replacement, which serves the next lease correctly."""
        before = shm_names()
        rng = random.Random(31)
        respawns = 0
        with PersistentProcessPool(workers=1) as pool:
            for index in range(200):
                region = make_streamer_region(
                    str(tmp_path / f"killed-{index}"),
                    rng.uniform(0.0, 0.002), name=f"stream{index}")
                telemetry = Telemetry()
                executor = ProcessExecutor(timeout=10, pool=pool,
                                           flush_interval=0,
                                           telemetry=telemetry)
                executor.submit(region)
                executor.run()
                assert region.output("out") == STREAM_BYTES * STREAM_CHUNKS
                respawns += telemetry.metrics.counters.get(
                    "process.worker_respawns", 0)
            follow_up = make_pid_region(name="after-kills", tasks=2)
            executor = ProcessExecutor(timeout=10, pool=pool)
            executor.submit(follow_up)
            executor.run()
            assert {follow_up.output(f"pid_{index}") for index in range(2)} \
                == {pool.processes[0].pid}
        # Most kills land inside the run; a later one is respawned at
        # the lease's reclaim instead.
        assert respawns >= 100, respawns
        assert shm_names() == before

    def test_parent_writes_only_to_a_worker_that_reported_every_item(self):
        """A region launched (``after=``) while the only worker is busy
        gets its install with that slot's next batch, not before."""
        with PersistentProcessPool(workers=1) as pool:
            conn = pool.conns[0] = _SendRuleConn(pool.conns[0])
            first = make_sleeper_region("first", 0.0, 1)
            long = make_sleeper_region("long", 0.3, 2)
            after = make_sleeper_region("after", 0.0, 3)
            executor = ProcessExecutor(timeout=30, pool=pool)
            executor.submit(first)
            executor.submit(long)
            executor.submit(after, after=[first])
            held_at_launch = {}
            launch = executor._launch_region

            def spy(run):
                held_at_launch[run.region.name] = conn.held
                launch(run)

            executor._launch_region = spy
            executor.run()
            assert held_at_launch["after"] == 1  # ``long`` was running
            runs = [message for message in conn.sent
                    if message and message[0] == "runs"]
            index = executor.context.run_for(after).index
            installed = set()
            for _kind, _flush, installs, items in runs:
                installed.update(region_index for region_index, _ in installs)
                if any(item[1] == index for item in items):
                    assert index in installed
                    break
            else:
                pytest.fail("no batch carried the after= region's task")
        assert [first.output("out"), long.output("out"),
                after.output("out")] == [1, 2, 3]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors through /proc/self/fd")
    def test_no_thread_or_descriptor_outlives_the_pool(self, tmp_path):
        """20 leases with 5 worker respawns start no queue feeder thread,
        and ``close()`` leaves the threads and descriptors it found."""
        # multiprocessing keeps some process-wide state (the shared-ctypes
        # heap) from the first pool on: take the census after it exists.
        PersistentProcessPool(workers=1).close()
        threads = set(threading.enumerate())
        descriptors = len(os.listdir("/proc/self/fd"))
        pool = PersistentProcessPool(workers=2)
        pids = set()
        try:
            for lease in range(20):
                if lease % 4 == 3:
                    region = make_crasher_region(
                        str(tmp_path / f"crash-{lease}"), name=f"c{lease}")
                    expected = {"out": 42}
                else:
                    region = make_pid_region(name=f"census{lease}", tasks=2)
                    expected = {}
                pids.update(process.pid for process in pool.processes)
                executor = ProcessExecutor(timeout=60, pool=pool)
                executor.submit(region)
                executor.run()
                for name, value in expected.items():
                    assert region.output(name) == value
                assert not [thread for thread in threading.enumerate()
                            if thread.name == "QueueFeederThread"]
            pids.update(process.pid for process in pool.processes)
        finally:
            pool.close()
        assert len(pids) == 2 + 5  # five replacements
        assert set(threading.enumerate()) == threads
        assert len(os.listdir("/proc/self/fd")) == descriptors


# ------------------------------------------------- batched-dispatch parity

class TestBatchedDispatchParity:
    """Batch size is a transport knob, not a semantics knob."""

    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_outputs_agree_across_backends(self, batch_size):
        sim = SimExecutor(cores=4)
        sim_region = make_pipeline(n=30, exact_quality=True)
        sim.submit(sim_region)
        sim.run()

        thread = ThreadExecutor(timeout=30)
        thread_region = make_pipeline(n=30, exact_quality=True)
        thread.submit(thread_region)
        thread.run()

        process_region = make_pipeline(n=30, exact_quality=True)
        executor = ProcessExecutor(workers=2, timeout=60,
                                   batch_size=batch_size)
        executor.submit(process_region)
        executor.run()

        expected = pipeline_expected(30)
        assert sim_region.output("out") == expected
        assert thread_region.output("out") == expected
        assert process_region.output("out") == expected

    @pytest.mark.parametrize("batch_size", [1, 4, 16])
    def test_serialized_end_verdicts_agree(self, batch_size):
        """Fully serialized, every backend accepts on the first run."""
        regions = []
        for build in (
                lambda: self._run_sim(),
                lambda: self._run_thread(),
                lambda: self._run_process(batch_size)):
            regions.append(build())
        for region in regions:
            consume = region.graph.task("consume")
            assert consume.stats.runs == 1
            assert consume.stats.quality_failures == 0

    @staticmethod
    def _serialized_region():
        return make_pipeline(n=20, start_fraction=1.0, exact_quality=True)

    def _run_sim(self):
        executor = SimExecutor(cores=4)
        region = self._serialized_region()
        executor.submit(region)
        executor.run()
        return region

    def _run_thread(self):
        executor = ThreadExecutor(timeout=30)
        region = self._serialized_region()
        executor.submit(region)
        executor.run()
        return region

    def _run_process(self, batch_size):
        executor = ProcessExecutor(workers=2, timeout=60,
                                   batch_size=batch_size)
        region = self._serialized_region()
        executor.submit(region)
        executor.run()
        return region

    def test_batch_telemetry_counters(self):
        telemetry = Telemetry()
        region = make_pid_region(name="batched", tasks=8)
        executor = ProcessExecutor(workers=2, timeout=60, batch_size=8,
                                   telemetry=telemetry)
        executor.submit(region)
        executor.run()
        counters = telemetry.metrics.counters
        assert counters.get("process.dispatch_batches", 0) >= 1
        assert "process.batch_size" in telemetry.metrics.histograms
        # Batching coalesces: strictly fewer round-trips than tasks.
        assert counters["process.dispatch_batches"] <= \
            counters["process.dispatches"]


# ----------------------------------------------------- service pool reuse

class TestServicePoolReuse:
    def _run_ctx(self, pool, region):
        ctx = RunContext(label=region.name)
        ctx.submit(region)
        pool.start(ctx)
        assert ctx.finished.wait(timeout=60)
        if ctx.body_error is not None:
            raise ctx.body_error
        return ctx

    def test_sequential_requests_share_worker_pids(self):
        service_pool = OneShotPool("process", workers=1,
                                   executor_options={"workers": 2})
        try:
            pids = []
            for index in range(2):
                region = make_pid_region(name=f"req{index}", tasks=4)
                self._run_ctx(service_pool, region)
                pids.append({region.output(f"pid_{i}") for i in range(4)})
            assert service_pool._process_pool is not None
            assert pids[0] == pids[1]
        finally:
            service_pool.shutdown()
        assert service_pool._process_pool is None

    def test_fork_only_regions_keep_legacy_path(self):
        service_pool = OneShotPool("process", workers=1,
                                   executor_options={"workers": 2})
        try:
            region = make_pipeline(n=10, exact_quality=True, name="legacy")
            self._run_ctx(service_pool, region)
            assert region.output("out") == pipeline_expected(10)
            assert service_pool._process_pool is None
        finally:
            service_pool.shutdown()


# ------------------------------------------------------ stream pool reuse

class TestStreamPoolReuse:
    def test_windows_share_worker_pids(self):
        pipeline = Pipeline([Stage("pid", _pid_stage, cost=0.1)],
                            window=4, name="pidstream")
        result = pipeline.run(range(12), backend="process", workers=2)
        assert result.delivered == 12
        pids = {pid for _value, pid in result.outputs.values()}
        # One persistent pool across all 3 windows: at most ``workers``
        # distinct PIDs ever touch a stage body.
        assert 1 <= len(pids) <= 2

    def test_unpicklable_must_falls_back_to_forks(self):
        pipeline = Pipeline([Stage("pid", _pid_stage, cost=0.1)],
                            window=4, name="lambdamust",
                            must=lambda seq: False)
        result = pipeline.run(range(8), backend="process", workers=2)
        assert result.delivered == 8
        assert {value for value, _pid in result.outputs.values()} == \
            set(range(8))
