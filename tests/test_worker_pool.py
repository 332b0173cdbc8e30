"""Persistent worker pools: reuse, crash respawn, batched-dispatch parity.

PID stability is the pool's whole point — ``FluidService`` requests and
``repro.stream`` windows must stop forking a fresh worker set per run —
so these tests read ``os.getpid()`` out of worker-run task bodies and
assert the processes stay put.  Crash recovery gets its own regression
tests because it leans on fragile OS detail.
"""

import multiprocessing
import os
import random
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.errors import SchedulerError, TaskBodyError
from repro.core.region import FluidRegion
from repro.core.valves import DataFinalValve
from repro.runtime import (PersistentProcessPool, ProcessExecutor,
                           SimExecutor, ThreadExecutor, pool_blob)
from repro.runtime.context import RunContext
from repro.service.pools import OneShotPool
from repro.stream import APPS, Pipeline, Stage
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
    it under ``every_chunk_flushes``), then writes ``out``.  Its first run,
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


def make_batch_crasher_region(flag_path, name="batch-crasher", tasks=4):
    """``tasks`` bodies gated on one header, so a one-worker pool gets
    them in one batch; ``t1`` kills its worker once (gated on a flag
    file), after ``t0`` has reported, with ``t2``... still queued."""
    region = FluidRegion(name)
    token = region.add_data("token", 0)

    def header(ctx):
        token.write(1)
        yield 1.0

    region.add_task("header", header, outputs=[token])
    for index in range(tasks):
        out = region.add_data(f"out_{index}", 0)

        def body(ctx, out=out, index=index):
            if index == 1 and not os.path.exists(flag_path):
                with open(flag_path, "w") as handle:
                    handle.write("crashed")
                os._exit(13)
            out.write(index + 1)
            yield 1.0

        region.add_task(f"t{index}", body, inputs=[token], outputs=[out],
                        start_valves=[DataFinalValve(token)])
    region.remote_factory = (make_batch_crasher_region,
                             (flag_path, name, tasks), {})
    return region


def make_abandoned_region(name):
    """``fail`` raises while ``slow``, on the other worker of a two-worker
    pool, is still flushing counts: the run ends with ``slow`` in flight,
    so the lease's reclaim cancels it and drains its messages."""
    region = FluidRegion(name)
    token = region.add_data("token", 0)
    ct = region.add_count("ct")
    done = region.add_data("done", 0)

    def header(ctx):
        token.write(1)
        yield 1.0

    def slow(ctx):
        for _ in range(100):
            time.sleep(0.002)
            ct.add()
            yield 1.0
        done.write(1)

    def fail(ctx):
        time.sleep(0.02)
        yield 1.0
        raise ValueError("abandon the lease")

    region.add_task("header", header, outputs=[token])
    region.add_task("slow", slow, inputs=[token], outputs=[done],
                    start_valves=[DataFinalValve(token)])
    region.add_task("fail", fail, inputs=[token],
                    start_valves=[DataFinalValve(token)])
    region.remote_factory = (make_abandoned_region, (name,), {})
    return region


class InFlightOnlyExecutor(ProcessExecutor):
    """Fails on any worker message that names a dispatch no longer in
    flight, or leaves a message unread at the lease's reclaim.  Dispatch
    ids restart at 1 for every executor, so a message of an earlier
    lease could alias a live dispatch: the reclaim check is what shows
    none survives to be aliased."""

    def __init__(self, **options):
        super().__init__(**options)
        self.applied = 0
        self.held_at_reclaim = 0

    def _apply_event(self, message):
        _kind, slot, dispatch_id, region_index, task_index = message[:5]
        task, dispatched_to = self._inflight.get(dispatch_id, (None, None))
        assert dispatched_to == slot, f"stale: {message[:5]!r}"
        assert self._task_index[id(task)] == (region_index, task_index), \
            f"stale: {message[:5]!r}"
        self.applied += 1
        super()._apply_event(message)

    def _release_pool(self):
        pool = self._pool
        self.held_at_reclaim = sum(map(len, self._slot_ids.values()))
        super()._release_pool()
        # Workers answer "reset" with nothing: every pipe is empty now,
        # unless a worker has died since (its end-of-file is readable;
        # the next lease respawns it).
        for slot in range(self.workers):
            conn = pool.conns[slot]
            if conn.poll(0):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue
                raise AssertionError(
                    f"unread at reclaim on slot {slot}: {message[:5]!r}")


def _pid_stage(state, seq, value):
    return state, (value, os.getpid())


# ------------------------------------------------------------- pool_blob

class TestPoolBlob:
    def test_fork_only_region_has_no_blob(self):
        region = make_pipeline(n=5, name="closure-only")
        region.remote_factory = None
        with pytest.raises(SchedulerError, match="'closure-only'") as info:
            pool_blob(region)
        assert info.value.__cause__ is None

    def test_factory_region_pickles(self):
        blob = pool_blob(make_pid_region())
        assert isinstance(blob, bytes) and blob

    def test_unpicklable_factory_is_refused(self):
        region = make_pid_region(name="lambda-factory")
        region.remote_factory = (lambda: region, (), {})
        with pytest.raises(SchedulerError, match="'lambda-factory'") as info:
            pool_blob(region)
        assert info.value.__cause__ is not None  # the pickling error


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
                region = make_pipeline(n=30, exact_quality=True,
                                       name=f"p{round_index}")
                executor = ProcessExecutor(timeout=60, pool=pool)
                executor.submit(region)
                executor.run()
                assert region.output("out") == pipeline_expected(30)

    def test_fork_only_region_is_refused_on_a_pool(self, tmp_path):
        flag = tmp_path / "ran"
        with PersistentProcessPool(workers=2) as pool:
            executor = ProcessExecutor(timeout=60, pool=pool)
            closure_only = make_pipeline(n=5)
            closure_only.remote_factory = None
            executor.submit(make_crasher_region(str(flag)))
            executor.submit(closure_only)
            with pytest.raises(SchedulerError, match="remote_factory"):
                executor.run()
            # Refused before any body ran, and the pool is still usable.
            assert not flag.exists()
            region = make_pid_region(name="after-refusal")
            executor = ProcessExecutor(timeout=60, pool=pool)
            executor.submit(region)
            executor.run()
            assert region.complete

    def test_a_private_pool_refuses_before_forking(self, tmp_path,
                                                   monkeypatch):
        forks = []
        monkeypatch.setattr(PersistentProcessPool, "_start",
                            lambda pool, slot: forks.append(slot))
        executor = ProcessExecutor(workers=2, timeout=60)
        first = make_crasher_region(str(tmp_path / "ran"))
        closure_only = make_pipeline(n=5, name="no-factory")
        closure_only.remote_factory = None
        executor.submit(first)
        executor.submit(closure_only, after=[first])
        with pytest.raises(SchedulerError, match="'no-factory'"):
            executor.run()
        assert forks == []

    def test_lease_is_exclusive_and_close_is_idempotent(self):
        pool = PersistentProcessPool(workers=1)
        try:
            assert pool.lease() is pool
            pool.release()
        finally:
            pool.close()
            pool.close()  # second close is a no-op
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

    def test_private_pool_respawns_for_a_factory_region(self, tmp_path):
        # A private pool is the same kind of pool as a shared one.
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
    @pytest.mark.usefixtures("every_chunk_flushes")
    def test_a_worker_killed_mid_send_never_wedges_the_pool(self, tmp_path):
        """200 times: a worker is SIGKILLed while it sends a flush larger
        than its pipe's buffer.  Its lease still completes on the
        replacement, which serves the next lease correctly, and no
        message of the dead worker ever reaches the parent."""
        before = shm_names()
        rng = random.Random(31)
        respawns = 0
        with PersistentProcessPool(workers=1) as pool:
            for index in range(200):
                region = make_streamer_region(
                    str(tmp_path / f"killed-{index}"),
                    rng.uniform(0.0, 0.002), name=f"stream{index}")
                telemetry = Telemetry()
                executor = InFlightOnlyExecutor(timeout=10, pool=pool,
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

    def test_a_respawn_mid_batch_applies_no_stale_message(self, tmp_path):
        """The worker dies on the second item of a four-item batch; the
        rest are re-dispatched to its replacement under new ids."""
        telemetry = Telemetry()
        with PersistentProcessPool(workers=1) as pool:
            region = make_batch_crasher_region(str(tmp_path / "crashed"))
            executor = InFlightOnlyExecutor(timeout=30, pool=pool,
                                            telemetry=telemetry)
            executor.submit(region)
            executor.run()
        counters = telemetry.metrics.counters
        assert counters["process.worker_respawns"] == 1
        assert counters["process.dispatch_batches"] >= 3  # header, 4, 3
        assert [region.output(f"out_{index}") for index in range(4)] == \
            [1, 2, 3, 4]
        assert executor.applied > 0

    def test_twenty_lease_reuses_apply_no_stale_message(self):
        """Every lease ends with ``slow`` in flight; the reclaim drains
        its messages, so none reaches the next lease."""
        with PersistentProcessPool(workers=2) as pool:
            for lease in range(20):
                executor = InFlightOnlyExecutor(timeout=30, pool=pool)
                executor.submit(make_abandoned_region(f"abandoned{lease}"))
                with pytest.raises(TaskBodyError, match="abandon"):
                    executor.run()
                assert executor.held_at_reclaim == 1
            region = make_pid_region(name="after-leases", tasks=4)
            executor = InFlightOnlyExecutor(timeout=30, pool=pool)
            executor.submit(region)
            executor.run()
            assert region.complete and executor.applied >= 5

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


class TestForkLock:
    def test_a_concurrent_fork_never_hides_a_workers_end_of_file(
            self, monkeypatch):
        """Two threads build pools at once, each trying to hold a fresh
        pipe until the other has one too.  Under the fork lock they
        cannot (the barrier breaks), so no worker of one pool keeps a
        child end of the other's pipe: each SIGKILLed worker reads as
        end-of-file while the other pool's worker still lives."""
        barrier = threading.Barrier(2, timeout=0.5)
        order = {}
        context = type(multiprocessing.get_context("fork"))
        make_pipe = context.Pipe

        def pipe(self, duplex=True):
            ends = make_pipe(self, duplex)
            try:
                order[threading.current_thread().name] = barrier.wait()
            except threading.BrokenBarrierError:
                pass
            if order.get(threading.current_thread().name) == 1:
                time.sleep(0.2)  # the other thread forks first
            return ends

        monkeypatch.setattr(context, "Pipe", pipe)
        pools = {}

        def build(name):
            pools[name] = PersistentProcessPool(workers=1, name=name)

        threads = [threading.Thread(target=build, args=(name,), name=name)
                   for name in ("race0", "race1")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        monkeypatch.undo()
        try:
            assert barrier.broken and not order
            # Unfenced, the pool whose thread forked second is the one
            # whose pipe the other pool's worker would hold open.
            for name in sorted(pools, key=lambda name: -order.get(name, 0)):
                pool = pools[name]
                os.kill(pool.processes[0].pid, signal.SIGKILL)
                pool.processes[0].join(timeout=5)
                assert not pool.processes[0].is_alive()
                assert pool.conns[0].poll(5), f"{name}: no end-of-file"
                with pytest.raises(EOFError):
                    pool.conns[0].recv()
        finally:
            for pool in pools.values():
                pool.close()


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
        service_pool = OneShotPool("process", executor_options={"workers": 2})
        try:
            pids = []
            for index in range(2):
                region = make_pid_region(name=f"req{index}", tasks=4)
                self._run_ctx(service_pool, region)
                pids.append({region.output(f"pid_{i}") for i in range(4)})
            pool = service_pool.host._private
            assert pool is not None and not pool._closed
            assert pids[0] == pids[1]
        finally:
            service_pool.shutdown()
        assert pool._closed

    def test_closure_only_region_fails_fast(self):
        service_pool = OneShotPool("process", executor_options={"workers": 2})
        try:
            region = make_pipeline(n=10, exact_quality=True,
                                   name="closure-only")
            region.remote_factory = None
            with pytest.raises(SchedulerError, match="'closure-only'"):
                self._run_ctx(service_pool, region)
            # The refused context forked nothing; the next one forks the
            # host's pool.
            assert service_pool.host._private is None
            region = make_pipeline(n=10, exact_quality=True, name="next")
            self._run_ctx(service_pool, region)
            assert region.output("out") == pipeline_expected(10)
            assert service_pool.host._private is not None
        finally:
            service_pool.shutdown()


# ------------------------------------------------------ stream pool reuse

class TestStreamPoolReuse:
    def test_windows_share_worker_pids(self, monkeypatch):
        forks = []
        start = PersistentProcessPool._start

        def counted_start(pool, slot):
            forks.append(slot)
            start(pool, slot)

        monkeypatch.setattr(PersistentProcessPool, "_start", counted_start)
        pidstream = Pipeline([Stage("pid", _pid_stage, cost=0.1)],
                             window=4, name="pidstream")
        logagg = APPS["logagg"]
        results = {}
        for pipeline, items in (
                (pidstream, list(range(12))),
                (logagg.pipeline(window=4), logagg.make_items(12))):
            forks.clear()
            result = results[pipeline.name] = pipeline.run(
                items, backend="process", workers=2)
            assert result.delivered == 12 and len(result.windows) == 3
            # One persistent pool across all 3 windows: ``workers``
            # forks, and at most that many PIDs touch a stage body.
            assert forks == [0, 1], pipeline.name
        pids = {pid for _value, pid in
                results["pidstream"].outputs.values()}
        assert 1 <= len(pids) <= 2

    def test_unpicklable_must_fails_fast(self):
        pipeline = Pipeline([Stage("pid", _pid_stage, cost=0.1)],
                            window=4, name="lambdamust",
                            must=lambda seq: False)
        with pytest.raises(SchedulerError,
                           match="'lambdamust_w0'") as info:
            pipeline.run(range(8), backend="process", workers=2)
        assert info.value.__cause__ is not None
