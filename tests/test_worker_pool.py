"""Persistent worker pools: reuse, crash respawn, batched-dispatch parity.

PID stability is the pool's whole point — ``FluidService`` requests and
``repro.stream`` windows must stop forking a fresh worker set per run —
so these tests read ``os.getpid()`` out of worker-run task bodies and
assert the processes stay put.  Crash recovery and the private
``Queue._reader`` dependency get their own regression tests because both
lean on fragile OS/CPython detail.
"""

import os
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
            # Let this worker's outbox feeder thread finish sending
            # ``big``'s result and release the queue's cross-process
            # write lock first: a worker killed while it holds that lock
            # wedges every later writer, its replacement included.
            time.sleep(0.1)
            os._exit(13)
        out.write(float(big.read().sum()))
        yield 1.0

    region.add_task("big", produce, outputs=[big])
    region.add_task("boom", boom, inputs=[big], outputs=[out],
                    start_valves=[DataFinalValve(big)])
    region.remote_factory = (make_big_crasher_region, (flag_path, name), {})
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


# ------------------------------------------------ Queue._reader fallback

class _NoReaderOutbox:
    """Proxy that hides the private ``Queue._reader`` connection."""

    def __init__(self, outbox):
        object.__setattr__(self, "_wrapped", outbox)

    def __getattr__(self, name):
        if name == "_reader":
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "_wrapped"), name)


class TestAwaitActivityFallback:
    def test_run_completes_without_private_reader(self):
        """``_await_activity`` leans on CPython's private ``Queue._reader``
        for event-driven wakeups; interpreters without it must fall back
        to timed-get polling with identical results."""
        region = make_pid_region(name="noreader", tasks=4)
        with PersistentProcessPool(workers=2) as pool:
            pool.outbox = _NoReaderOutbox(pool.outbox)
            executor = ProcessExecutor(timeout=60, pool=pool)
            executor.submit(region)
            executor.run()
        pids = {region.output(f"pid_{index}") for index in range(4)}
        assert pids and all(pid > 0 for pid in pids)


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
