"""One executor hosts a sequence of contexts (``start(ctx)`` /
``wait(ctx, timeout)``), each as if it ran on a fresh executor.

Every table a driver keys by ``id()`` is per run: a released context's
cells and tasks are freed between contexts, so their ids come back for
the next context's objects, and a table kept across contexts would
answer for the wrong object.
"""

import gc

from repro import CountValve, DataFinalValve, FluidRegion, run_serial
from repro.runtime import (PersistentProcessPool, ProcessExecutor,
                           RunContext, SimExecutor)

from util import make_pipeline


def make_polled_region(n: int, name: str = "polled") -> FluidRegion:
    """``consume`` waits on ``DataFinalValve(mid)``, a valve no count
    opens: the simulator hears ``mid`` finalise through the cell itself.
    ``slow``, opened by the first item, keeps a core busy past that, so
    a consumer nobody re-polls would wait for the idle re-poll and
    finish later."""
    region = FluidRegion(name)
    src = region.input_data("src", list(range(n)))
    mid = region.add_array("mid", [0] * n)
    out = region.add_array("out", [0] * n)
    side = region.add_data("side", 0)
    count = region.add_count("ct")

    def produce(ctx):
        data = src.read()
        for i in range(n):
            mid[i] = data[i] * 2
            count.add()
            yield 1.0

    def consume(ctx):
        for i in range(n):
            out[i] = mid[i] + 1
            yield 1.0

    def slow(ctx):
        side.write(n)
        yield 1.5 * n

    region.add_task("produce", produce, inputs=[src], outputs=[mid])
    region.add_task("consume", consume, start_valves=[DataFinalValve(mid)],
                    inputs=[mid], outputs=[out])
    region.add_task("slow", slow, start_valves=[CountValve(count, 1)],
                    inputs=[mid], outputs=[side])
    return region


def _host(host, region, timeout=60.0):
    """Run ``region`` as one context on ``host``; its makespan."""
    ctx = RunContext()
    ctx.submit(region)
    epoch = host.now()
    host.start(ctx)
    host.wait(ctx, timeout)
    return host.now() - epoch


def test_one_simulator_hosts_50_contexts_like_fresh_executors():
    host = SimExecutor(cores=2)
    for index in range(50):
        n = 6 + index % 3
        fresh = SimExecutor(cores=2)
        fresh.submit(make_polled_region(n))
        expected = fresh.run()
        region = make_polled_region(n)
        makespan = _host(host, region)
        assert region.output("out") == [2 * i + 1 for i in range(n)]
        assert makespan == expected.makespan, index
        assert region.stats.makespan == expected.regions[0].stats.makespan
        # No per-run table outlives its context.
        assert len(host._final_wired) <= len(region.datas)
        assert len(host._chunk_keys) <= len(region.tasks)
        del fresh, expected, region
        gc.collect()  # the freed cells' and tasks' ids are recycled


def test_one_process_executor_hosts_10_contexts_on_a_shared_pool():
    with PersistentProcessPool(workers=2) as pool:
        host = ProcessExecutor(pool=pool)
        for index in range(10):
            n = 10 + index
            region = make_pipeline(n=n, exact_quality=True,
                                   name=f"reuse{index}")
            serial = make_pipeline(n=n, exact_quality=True, name="serial")
            run_serial(serial)
            _host(host, region)
            assert region.output("out") == serial.output("out")
            assert len(host._task_index) == len(region.tasks)
            del region, serial
            gc.collect()
        host.shutdown()
        assert pool.alive() == [True, True]  # a given pool outlives it
