"""Micro-probes: the unit cost of one public call per layer.

A probe is a tight loop around a public function: five batches, the
fastest batch wins, and the result is divided by the host factor of the
calibration slices around the probe (host-normalised microseconds).
Every traced run executes every probe, whatever its workload, so the
four workloads' traced runs give four samples of each.

Like the workloads, the probes run pinned to one CPU, the process
pool's workers included.
"""

from __future__ import annotations

import copy
import random
import time
from typing import Callable, Dict, List

from calibrate import calibration_slice, host_factor

BATCHES = 5
#: Leaf tasks of the empty region behind ``process.dispatch_rtt_us.*``:
#: as many as one ``proc-pool`` op has, so ``b16 x 16`` compares with it.
DISPATCH_TASKS = 16


def _best(work: Callable[[object], int],
          prepare: Callable[[], object] = lambda: None) -> float:
    """Fastest of ``BATCHES`` runs of ``work(prepare())`` — ``work``
    returns how many calls it made, ``prepare`` runs outside the clock —
    as host-normalised microseconds per call."""
    before = calibration_slice()
    best = float("inf")
    for _ in range(BATCHES):
        state = prepare()
        start = time.perf_counter()
        calls = work(state)
        best = min(best, (time.perf_counter() - start) / calls)
    after = calibration_slice()
    return best * 1e6 / host_factor(before, after)


def _loop(fn: Callable[[], object], calls: int) -> Callable[[object], int]:
    def work(_state) -> int:
        for _ in range(calls):
            fn()
        return calls
    return work


# -- core ----------------------------------------------------------------------

def core_probes(scale: int) -> Dict[str, float]:
    from repro.core.count import Count
    from repro.core.valves import PercentValve
    from repro.service.loadgen import make_request_region

    count = Count("probe")
    count.add(50)
    valve = PercentValve(count, 0.4, 100)
    valve.check()

    def miss():
        valve.invalidate_memo()
        valve.check()

    rng = random.Random(0)
    serial = iter(range(10 ** 9))

    def build():
        region, _expected, _cost = make_request_region(next(serial), rng)
        region.finalize()

    return {
        "core.valve_check_hit_us": _best(_loop(valve.check, 2000 * scale)),
        "core.valve_check_miss_us": _best(_loop(miss, 2000 * scale)),
        "core.count_add_us": _best(_loop(count.add, 2000 * scale)),
        "core.region_build_us": _best(_loop(build, 40 * scale)),
    }


# -- runtime.thread_pool -------------------------------------------------------

def thread_probes(scale: int) -> Dict[str, float]:
    from repro.core.region import FluidRegion
    from repro.runtime.context import RunContext
    from repro.runtime.thread_pool import SharedThreadPool
    from repro.service.loadgen import make_request_region

    def trivial(index: int) -> FluidRegion:
        region = FluidRegion(f"probe-{index}")
        out = region.add_data("out", 0)

        def body(ctx):
            out.write(1)
            yield 1.0

        region.add_task("only", body, outputs=[out])
        return region

    rng = random.Random(0)

    def chain(index: int) -> FluidRegion:
        return make_request_region(index, rng, 8, 8)[0]

    pool = SharedThreadPool(slots=2, name="probe-pool")

    def roundtrips(regions: List[FluidRegion]) -> int:
        for region in regions:
            ctx = RunContext()
            ctx.submit(region)
            pool.start(ctx)
            pool.wait(ctx, 10.0)
            ctx.join(1.0)
        return len(regions)

    def built(make: Callable[[int], FluidRegion]):
        return lambda: [make(index) for index in range(30 * scale)]

    try:
        out = {
            "thread.ctx_roundtrip_us": _best(roundtrips, built(trivial)),
            "thread.chain2_roundtrip_us": _best(roundtrips, built(chain)),
        }
    finally:
        pool.shutdown()

    def pool_cycle():
        SharedThreadPool(slots=2, name="probe-start").shutdown()

    out["thread.pool_start_ms"] = _best(_loop(pool_cycle, 20 * scale)) / 1e3
    return out


# -- service / stream / telemetry / sched --------------------------------------

def small_probes(scale: int) -> Dict[str, float]:
    from repro.core.region import FluidRegion
    from repro.sched import make_scheduler
    from repro.service.admission import AdmissionQueue
    from repro.stream.apps import APPS
    from repro.stream.queue import StageQueue
    from repro.telemetry.bus import TelemetryBus

    out: Dict[str, float] = {}

    queue = AdmissionQueue(capacity=256)
    token = object()

    def offer_take():
        queue.offer(token, now=0.0, sheddable=False)
        queue.take(now=0.0)

    out["service.admission_offer_take_us"] = _best(
        _loop(offer_take, 1000 * scale))

    scheduler = make_scheduler(None).bind(point="core", workers=20)

    def submit_pick():
        scheduler.submit(token, now=0.0)
        scheduler.pick(now=0.0)

    out["sched.submit_pick_us"] = _best(_loop(submit_pick, 1000 * scale))

    width = 32
    queues = 8 * scale

    def fresh_queues() -> List[StageQueue]:
        region = FluidRegion("probe-queues")
        return [StageQueue(f"q{index}", width, bound=4, region=region)
                for index in range(queues)]

    def puts(batch: List[StageQueue]) -> int:
        for target in batch:
            for seq in range(width):
                target.put(seq, seq)
        return len(batch) * width

    def filled() -> List[StageQueue]:
        batch = fresh_queues()
        puts(batch)
        return batch

    def drains(batch: List[StageQueue]) -> int:
        for target in batch:
            target.drain()
        return len(batch) * width

    out["stream.queue_put_us"] = _best(puts, fresh_queues)
    out["stream.queue_drain_us"] = _best(drains, filled)

    app = APPS["logagg"]
    pipeline = app.pipeline(k=4, window=width)
    items = app.make_items(width)
    states = [copy.deepcopy(stage.state0) for stage in pipeline.stages]
    out["stream.window_build_us"] = _best(_loop(
        lambda: pipeline.build_window(0, items, states), 10 * scale))

    for subscribers in (0, 1, 4):
        bus = TelemetryBus()
        for _ in range(subscribers):
            # Distinct callables: the bus ignores a repeated subscriber.
            bus.subscribe(lambda event: None)
        data = {"result": True}
        out[f"telemetry.publish_us.s{subscribers}"] = _best(_loop(
            lambda: bus.emit("valve", "r", "t", "start", data=data),
            2000 * scale))
    return out


# -- runtime.process_backend / worker_pool / core.data ---------------------------

def make_empty_region(index: int, tasks: int):
    """Module-level factory: a root task, then ``tasks`` empty bodies
    gated on its output (the shape of ``proc-pool``'s op, no work)."""
    from repro.core.region import FluidRegion
    from repro.core.valves import DataFinalValve

    region = FluidRegion(f"empty-{index}")
    go = region.add_data("go", 0)

    def head(ctx):
        go.write(1)
        yield 1.0

    region.add_task("head", head, outputs=[go])
    for task_index in range(tasks):
        out = region.add_data(f"out_{task_index}", 0)

        def body(ctx):
            yield 1.0

        region.add_task(f"t{task_index}", body,
                        start_valves=[DataFinalValve(go)],
                        inputs=[go], outputs=[out])
    region.remote_factory = (make_empty_region, (index, tasks), {})
    return region


def process_probes(scale: int) -> Dict[str, float]:
    import numpy as np

    from multiprocessing import resource_tracker

    from repro.core.data import PayloadArena, arena_detach_all
    from repro.runtime.process_backend import ProcessExecutor
    from repro.runtime.worker_pool import PersistentProcessPool

    out: Dict[str, float] = {}
    pools: List = []

    def start_pool():
        pools.append(PersistentProcessPool(workers=2, name="probe-pool"))

    try:
        out["process.pool_start_ms"] = _best(_loop(start_pool, 1)) / 1e3
        pool = pools[-1]
        for spare in pools[:-1]:
            spare.close()
        del pools[:-1]

        tasks = DISPATCH_TASKS
        serial = iter(range(10 ** 9))

        def dispatch(batch_size: int):
            def run():
                executor = ProcessExecutor(pool=pool, batch_size=batch_size,
                                           timeout=60.0)
                executor.submit(make_empty_region(next(serial), tasks))
                executor.run()
            return run

        dispatch(16)()  # first lease installs nothing yet: warm the path
        for batch_size in (1, 4, 16):
            per_region = _best(_loop(dispatch(batch_size), 3 * scale))
            out[f"process.dispatch_rtt_us.b{batch_size}"] = per_region / tasks

        def lease():
            pool.lease()
            pool.release()

        out["process.lease_us"] = _best(_loop(lease, 2000 * scale))
    finally:
        for pool in pools:
            pool.close()

    arena = PayloadArena()
    try:
        block = np.arange(131072, dtype=np.float64)  # 1 MiB
        handle = arena.export("probe", block)
        out["process.arena_export_us_per_mib"] = _best(_loop(
            lambda: arena.export("probe", block), 50 * scale))
        out["process.arena_load_us"] = _best(_loop(handle.load, 50 * scale))
    finally:
        # Loading disowns the segment for this process's resource
        # tracker, as a worker must; here the owner is the same process,
        # so hand it back before close() unlinks (and unregisters) it.
        resource_tracker.register("/" + handle.shm_name, "shared_memory")
        arena_detach_all()
        arena.close()
    return out


def run_all(smoke: bool) -> Dict[str, float]:
    """Every probe."""
    scale = 1 if smoke else 4
    out: Dict[str, float] = {}
    out.update(core_probes(scale))
    out.update(small_probes(scale))
    out.update(thread_probes(scale))
    out.update(process_probes(1 if smoke else 2))
    return out
