"""Workload ``proc-pool``: one region per op on a persistent process pool.

Closed loop, one client, parent and 2 workers pinned to one CPU,
host-normalised.  One op leases a region onto one
``PersistentProcessPool(workers=2)`` via
``ProcessExecutor(pool=, batch_size=16)``: a ``distribute`` task writes a
fresh 512 KiB float64 array cell whose content depends on the op's epoch,
then 16 ``crunch`` tasks each reduce their slice of it and run a short
``_lcg_kernel``.  ``runtime.process_backend``, ``worker_pool`` and
``core.data.PayloadArena`` do all the work and no other workload touches
them; dispatch and payload shipping both sit on the op's critical path
(sized so bodies stay under a fifth of the op, see README).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import numpy as np

from harness import (Segment, SetupClock, Workload, digest, median,
                     pid_cpu_s, safe_div, share_of)
from spans import OFF

from repro.bench.harness import _lcg_kernel
from repro.core.region import FluidRegion
from repro.core.valves import DataFinalValve
from repro.runtime.executor import run_serial
from repro.runtime.process_backend import ProcessExecutor
from repro.runtime.worker_pool import PersistentProcessPool

TASKS = 16
#: 65536 float64 = 512 KiB.  The issue asked for 1 MiB, but shipping
#: that alone took 52% of the op and dispatch could not reach the 30%
#: the sizing rule wants at any body size (25-28% measured).
PAYLOAD_ELEMS = 65536
ITERATIONS = 500
WORKERS = 2
BATCH_SIZE = 16


def block_for(epoch: int, elems: int):
    """The payload ``distribute`` writes: differs for every epoch."""
    return (np.arange(elems, dtype=np.float64) * float(epoch % 97 + 1)) % 1013.0


def make_region(epoch: int, tasks: int = TASKS, elems: int = PAYLOAD_ELEMS,
                iterations: int = ITERATIONS) -> FluidRegion:
    """Module-level factory, so pool workers can rebuild the region."""
    region = FluidRegion(f"proc-{epoch}")
    seed = region.input_data("seed", epoch)
    block = region.add_data("block", None)

    def distribute(ctx):
        block.write(block_for(seed.read(), elems))
        yield 1.0

    region.add_task("distribute", distribute, inputs=[seed], outputs=[block])
    step = elems // tasks
    for index in range(tasks):
        out = region.add_data(f"out_{index}", None)

        def crunch(ctx, index=index, out=out):
            data = block.read()
            part = float(data[index * step:(index + 1) * step].sum())
            out.write((part, _lcg_kernel(epoch * 31 + index, iterations)))
            yield 1.0

        region.add_task(f"crunch_{index}", crunch,
                        start_valves=[DataFinalValve(block)],
                        inputs=[block], outputs=[out])
    region.remote_factory = (make_region, (epoch, tasks, elems, iterations), {})
    return region


def expected_outputs(epoch: int, tasks: int = TASKS,
                     elems: int = PAYLOAD_ELEMS,
                     iterations: int = ITERATIONS) -> list:
    """The same answers by a plain serial computation."""
    data = block_for(epoch, elems)
    step = elems // tasks
    return [(float(data[i * step:(i + 1) * step].sum()),
             _lcg_kernel(epoch * 31 + i, iterations)) for i in range(tasks)]


def run_on_pool(pool, region, telemetry=None, batch_size: int = BATCH_SIZE):
    executor = ProcessExecutor(pool=pool, batch_size=batch_size,
                               timeout=60.0, telemetry=telemetry)
    executor.submit(region)
    return executor.run()


class _BusyMeter:
    """Worker busy time off the bus's ``worker`` dispatch/free events."""

    def __init__(self):
        self.total_s = 0.0
        self._since: Dict[int, float] = {}

    def on_event(self, event) -> None:
        if event.kind != "worker":
            return
        slot = event.data.get("slot")
        if event.name == "dispatch":
            self._since.setdefault(slot, event.ts)
        elif event.name == "free":
            started = self._since.pop(slot, None)
            if started is not None:
                self.total_s += event.ts - started


class ProcPool(Workload):
    name = "proc-pool"

    def setup(self, clock: SetupClock) -> None:
        self.ops_per_segment = 6 if self.smoke else 40
        self.refs_per_segment = 1 if self.smoke else 6
        rng = random.Random(f"proc-pool:{self.seed}")
        self.epoch = rng.randrange(1, 1_000_000)
        self.input_digest = digest((self.epoch, TASKS, PAYLOAD_ELEMS,
                                    ITERATIONS))
        clock.mark("inputs")
        self.pool = PersistentProcessPool(workers=WORKERS, name="perf-pool")
        clock.mark("pool")
        self._op_id = 0
        self._busy = None
        for _ in range(2 if self.smoke else 40):
            _lat, ok = self._one_op(OFF, None)
            if not ok:
                raise RuntimeError("proc-pool set-up: wrong output")
        clock.mark("warmup")

    def worker_pids(self) -> List[int]:
        return [p.pid for p in self.pool.processes if p.pid]

    def _workers_cpu_s(self) -> float:
        return sum(pid_cpu_s(pid) for pid in self.worker_pids())

    def _next_epoch(self) -> int:
        self.epoch += 1
        return self.epoch

    def _one_op(self, recorder, telemetry) -> "tuple[float, bool]":
        op_id = self._op_id
        self._op_id += 1
        epoch = self._next_epoch()
        with recorder.span("op", op_id):
            start = time.perf_counter()
            with recorder.span("core.region_build", op_id):
                region = make_region(epoch)
            with recorder.span("process.run", op_id):
                run_on_pool(self.pool, region, telemetry)
            latency = time.perf_counter() - start
            with recorder.span("bench.verify", op_id):
                outputs = [region.output(f"out_{i}") for i in range(TASKS)]
                ok = region.complete and outputs == expected_outputs(epoch)
        return latency, ok

    def run_segment(self, recorder, telemetry) -> Segment:
        segment = Segment()
        if telemetry is not None and self._busy is None:
            self._busy = _BusyMeter()
            telemetry.bus.subscribe(self._busy.on_event)
        workers_cpu = self._workers_cpu_s()
        cpu = 0.0
        for _ in range(self.ops_per_segment):
            began = time.process_time()
            latency, ok = self._one_op(recorder, telemetry)
            cpu += time.process_time() - began
            segment.record(latency, ok)
            segment.busy_s += latency
        segment.cpu_s = cpu + self._workers_cpu_s() - workers_cpu
        refs = []
        for _ in range(self.refs_per_segment):
            region = make_region(self._next_epoch())
            start = time.perf_counter()
            run_serial(region)
            refs.append(time.perf_counter() - start)
        segment.norm = safe_div(median(segment.lat_s), median(refs))
        segment.extra = {"serial_s": refs}
        return segment

    # ------------------------------------------------------------ per layer

    def layer_metrics(self, segments: List[Segment], recorder,
                      telemetry) -> Dict[str, float]:
        ops = sum(s.attempted for s in segments)
        counters = telemetry.metrics.counters
        busy_s = sum(s.busy_s for s in segments)
        return {
            "process.run_share": share_of(recorder, "process.run"),
            "core.region_build_share": share_of(recorder,
                                                "core.region_build"),
            "bench.verify_share": share_of(recorder, "bench.verify"),
            "process.payload_bytes_per_op": safe_div(
                counters["process.payload_bytes_to_workers"]
                + counters["process.payload_bytes_from_workers"], ops),
            "process.dispatch_batches_per_op": safe_div(
                counters["process.dispatch_batches"], ops),
            "process.payload_cells_skipped_per_op": safe_div(
                counters["process.payload_cells_skipped"], ops),
            "process.worker_busy_share": safe_div(
                self._busy.total_s if self._busy else 0.0,
                busy_s * WORKERS),
            "process.worker_respawns": float(
                counters["process.worker_respawns"]),
        }

    def extras(self, budget_s: float) -> Dict[str, float]:
        """Where an op's time goes, by differencing op variants that are
        interleaved so host drift hits them alike: the same region with
        a 1 KiB payload, and with empty bodies."""
        variants = {
            "full": {},
            "small": {"elems": 128},
            "nobody": {"iterations": 0},
        }
        times: Dict[str, List[float]] = {name: [] for name in variants}
        deadline = time.perf_counter() + budget_s
        rounds = 0
        while rounds < 3 or (time.perf_counter() < deadline and rounds < 40):
            rounds += 1
            for name, kwargs in variants.items():
                region = make_region(self._next_epoch(), **kwargs)
                start = time.perf_counter()
                run_on_pool(self.pool, region)
                times[name].append(time.perf_counter() - start)
        full = median(times["full"])
        return {
            "process.payload_ms_per_op":
                max(0.0, full - median(times["small"])) * 1e3,
            "process.body_share":
                safe_div(max(0.0, full - median(times["nobody"])), full),
        }

    def teardown(self) -> None:
        self.pool.close()
