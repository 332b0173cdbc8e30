"""Workload ``svc-open``: open-loop request latency through FluidService.

Open loop, Poisson arrivals at 300 req/s (about a sixth of the pinned
saturation rate), pinned, host-normalised from inside the window.
Requests are ``repro.service.loadgen.make_request_region`` regions
submitted to ``FluidService(backend="thread", slots=2,
queue_capacity=256)``.  ``service`` admission/dispatch and
``runtime.thread_pool`` context start, guard spawn and wakeups dominate;
the bodies are a few percent.

The schedule is made of one-second windows holding exactly
``rate x window`` arrivals at uniform offsets (a Poisson process
conditioned on its count, so every window offers the same load).  A
window's requests are built before it opens; latency runs from the
*scheduled* send time; how late the generator actually sent is
recorded.

The big calibration slices run in the gaps between windows, where
nothing is due, but do not track request latency: a mostly idle process
runs its bursts at another effective speed.  So the window also holds
25 *calibration points* per second at their own seeded offsets; at each
the generator runs a ``micro_slice`` (the window's host factor is their
median) and one request's bodies serially (the precise reference behind
``norm_latency``).

The event loop uses ``select()`` rather than the default epoll selector
because CPython rounds epoll timeouts up to whole milliseconds, which
would make every send ~0.5 ms late.
"""

from __future__ import annotations

import asyncio
import gc
import random
import selectors
import time
from typing import Dict, List

from calibrate import micro_slice
from harness import (LATE_S, Segment, SetupClock, Workload, digest, median,
                     percentile, safe_div, share_of)
from spans import OFF

from repro.runtime.executor import run_serial
from repro.service import FluidService
from repro.service.admission import AdmissionError
from repro.service.loadgen import make_request_region

RATE = 300.0
SLOTS = 2
QUEUE_CAPACITY = 256
#: Calibration points per second of schedule (under 1% of the CPU).
MICRO_PER_S = 25
#: Trace rows interleaved requests are spread over.
LANES = 8


class SvcOpen(Workload):
    name = "svc-open"

    def setup(self, clock: SetupClock) -> None:
        self.window_s = 0.25 if self.smoke else 1.0
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.rng = random.Random(f"svc-open:{self.seed}")
        self._services: Dict[int, FluidService] = {}
        self._index = 0
        self._op_id = 0
        self._pending = self._build_window(RATE, self.window_s)
        self.input_digest = digest(
            [(round(offset, 9), what[1] if isinstance(what, tuple) else None)
             for offset, what in self._pending["events"]])
        clock.mark("inputs")
        service = self._service(None)
        clock.mark("service")
        # Warm up closed-loop (CPU-bound, so it scales with the host
        # like the rest of set-up; a scheduled warm-up would not).
        self.loop.run_until_complete(
            self._closed_loop(service, 1, 30 if self.smoke else 400))
        clock.mark("warmup")
        self.queue_waits: List[float] = []
        self.lateness: List[float] = []
        self.sheds = 0
        self.errors: List[str] = []

    def _service(self, telemetry) -> FluidService:
        key = id(telemetry) if telemetry is not None else 0
        service = self._services.get(key)
        if service is None:
            service = FluidService(
                backend="thread", slots=SLOTS, queue_capacity=QUEUE_CAPACITY,
                telemetry=telemetry, name=f"perf-svc-{len(self._services)}")
            self._services[key] = service
        return service

    def _build_window(self, rate: float, window_s: float) -> dict:
        """One window of schedule: requests at sorted uniform offsets,
        plus the calibration points that share the schedule with them —
        at each, a micro-slice and one request body run serially (the
        precise reference), so both see the host the requests see."""
        count = max(1, int(round(rate * window_s)))
        points = max(3, int(MICRO_PER_S * window_s))
        regions = []
        for _ in range(count + points):
            regions.append(make_request_region(self._index, self.rng))
            self._index += 1
        events = [(self.rng.random() * window_s, request)
                  for request in regions[:count]]
        events += [(self.rng.random() * window_s, reference[0])
                   for reference in regions[count:]]
        events.sort(key=lambda event: event[0])
        return {"events": events, "window_s": window_s}

    def between_segments(self) -> None:
        if self._pending is None:
            self._pending = self._build_window(RATE, self.window_s)
        # Building a window ahead ages its 300 regions (a class each)
        # into the oldest generation, where only a full collection
        # frees them: 40-90 ms pauses in every other window, an
        # artefact of this generator.  Collect here, outside the window;
        # inside it the collector stays on for the garbage requests
        # really make.
        gc.collect()

    # ------------------------------------------------------------------ op

    async def _one(self, service, recorder, segment, op_id, request,
                   due, sent) -> float:
        region, expected, cost = request
        try:
            result = await service.submit(region, sheddable=True,
                                          cost_estimate=cost)
        except AdmissionError:
            self.sheds += 1
            segment.attempted += 1
            return time.perf_counter()
        except Exception as error:  # boundary: count it, keep the load going
            self.errors.append(repr(error))
            segment.attempted += 1
            return time.perf_counter()
        done = time.perf_counter()
        ok = list(region.output("out")) == expected
        verified = time.perf_counter()
        segment.record(done - due, ok)
        self.queue_waits.append(result.queue_wait)
        if recorder.enabled:
            lane = 1 + op_id % LANES
            parent = recorder.add("op", due, verified, op_id, lane=lane)
            recorder.add("service.submit", sent, done, op_id, parent, lane)
            recorder.add("bench.verify", done, verified, op_id, parent, lane)
        return done

    async def _window(self, service, recorder, window: dict) -> Segment:
        segment = Segment()
        segment.scheduled = True
        loop = asyncio.get_running_loop()
        tasks = []
        serial_s = []
        calibration_cpu = 0.0
        cpu = time.process_time()
        start = time.perf_counter() + 0.002
        for offset, what in window["events"]:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if not isinstance(what, tuple):
                # A calibration point: ``what`` is a bare region.
                began_cpu = time.process_time()
                segment.micro_ms.append(micro_slice())
                began = time.perf_counter()
                run_serial(what)
                serial_s.append(time.perf_counter() - began)
                calibration_cpu += time.process_time() - began_cpu
                continue
            sent = time.perf_counter()
            segment.sends += 1
            if sent - due > LATE_S:
                segment.late += 1
            self.lateness.append(sent - due)
            tasks.append(loop.create_task(self._one(
                service, recorder, segment, self._op_id, what, due, sent)))
            self._op_id += 1
        finished = await asyncio.gather(*tasks)
        segment.busy_s = max(finished) - start
        segment.cpu_s = time.process_time() - cpu - calibration_cpu
        # Fig. 11's overhead factor: a request through the service over
        # its bodies run serially with no service and no threads.
        segment.norm = safe_div(median(segment.lat_s), median(serial_s))
        return segment

    def run_segment(self, recorder, telemetry) -> Segment:
        service = self._service(telemetry)
        window, self._pending = self._pending, None
        return self.loop.run_until_complete(
            self._window(service, recorder, window))

    async def _closed_loop(self, service, clients: int, per_client: int,
                           seconds: float = 0.0) -> int:
        """``clients`` callers that each wait for their reply; stops
        after ``per_client`` requests each or ``seconds``, whichever is
        set.  Returns the number of verified requests."""
        done = 0
        deadline = time.perf_counter() + seconds if seconds else None

        async def client() -> None:
            nonlocal done
            sent = 0
            while (deadline is None and sent < per_client) or \
                    (deadline is not None and time.perf_counter() < deadline):
                region, expected, cost = make_request_region(
                    self._index, self.rng)
                self._index += 1
                sent += 1
                await service.submit(region, cost_estimate=cost)
                if list(region.output("out")) == expected:
                    done += 1

        await asyncio.gather(*(client() for _ in range(clients)))
        return done

    # ------------------------------------------------------------ per layer

    def layer_metrics(self, segments: List[Segment], recorder,
                      telemetry) -> Dict[str, float]:
        ops = sum(s.ok for s in segments)
        attempted = sum(s.attempted for s in segments)
        latencies = [lat for s in segments for lat in s.lat_s]
        service = self._service(telemetry)
        return {
            "service.submit_share": share_of(recorder, "service.submit"),
            "bench.verify_share": share_of(recorder, "bench.verify"),
            "service.submit_p50_us": median(
                recorder.durations("service.submit")) * 1e6,
            "service.queue_wait_p50_ms": median(self.queue_waits) * 1e3,
            "service.queue_wait_p90_ms":
                percentile(self.queue_waits, 0.9) * 1e3,
            "service.contexts_per_op": safe_div(
                service.stats()["dispatched_total"], ops),
            "service.shed_share": safe_div(self.sheds, attempted),
            "service.generator_late_p90_ms":
                percentile(self.lateness, 0.9) * 1e3,
            "service.op_latency_p90_ms": percentile(latencies, 0.9) * 1e3,
        }

    def extras(self, budget_s: float) -> Dict[str, float]:
        """Diagnostics that do not repeat within a tenth on this host and
        therefore gate nothing: closed-loop saturation throughput and
        the highest rung of a short rate ladder that stays in the SLO."""
        from catalog import WORKLOADS

        slo_s = WORKLOADS[self.name]["slo_ms"] / 1e3
        service = self._service(None)
        sat_s = max(0.3, budget_s / 3.0)
        start = time.perf_counter()
        done = self.loop.run_until_complete(
            self._closed_loop(service, 8, 0, seconds=sat_s))
        sat = safe_div(done, time.perf_counter() - start)
        rung_s = max(0.25, budget_s / 6.0)
        best = 0.0
        for rate in (300.0, 500.0, 700.0, 900.0):
            segment = self.loop.run_until_complete(self._window(
                service, OFF, self._build_window(rate, rung_s)))
            within = sum(1 for lat in segment.ok_lat_s
                         if lat / segment.h <= slo_s)
            backlog = segment.busy_s > rung_s * 1.1
            if safe_div(within, segment.attempted) < 0.9 or backlog:
                break
            best = rate
        return {"service.sat_ops_per_s": sat,
                "service.max_rate_in_slo": best}

    def teardown(self) -> None:
        for service in self._services.values():
            self.loop.run_until_complete(service.close())
        self.loop.close()
