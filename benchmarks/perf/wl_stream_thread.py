"""Workload ``stream-thread``: source->sink latency through repro.stream.

Closed loop, pinned, host-normalised.  One op is one *item*; the loop
runs passes of
``APPS["logagg"].pipeline(k=4, window=32).run(items(1024), backend="thread",
slots=2)`` back to back, and an item's latency is its source->final-queue
time from ``PipelineResult.latencies``.  ``stream.queue`` put/drain, the
``StalenessValve`` checks and the always-attached metrics registry
dominate.  It drives the *same* thread pool as ``svc-open`` the other
way round — a few long windows that saturate the slots instead of many
tiny contexts — so a wakeup change that helps one and costs the other
shows up.

Items a pass is licensed to skip (at most ``k`` per queue and window,
never a must-deliver one) are not failed ops: they lower ``accuracy``
(a missing item scores as fully wrong) and ``stream.delivered_share``.
A pass that breaks its licence fails all of its items.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from harness import (Segment, SetupClock, Workload, digest, median,
                     percentile, safe_div, share_of)
from spans import OFF

from repro.stream.apps import APPS

APP = "logagg"
K = 4
WINDOW = 32
SLOTS = 2


class StreamThread(Workload):
    name = "stream-thread"

    def setup(self, clock: SetupClock) -> None:
        self.n_items = 128 if self.smoke else 1024
        self.app = APPS[APP]
        # The seed picks which stretch of the app's record stream a pass
        # replays.
        offset = random.Random(f"stream-thread:{self.seed}").randrange(4096)
        self.items = self.app.make_items(self.n_items + offset)[offset:]
        self.input_digest = digest(self.items)
        clock.mark("inputs")
        self.reference = self.app.pipeline().run_serial(self.items)
        exact = self.app.pipeline(k=0, window=WINDOW).run(
            self.items, backend="thread", slots=SLOTS)
        if exact.outputs != self.reference:
            raise RuntimeError("stream-thread set-up: the k=0 pass does "
                               "not equal run_serial")
        clock.mark("references")
        self.must = [seq for seq in range(self.n_items)
                     if self.app.must is None or self.app.must(seq)]
        self.edges = len(self.app.stages) + 1
        self._op_id = 0
        for _ in range(1 if self.smoke else 4):
            self._one_pass(OFF, None, K)
        clock.mark("warmup")

    def _one_pass(self, recorder, telemetry, k):
        """Run and verify one pass; returns (seconds, result, ok, error)."""
        op_id = self._op_id
        self._op_id += 1
        with recorder.span("op", op_id):
            # A fresh Pipeline per pass: it keeps its telemetry bundle,
            # whose legacy Trace would otherwise grow without bound.
            pipeline = self.app.pipeline(k=k, window=WINDOW,
                                         telemetry=telemetry)
            start = time.perf_counter()
            with recorder.span("stream.run", op_id):
                result = pipeline.run(self.items, backend="thread",
                                      slots=SLOTS)
            seconds = time.perf_counter() - start
            with recorder.span("bench.verify", op_id):
                windows = len(result.windows)
                ok = (all(seq in result.outputs for seq in self.must)
                      and all(result.end_verdicts.values())
                      and result.max_displacement <= k
                      and self.n_items - result.delivered
                      <= k * self.edges * windows
                      and set(result.outputs) <= set(self.reference))
                error = self.app.metric(result.outputs, self.reference)
        return seconds, result, ok, error

    def run_segment(self, recorder, telemetry) -> Segment:
        segment = Segment()
        cpu = time.process_time()
        seconds, result, ok, error = self._one_pass(recorder, telemetry, K)
        segment.cpu_s = time.process_time() - cpu
        latencies = list(result.latencies.values())
        segment.lat_s = latencies
        segment.attempted = len(latencies)
        if ok:
            segment.ok = len(latencies)
            segment.ok_lat_s = latencies
        segment.busy_s = seconds
        segment.accuracy = 1.0 - error
        with recorder.span("stream.serial_ref"):
            start = time.perf_counter()
            self.app.pipeline().run_serial(self.items)
            serial_s = time.perf_counter() - start
        segment.norm = safe_div(seconds, serial_s)
        if recorder.enabled:
            segment.extra = {
                "window_s": [w.makespan for w in result.windows],
                "stale": result.stale_reads, "drops": result.drops,
                "parks": result.parks,
                "displacement": result.max_displacement,
                "delivered": result.delivered,
                "reexec": result.reexecutions,
            }
        return segment

    # ------------------------------------------------------------ per layer

    def layer_metrics(self, segments: List[Segment], recorder,
                      telemetry) -> Dict[str, float]:
        offered = self.n_items * len(segments)
        kitems = offered / 1000.0
        total = {key: sum(s.extra[key] for s in segments)
                 for key in ("stale", "drops", "parks", "delivered",
                             "reexec")}
        window_ms = [w / s.h * 1e3 for s in segments
                     for w in s.extra["window_s"]]
        latencies_ms = [lat / s.h * 1e3 for s in segments for lat in s.lat_s]
        return {
            "stream.run_share": share_of(recorder, "stream.run"),
            "bench.verify_share": share_of(recorder, "bench.verify"),
            "thread.window_run_ms": median(window_ms),
            "core.reexec_per_kitem": safe_div(total["reexec"], kitems),
            "stream.stale_reads_per_kitem": safe_div(total["stale"], kitems),
            "stream.drops_per_kitem": safe_div(total["drops"], kitems),
            "stream.parks_per_kitem": safe_div(total["parks"], kitems),
            "stream.max_displacement": float(max(
                (s.extra["displacement"] for s in segments), default=0)),
            "stream.delivered_share": safe_div(total["delivered"], offered),
            "stream.op_latency_p90_ms": percentile(latencies_ms, 0.9),
        }

    def extras(self, budget_s: float) -> Dict[str, float]:
        """``stream.k_speedup``: a k=0 pass over a k=4 pass, interleaved."""
        strict: List[float] = []
        relaxed: List[float] = []
        deadline = time.perf_counter() + budget_s
        while len(strict) < 2 or (time.perf_counter() < deadline
                                  and len(strict) < 12):
            strict.append(self._one_pass(OFF, None, 0)[0])
            relaxed.append(self._one_pass(OFF, None, K)[0])
        return {"stream.k_speedup": safe_div(median(strict),
                                             median(relaxed))}
