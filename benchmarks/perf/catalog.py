"""The benchmark's names: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is this catalogue reduced to
the keys the driver's contract allows (``python benchmarks/perf/catalog.py
--write`` regenerates it; the smoke test checks the two agree).  What
the contract has no key for lives only here and in the README: each
workload's time base and latency limit, and which end-to-end metric a
per-layer metric is expected to move.
"""

from __future__ import annotations

import json
import os
import sys

#: One measured run lasts this long (``--seconds`` default; the driver
#: passes it explicitly).
RUN_SECONDS = 20

COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

#: time_base: "host" = durations divided by the segment's host factor,
#: "wall" = wall clock.  Fixed per workload from the noise study
#: (NOISE.md): all four turned out CPU-bound on this host and repeat
#: 2-4x better host-normalised, so none reports wall time today.
#: slo_ms: the fixed latency limit behind ``slo_share`` (about 2.5x the
#: quiet-host median), in the workload's time base.
WORKLOADS = {
    "apps-sim": {
        "why": "Closed loop, 1 client: the 8 Fig-6 apps on the 20-core simulator, scored "
               "against precise; core valves/guards + simulator + fcfs do the work, threads "
               "and IPC none.",
        "time_base": "host", "slo_ms": 120.0,
    },
    "svc-open": {
        "why": "Open loop, Poisson 300 req/s into FluidService on the thread pool: "
               "admission, dispatch and many tiny short-lived contexts; bodies are a few "
               "percent of a request.",
        "time_base": "host", "slo_ms": 5.0,
    },
    "stream-thread": {
        "why": "Closed loop: logagg pipeline k=4 on the same thread pool used as few long "
               "windows that saturate the slots; stage queues, staleness valves, metrics "
               "registry.",
        "time_base": "host", "slo_ms": 9.0,
    },
    "proc-pool": {
        "why": "Closed loop, 1 client: 16 tasks + 512 KiB payload per region on a persistent "
               "2-worker process pool; only workload whose critical path is dispatch + "
               "payload shipping.",
        "time_base": "host", "slo_ms": 25.0,
    },
}

#: (name, unit, better, bound, definition).  The bounds on the
#: time-valued metrics are 15%, not the 10% the issue proposed: over
#: seven 10-run studies their interquartile spread was 1-4% on quiet
#: stretches of this host but reached 8.7% on a bad one (NOISE.md), and
#: the driver rejects a benchmark whose spread exceeds its own bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "subprocess spawn to first measured segment, host-normalised; median of the 3 processes"),
    ("ops_per_s", "1/s", "higher", 0.15,
     "verified ops / time the ops took, median over segments (svc-open: / window, unscaled)"),
    ("op_latency_p50_ms", "ms", "lower", 0.15,
     "median op latency over kept segments, each op in its segment's time base"),
    ("slo_share", "ratio", "higher", 0.05,
     "share of attempted ops finished correct within the workload's limit, median over segments"),
    ("ok_share", "ratio", "higher", 0.01,
     "ops completed and output-verified / attempted"),
    ("norm_latency", "ratio", "lower", 0.15,
     "fluid op time / precise serial reference time in the same segment"),
    ("accuracy", "ratio", "higher", 0.05,
     "1 - error against the precise output, mean over ops"),
    ("cpu_ms_per_op", "ms", "lower", 0.15,
     "process + worker CPU time per op, host-normalised, median over segments"),
    ("peak_rss_mb", "MB", "lower", 0.05,
     "peak resident set of the workload process plus its workers"),
    ("on_time_share", "ratio", "higher", 0.05,
     "open loop: sends issued within 1 ms of their due time / sends; closed loops 1"),
]

#: (name, unit, better, moves) — ``moves`` names the end-to-end metric
#: (workload/metric) this layer metric is expected to move.
PER_LAYER = [
    # core
    ("core.valve_check_hit_us", "us", "lower", "stream-thread/op_latency_p50_ms"),
    ("core.valve_check_miss_us", "us", "lower", "apps-sim/ops_per_s"),
    ("core.count_add_us", "us", "lower", "apps-sim/ops_per_s"),
    ("core.region_build_us", "us", "lower", "apps-sim/ops_per_s"),
    ("core.valve_checks_per_op", "count", "lower", "apps-sim/ops_per_s"),
    ("core.valve_memo_hit_share", "ratio", "higher", "apps-sim/ops_per_s"),
    ("core.reexec_per_op", "count", "lower", "apps-sim/norm_latency"),
    ("core.reexec_per_kitem", "count", "lower", "stream-thread/accuracy"),
    ("core.region_build_share", "ratio", "lower", "proc-pool/op_latency_p50_ms"),
    # runtime.simulator + apps
    ("sim.run_share", "ratio", "lower", "apps-sim/ops_per_s"),
    ("sim.task_runs_per_s", "1/s", "higher", "apps-sim/ops_per_s"),
    ("sim.wall_factor", "ratio", "lower", "apps-sim/cpu_ms_per_op"),
    ("sim.overhead_share", "ratio", "lower", "apps-sim/norm_latency"),
    ("apps.build_share", "ratio", "lower", "apps-sim/ops_per_s"),
    ("apps.score_share", "ratio", "lower", "apps-sim/ops_per_s"),
    ("apps.kmeans.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.bellman_ford.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.graph_coloring.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.edge_detection.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.fft.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.dct.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.neural_network.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    ("apps.medusadock.run_ms", "ms", "lower", "apps-sim/op_latency_p50_ms"),
    # runtime.thread_pool
    ("thread.ctx_roundtrip_us", "us", "lower", "svc-open/op_latency_p50_ms"),
    ("thread.chain2_roundtrip_us", "us", "lower", "svc-open/op_latency_p50_ms"),
    ("thread.pool_start_ms", "ms", "lower", "stream-thread/setup_s"),
    ("thread.window_run_ms", "ms", "lower", "stream-thread/ops_per_s"),
    # runtime.process_backend / worker_pool / core.data
    ("process.dispatch_rtt_us.b1", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.dispatch_rtt_us.b4", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.dispatch_rtt_us.b16", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.lease_us", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.arena_export_us_per_mib", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.arena_load_us", "us", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.payload_ms_per_op", "ms", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.body_share", "ratio", "lower", "proc-pool/ops_per_s"),
    ("process.run_share", "ratio", "lower", "proc-pool/ops_per_s"),
    ("process.pool_start_ms", "ms", "lower", "proc-pool/setup_s"),
    ("process.payload_bytes_per_op", "B", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.dispatch_batches_per_op", "count", "lower", "proc-pool/op_latency_p50_ms"),
    ("process.payload_cells_skipped_per_op", "count", "higher", "proc-pool/op_latency_p50_ms"),
    ("process.worker_busy_share", "ratio", "higher", "proc-pool/ops_per_s"),
    ("process.worker_respawns", "count", "lower", "proc-pool/ok_share"),
    # service
    ("service.admission_offer_take_us", "us", "lower", "svc-open/op_latency_p50_ms"),
    ("service.submit_self_us", "us", "lower", "svc-open/op_latency_p50_ms"),
    ("service.submit_share", "ratio", "lower", "svc-open/op_latency_p50_ms"),
    ("service.queue_wait_p50_ms", "ms", "lower", "svc-open/op_latency_p50_ms"),
    ("service.queue_wait_p90_ms", "ms", "lower", "svc-open/slo_share"),
    ("service.contexts_per_op", "count", "lower", "svc-open/op_latency_p50_ms"),
    ("service.shed_share", "ratio", "lower", "svc-open/ok_share"),
    ("service.generator_late_p90_ms", "ms", "lower", "svc-open/on_time_share"),
    ("service.op_latency_p90_ms", "ms", "lower", "svc-open/slo_share"),
    ("service.sat_ops_per_s", "1/s", "higher", "svc-open/slo_share"),
    ("service.max_rate_in_slo", "1/s", "higher", "svc-open/slo_share"),
    # stream
    ("stream.queue_put_us", "us", "lower", "stream-thread/ops_per_s"),
    ("stream.queue_drain_us", "us", "lower", "stream-thread/ops_per_s"),
    ("stream.window_build_us", "us", "lower", "stream-thread/ops_per_s"),
    ("stream.run_share", "ratio", "lower", "stream-thread/ops_per_s"),
    ("stream.stale_reads_per_kitem", "count", "lower", "stream-thread/accuracy"),
    ("stream.drops_per_kitem", "count", "lower", "stream-thread/accuracy"),
    ("stream.parks_per_kitem", "count", "lower", "stream-thread/accuracy"),
    ("stream.max_displacement", "count", "lower", "stream-thread/accuracy"),
    ("stream.delivered_share", "ratio", "higher", "stream-thread/accuracy"),
    ("stream.k_speedup", "ratio", "higher", "stream-thread/norm_latency"),
    ("stream.op_latency_p90_ms", "ms", "lower", "stream-thread/slo_share"),
    # telemetry
    ("telemetry.publish_us.s0", "us", "lower", "apps-sim/ops_per_s"),
    ("telemetry.publish_us.s1", "us", "lower", "stream-thread/ops_per_s"),
    ("telemetry.publish_us.s4", "us", "lower", "stream-thread/ops_per_s"),
    ("telemetry.events_per_op", "count", "lower", "stream-thread/ops_per_s"),
    ("telemetry.traced_overhead_share", "ratio", "lower", "stream-thread/ops_per_s"),
    # sched
    ("sched.submit_pick_us", "us", "lower", "apps-sim/ops_per_s"),
    # the benchmark itself and the host
    ("bench.verify_share", "ratio", "lower", "svc-open/cpu_ms_per_op"),
    ("host.calib_ms_p50", "ms", "lower", "apps-sim/setup_s"),
    ("host.calib_spread", "ratio", "lower", "apps-sim/ops_per_s"),
    ("host.segments_dropped_share", "ratio", "lower", "apps-sim/ops_per_s"),
    ("host.nproc", "count", "higher", "proc-pool/ops_per_s"),
]

E2E_NAMES = [row[0] for row in END_TO_END]
E2E_UNITS = {row[0]: row[1] for row in END_TO_END}
LAYER_NAMES = [row[0] for row in PER_LAYER]
LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}


def benchmark_json() -> dict:
    """The contract view of the catalogue (exactly the driver's keys)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec["why"]}
                      for name, spec in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _doc in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves in PER_LAYER],
    }


def main(argv) -> int:
    root = os.path.normpath(os.path.join(os.path.dirname(
        os.path.abspath(__file__)), "..", ".."))
    path = os.path.join(root, "BENCHMARK.json")
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in argv:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
        return 0
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
