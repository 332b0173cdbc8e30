"""One workload, one mode, in a fresh process.

``run.py`` spawns this file once per workload and mode so that
``setup_s`` and ``peak_rss_mb`` belong to one workload.  It prints one
JSON document (the last line of its standard output) that ``run.py``
folds into the report.

Modes: ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same code path with the span recorder and a
``Telemetry`` attached, plus the workload's extra experiments and the
micro-probes, and reports the per-layer metrics.
"""

from __future__ import annotations

import time

_ENTERED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# Every process of the benchmark is pinned to one CPU, where a second
# BLAS thread only spins against the first: it doubled the CPU time of
# the neural-network app and made its wall time erratic.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import calibrate  # noqa: E402
import catalog  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))


#: workload name -> (module, class)
WORKLOAD_CLASSES = {
    "apps-sim": ("wl_apps_sim", "AppsSim"),
    "svc-open": ("wl_svc_open", "SvcOpen"),
    "stream-thread": ("wl_stream_thread", "StreamThread"),
    "proc-pool": ("wl_proc_pool", "ProcPool"),
}


def _load_workload(name: str):
    module, cls = WORKLOAD_CLASSES[name]
    return getattr(importlib.import_module(module), cls)


def _shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _stop_resource_tracker() -> None:
    """multiprocessing starts a tracker process with the first shared
    memory segment and leaves it running until this process exits; end
    it now so that nothing outlives the workload."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=_ENTERED)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"benchmarks/perf: no program to measure under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    shm_before = _shm_names()
    spec = catalog.WORKLOADS[args.workload]
    nproc = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    pinned_cpu = calibrate.pin_to_one_cpu()
    calibrator = calibrate.Calibrator()
    clock = harness.SetupClock(args.spawned_at, calibrator)
    workload = _load_workload(args.workload)(args.seed, smoke=args.smoke)
    clock.mark("imports")
    workload.setup(clock)
    gc.collect()
    gc.freeze()
    setup_s = clock.setup_s

    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "time_base": spec["time_base"],
        "pinned_cpu": pinned_cpu, "input_digest": workload.input_digest,
        "setup_s": setup_s, "setup_wall_s": clock.wall_s,
        "setup_phases": clock.phases,
    }
    try:
        if args.trace == 0:
            _measure(args, spec, workload, calibrator, doc)
        else:
            _trace(args, spec, workload, calibrator, doc, nproc)
    finally:
        worker_rss = sum(harness.pid_peak_rss_mb(pid)
                         for pid in workload.worker_pids())
        workload.teardown()
        _stop_resource_tracker()
    doc["peak_rss_mb"] = harness.self_peak_rss_mb() + worker_rss
    if args.trace == 0:
        doc["metrics"]["setup_s"] = setup_s
        doc["metrics"]["peak_rss_mb"] = doc["peak_rss_mb"]

    # Hygiene: nothing may outlive the workload.
    leftovers = []
    deadline = time.perf_counter() + 2.0
    while True:
        children = harness.live_children()
        threads = [t.name for t in threading.enumerate()
                   if t is not threading.main_thread() and not t.daemon]
        if not (children or threads) or time.perf_counter() > deadline:
            break
        time.sleep(0.02)
    if children:
        leftovers.append(f"child processes {children}")
    if threads:
        leftovers.append(f"non-daemon threads {threads}")
    new_shm = sorted(_shm_names() - shm_before)
    if new_shm:
        leftovers.append(f"/dev/shm segments {new_shm}")
    doc["leftovers"] = leftovers
    doc["calibration_ms"] = [round(v, 4) for v in calibrator.slices_ms]
    print(json.dumps(doc))
    return 0


def _measure(args, spec, workload, calibrator, doc) -> None:
    (segments,) = harness.run_segments(workload, calibrator, args.seconds,
                                       [(spans.OFF, None)])
    kept, dropped = harness.keep_segments(segments)
    metrics = harness.end_to_end(kept, spec["time_base"], spec["slo_ms"])
    other = "wall" if spec["time_base"] == "host" else "host"
    doc["metrics"] = metrics
    doc["metrics_other_base"] = harness.end_to_end(kept, other,
                                                   spec["slo_ms"])
    doc["segments"] = [s.to_json() for s in segments]
    doc["segments_dropped_share"] = dropped
    doc["errors"] = getattr(workload, "errors", [])


def _trace(args, spec, workload, calibrator, doc, nproc) -> None:
    from repro.telemetry import Telemetry

    recorder = spans.SpanRecorder()
    # Ring-buffered, so a long run cannot grow the legacy Trace.
    telemetry = Telemetry(metrics=True, chrome=False, trace_capacity=256)
    # Traced and untraced segments alternate; their throughput ratio is
    # the tracing overhead.
    traced, plain = harness.run_segments(
        workload, calibrator, args.seconds * 0.5,
        [(recorder, telemetry), (spans.OFF, None)])
    base, slo = spec["time_base"], spec["slo_ms"]
    traced_e2e = harness.end_to_end(traced, base, slo)
    plain_e2e = harness.end_to_end(plain, base, slo)
    if args.workload == "svc-open":
        # The open loop's rate is pinned by its schedule: compare the
        # time an op takes instead.
        overhead = 1.0 - harness.safe_div(plain_e2e["op_latency_p50_ms"],
                                          traced_e2e["op_latency_p50_ms"], 1.0)
    else:
        overhead = 1.0 - harness.safe_div(traced_e2e["ops_per_s"],
                                          plain_e2e["ops_per_s"], 1.0)
    ops = sum(s.attempted for s in traced)
    layer = {name: 0.0 for name in catalog.LAYER_NAMES}
    layer.update(workload.layer_metrics(traced, recorder, telemetry))
    layer["telemetry.events_per_op"] = harness.safe_div(
        telemetry.bus.published, ops)
    layer["telemetry.traced_overhead_share"] = overhead
    layer.update(workload.extras(args.seconds * 0.25))
    _kept, dropped = harness.keep_segments(traced + plain)
    layer["host.segments_dropped_share"] = dropped
    slices = calibrator.slices_ms
    layer["host.calib_ms_p50"] = harness.median(slices)
    layer["host.calib_spread"] = harness.safe_div(
        harness.percentile(slices, 0.9), harness.percentile(slices, 0.1))
    layer.update(probes.run_all(args.smoke))
    layer["host.nproc"] = float(nproc)
    submit_p50 = layer.pop("service.submit_p50_us", None)
    if submit_p50 is not None:
        layer["service.submit_self_us"] = max(
            0.0, submit_p50 - layer["thread.chain2_roundtrip_us"])
    doc["metrics"] = layer
    doc["attempted"] = traced_e2e["_attempted"] + plain_e2e["_attempted"]
    doc["failed"] = traced_e2e["_failed"] + plain_e2e["_failed"]
    doc["spans"] = len(recorder.finished())
    if args.trace_out:
        recorder.write_chrome_trace(args.trace_out, args.workload)


if __name__ == "__main__":
    raise SystemExit(main())
