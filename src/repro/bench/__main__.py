"""Standalone benchmark runner: ``python -m repro.bench``.

Regenerates the Figure-6 headline table (and optionally a per-app
threshold sweep) without pytest — handy for quick explorations::

    python -m repro.bench                    # the Figure-6 matrix
    python -m repro.bench --quick            # one input per app
    python -m repro.bench --app kmeans       # just one app
    python -m repro.bench --sweep kmeans     # threshold sweep for one app
    python -m repro.bench --backend process  # real-core thread-vs-process

Baseline workflow (see docs/benchmarks.md)::

    python -m repro.bench --quick --save-baseline BENCH_abc123.json
    python -m repro.bench --quick --compare BENCH_abc123.json

``--compare`` exits non-zero when any workload's latency regressed by
more than ``--baseline-tolerance`` (default 15%) against the recorded
numbers; the report also tracks valve-check and re-execution drift.
``--fluid-backend thread`` runs the same matrix on real threads
(wall-clock baselines); ``--fluid-backend process`` benches the
process-contract-safe CPU-bound fan-out instead, since most Figure-6
apps alias payload buffers.  ``--save-baseline``/``--compare`` apply to
these matrix modes only; dispatch cost on real cores is measured by
``benchmarks/perf`` (``proc-pool``, ``process.dispatch_rtt_us.*``).
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from ..core.valves import set_memoization
from .harness import (cpu_bound_shapes, run_backend_bench, run_comparison,
                      run_region_comparison, standard_suite)
from .reporting import render_series, render_table

_log = logging.getLogger("repro.bench")


def collect_figure6_rows(only_app=None, quick=False, telemetry=None,
                         fluid_backend="sim", repeat=1, scheduler=None,
                         autotune=None):
    """Run the Figure-6 matrix; return the list of BenchRow objects."""
    rows = []
    telemetry_used = False
    for app_name, inputs in standard_suite().items():
        if only_app and app_name != only_app:
            continue
        for input_name, factory in inputs.items():
            extra = {}
            if scheduler is not None:
                extra["scheduler"] = scheduler
            if autotune is not None:
                # A spec string: each run_fluid builds a fresh tuner
                # (tuners are single-run objects).
                extra["autotune"] = autotune
            if fluid_backend != "sim":
                extra["backend"] = fluid_backend
            # Telemetry instruments the first fluid run only: one bus
            # records one executor's clock, so artifacts stay coherent.
            if telemetry is not None and not telemetry_used:
                extra["telemetry"] = telemetry
                telemetry_used = True
            row = run_comparison(factory(), input_name, repeat=repeat,
                                 **extra)
            rows.append(row)
            print(f"  ran {app_name}/{input_name}: "
                  f"latency {row.normalized_latency:.3f}, "
                  f"accuracy {row.normalized_accuracy:.3f}, "
                  f"valve checks {row.valve_checks}"
                  + (f" (+{row.valve_checks_skipped} memoized)"
                     if row.valve_checks_skipped else ""),
                  file=sys.stderr)
            if quick:
                break
    return rows


def collect_process_rows(quick=False, telemetry=None, workers=None,
                         repeat=1):
    """Bench the process-safe CPU-bound fan-out on the process backend."""
    rows = []
    telemetry_used = False
    for input_name, (tasks, iterations) in cpu_bound_shapes(quick).items():
        extra = {}
        if telemetry is not None and not telemetry_used:
            extra["telemetry"] = telemetry
            telemetry_used = True
        row = run_region_comparison(input_name, tasks, iterations,
                                    backend="process", workers=workers,
                                    repeat=repeat, **extra)
        rows.append(row)
        print(f"  ran cpu_bound/{input_name}: "
              f"{row.fluid_makespan:.3f}s wall, "
              f"valve checks {row.valve_checks}",
              file=sys.stderr)
    return rows


def print_rows(rows, fluid_backend="sim") -> None:
    table = [row.as_list() for row in rows]
    latencies = [row.normalized_latency for row in rows]
    accuracies = [row.normalized_accuracy for row in rows]
    table.append(["AVERAGE", "-", float(np.mean(latencies)),
                  float(np.mean(accuracies)), ""])
    unit = ("virtual time" if fluid_backend == "sim"
            else f"wall clock, {fluid_backend} backend")
    print(render_table(
        f"Fluidized latency and accuracy, normalized to the original "
        f"({unit})",
        ["app", "input", "norm latency", "norm accuracy", "native"],
        table))


def run_sweep(app_name: str, thresholds) -> int:
    suite = standard_suite()
    if app_name not in suite:
        print(f"unknown app {app_name!r}; have: {', '.join(suite)}",
              file=sys.stderr)
        return 1
    input_name, factory = next(iter(suite[app_name].items()))
    app = factory()
    precise = app.run_precise()
    latencies, accuracies = [], []
    for threshold in thresholds:
        fluid = app.run_fluid(threshold=threshold)
        latencies.append(fluid.makespan / precise.makespan)
        accuracies.append(fluid.accuracy)
    print(render_series(
        f"Threshold sweep: {app_name} ({input_name})", "threshold",
        thresholds, {"norm latency": latencies,
                     "norm accuracy": accuracies}))
    return 0


def run_backends(backend: str, workers, tasks, scale: float,
                 telemetry=None) -> int:
    """Figure-12 on real cores: time ``backend`` against the thread one."""
    row = run_backend_bench(backend=backend, workers=workers, tasks=tasks,
                            scale=scale, telemetry=telemetry)
    print(render_table(
        f"Real-core backend comparison ({row.tasks} tasks x "
        f"{row.iterations} iterations, {row.workers} workers)",
        ["backend", "wall seconds", "speedup vs thread"],
        [["thread", row.thread_seconds, 1.0],
         [row.backend, row.backend_seconds, row.speedup]]))
    if not row.outputs_match:
        print("ERROR: backend outputs diverged from the precise values",
              file=sys.stderr)
        return 1
    return 0


def run_matrix(args, telemetry=None) -> int:
    """The row-producing modes: Figure-6 matrix or process-safe regions,
    optionally recording or gating against a persistent baseline."""
    from . import baseline as baseline_mod

    memoization = not args.no_valve_memo
    repeat = args.repeat
    if repeat is None:
        # Wall-clock backends need per-workload means; sim is exact.
        repeat = 1 if args.fluid_backend == "sim" else 5
    previous = set_memoization(memoization)
    try:
        if args.fluid_backend == "process":
            if args.app:
                print("--fluid-backend process benches the process-safe "
                      "cpu_bound workload; --app does not apply",
                      file=sys.stderr)
                return 1
            rows = collect_process_rows(quick=args.quick,
                                        telemetry=telemetry,
                                        workers=args.workers,
                                        repeat=repeat)
        else:
            rows = collect_figure6_rows(args.app, quick=args.quick,
                                        telemetry=telemetry,
                                        fluid_backend=args.fluid_backend,
                                        repeat=repeat,
                                        scheduler=args.scheduler,
                                        autotune=args.autotune)
    finally:
        set_memoization(previous)
    if not rows:
        print(f"unknown app {args.app!r}; have: "
              f"{', '.join(standard_suite())}", file=sys.stderr)
        return 1
    print_rows(rows, fluid_backend=args.fluid_backend)

    status = 0
    if args.save_baseline:
        baseline_mod.save_baseline(
            args.save_baseline, rows, backend=args.fluid_backend,
            quick=args.quick, memoization=memoization, app=args.app,
            repeat=repeat)
        print(f"  saved baseline to {args.save_baseline}", file=sys.stderr)
    if args.compare:
        try:
            document = baseline_mod.load_baseline(args.compare)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot load baseline: {exc}", file=sys.stderr)
            return 1
        report = baseline_mod.compare_to_baseline(
            document, rows, backend=args.fluid_backend, quick=args.quick,
            memoization=memoization, app=args.app, repeat=repeat,
            tolerance=args.baseline_tolerance)
        print(report.render())
        status = 0 if report.ok else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's headline numbers.")
    parser.add_argument("--app", help="restrict to one application")
    parser.add_argument("--sweep", metavar="APP",
                        help="threshold sweep for one application")
    parser.add_argument("--thresholds", default="0.2,0.4,0.6,0.8,1.0",
                        help="comma-separated sweep thresholds")
    parser.add_argument("--backend", choices=("sim", "thread", "process"),
                        help="backend to benchmark: 'thread'/'process' time "
                             "a CPU-bound fan-out on real cores against the "
                             "thread baseline; 'sim' (the default) runs the "
                             "Figure-6 matrix on the simulator")
    parser.add_argument("--fluid-backend",
                        choices=("sim", "thread", "process"), default="sim",
                        help="backend executing the fluid runs of the "
                             "matrix: 'sim' (default, virtual time), "
                             "'thread' (the same apps, wall clock), or "
                             "'process' (the process-contract-safe "
                             "cpu_bound fan-out, wall clock)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizing: one input per app for the "
                             "Figure-6 matrix, a smaller real-core workload")
    parser.add_argument("--scale", type=float, default=None,
                        help="iteration-count multiplier for the real-core "
                             "backend workload (default 1.0, or 0.05 with "
                             "--quick)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for --backend process "
                             "(default: all cores)")
    parser.add_argument("--tasks", type=int, default=None,
                        help="fan-out width for the real-core backend "
                             "workload (default: max(2, workers))")
    parser.add_argument("--repeat", type=int, default=None,
                        help="fluid runs per workload; rows record the "
                             "mean (default 1 on the simulator, 5 on the "
                             "wall-clock fluid backends)")
    parser.add_argument("--scheduler", default=None, metavar="SPEC",
                        help="repro.sched discipline for the matrix's fluid "
                             "runs (e.g. edf, priority, "
                             "bounded:capacity=8,inner=sew); default: the "
                             "paper-faithful fcfs.  Figure-6 matrix only "
                             "(sim/thread fluid backends)")
    parser.add_argument("--autotune", default=None, metavar="SPEC",
                        help="repro.tuning closed-loop autotune spec for the "
                             "matrix's fluid runs (e.g. "
                             "accuracy_floor:target=0.9,window=1); default: "
                             "static valves.  Figure-6 matrix only.  For the "
                             "SLO x controller sweep use python -m "
                             "repro.bench.autotune_sweep")
    parser.add_argument("--no-valve-memo", action="store_true",
                        help="disable valve-check memoization for the run "
                             "(for before/after efficiency comparisons)")
    parser.add_argument("--save-baseline", metavar="PATH",
                        help="write a machine-readable baseline JSON "
                             "(per-workload latency, valve checks, "
                             "re-executions) for later --compare runs")
    parser.add_argument("--compare", metavar="PATH",
                        help="gate this run against a recorded baseline; "
                             "exits non-zero on latency regressions beyond "
                             "--baseline-tolerance")
    parser.add_argument("--baseline-tolerance", type=float, default=0.15,
                        help="allowed fractional latency increase per "
                             "workload before --compare fails "
                             "(default 0.15)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome/Perfetto trace JSON of the "
                             "first (or measured) fluid run")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a telemetry metrics JSON dump of the "
                             "first (or measured) fluid run "
                             "(inspect with python -m repro.telemetry)")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise spec/validation errors with their "
                             "full traceback instead of the one-line CLI "
                             "error (tracebacks are always logged at "
                             "debug level)")
    args = parser.parse_args(argv)

    if (args.save_baseline or args.compare) and args.sweep:
        parser.error("--save-baseline/--compare do not apply to --sweep")
    if (args.save_baseline or args.compare) and \
            args.backend in ("thread", "process"):
        parser.error("--save-baseline/--compare apply to the matrix modes "
                     "only, not to the real-core --backend comparison")
    if args.scheduler is not None:
        if args.sweep or args.backend in ("thread", "process") or \
                args.fluid_backend == "process":
            parser.error("--scheduler applies to the Figure-6 matrix with "
                         "--fluid-backend sim/thread only")
        from ..sched import make_scheduler

        try:
            make_scheduler(args.scheduler)
        except Exception as error:  # noqa: BLE001 - surfaced as CLI error
            _log.debug("bad --scheduler spec %r", args.scheduler,
                       exc_info=True)
            if args.debug:
                raise
            parser.error(str(error))
    if args.autotune is not None:
        if args.sweep or args.backend in ("thread", "process") or \
                args.fluid_backend == "process":
            parser.error("--autotune applies to the Figure-6 matrix with "
                         "--fluid-backend sim/thread only")
        from ..tuning import make_autotuner

        try:
            make_autotuner(args.autotune)
        except Exception as error:  # noqa: BLE001 - surfaced as CLI error
            _log.debug("bad --autotune spec %r", args.autotune,
                       exc_info=True)
            if args.debug:
                raise
            parser.error(str(error))

    telemetry = None
    if args.trace_out or args.metrics_out:
        from ..telemetry import Telemetry
        telemetry = Telemetry()

    if args.sweep:
        thresholds = [float(token) for token in
                      args.thresholds.split(",") if token]
        status = run_sweep(args.sweep, thresholds)
    elif args.backend in ("thread", "process"):
        scale = args.scale
        if scale is None:
            scale = 0.05 if args.quick else 1.0
        status = run_backends(args.backend, args.workers, args.tasks, scale,
                              telemetry=telemetry)
    else:
        status = run_matrix(args, telemetry=telemetry)
    if telemetry is not None and status == 0:
        telemetry.write(trace_out=args.trace_out,
                        metrics_out=args.metrics_out)
        for label, path in (("trace", args.trace_out),
                            ("metrics", args.metrics_out)):
            if path:
                print(f"  wrote {label} to {path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
