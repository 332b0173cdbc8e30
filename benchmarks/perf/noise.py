"""Noise study: do repeated runs of the same code agree within the bounds?

    python3 benchmarks/perf/noise.py [--runs N] [--spacing S] [--seconds S]
        [--workload W ...] [--write]

Runs the measured (untraced) benchmark ``N`` times, each with another
seed and ``S`` seconds apart, and prints per workload and end-to-end
metric, in *both* time bases, the median, the interquartile spread as a
share of the median (what the driver gates on: it must stay within the
metric's bound, and should stay within a third of it) and the max-min
spread.  Exits non-zero if an interquartile spread in the workload's
own time base exceeds its bound.  ``--write`` stores the table as
``NOISE.md`` beside this file.

A metric that fails is fixed by its estimator or the workload's sizing,
or demoted to a per-layer diagnostic — never by widening its bound.  If
the other time base repeats at least 1.5x better for a workload on the
time-valued metrics, switch ``time_base`` in ``catalog.py`` and say so
in the README.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402

#: Metrics whose value depends on the time base.
TIMED = ("ops_per_s", "op_latency_p50_ms", "slo_share", "cpu_ms_per_op")


def spreads(values: list) -> "tuple[float, float, float]":
    """(median, interquartile spread / median, (max - min) / median)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return middle, 0.0, 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (middle, (quartiles[2] - quartiles[0]) / abs(middle),
            (max(values) - min(values)) / abs(middle))


def study(workloads: list, runs: int, spacing: float, seconds: float,
          first_seed: int) -> dict:
    """``{workload: {"own": {metric: [values]}, "other": {...}}}``."""
    collected = {w: {"own": {}, "other": {}, "base": ""} for w in workloads}
    for index in range(runs):
        if index:
            time.sleep(spacing)
        for workload in workloads:
            doc = run.run_measured(workload, first_seed + index, seconds,
                                   smoke=False)
            for problem in run.problems(doc):
                print(f"BENCHMARK PROBLEM: {workload}: {problem}",
                      file=sys.stderr)
            entry = collected[workload]
            entry["base"] = doc["time_base"]
            for name in catalog.E2E_NAMES:
                entry["own"].setdefault(name, []).append(
                    doc["metrics"][name])
            for name in TIMED:
                entry["other"].setdefault(name, []).append(
                    doc["metrics_other_base"][name])
            print(f"run {index + 1}/{runs} {workload}: " + ", ".join(
                f"{name}={doc['metrics'][name]:.4g}"
                for name in ("ops_per_s", "op_latency_p50_ms", "slo_share")),
                flush=True)
    return collected


def render(collected: dict, runs: int, seconds: float) -> "tuple[str, int]":
    bounds = {name: bound for name, _u, _b, bound, _d in catalog.END_TO_END}
    lines = [
        "# Noise study", "",
        f"{runs} invocations of the measured run ({seconds:g} s each, a "
        "different seed each time) on the recording host.  `iqr` is the "
        "distance between the first and third quartile as a share of the "
        "median (the driver's gate; target: a third of the bound), `range` "
        "is (max - min) / median.  `other` columns repeat the time-valued "
        "metrics in the time base the workload does *not* use.", ""]
    excess = 0
    for workload, entry in collected.items():
        other_base = "wall" if entry["base"] == "host" else "host"
        lines += [f"## {workload} (time base: {entry['base']})", "",
                  f"| metric | bound | median | iqr | range | "
                  f"{other_base} median | {other_base} iqr | "
                  f"{other_base} range |",
                  "|---|---|---|---|---|---|---|---|"]
        for name in catalog.E2E_NAMES:
            middle, iqr, spread = spreads(entry["own"][name])
            verdict = ""
            if name != "setup_s" and iqr > bounds[name]:
                verdict = " **over**"
                excess += 1
            row = (f"| `{name}` | {bounds[name]:.0%} | {middle:.5g} | "
                   f"{iqr:.2%}{verdict} | {spread:.2%} |")
            if name in entry["other"]:
                o_middle, o_iqr, o_spread = spreads(entry["other"][name])
                row += f" {o_middle:.5g} | {o_iqr:.2%} | {o_spread:.2%} |"
            else:
                row += " | | |"
            lines.append(row)
        lines.append("")
    return "\n".join(lines) + "\n", excess


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--spacing", type=float, default=120.0,
                        help="seconds to wait between invocations, so the "
                        "study spans the host's slow speed changes")
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS))
    parser.add_argument("--write", action="store_true",
                        help="store the table as NOISE.md")
    args = parser.parse_args(argv)
    workloads = args.workload or list(catalog.WORKLOADS)
    collected = study(workloads, args.runs, args.spacing, args.seconds,
                      args.seed)
    text, excess = render(collected, args.runs, args.seconds)
    print(text)
    if args.write:
        with open(os.path.join(HERE, "NOISE.md"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return 1 if excess else 0


if __name__ == "__main__":
    raise SystemExit(main())
