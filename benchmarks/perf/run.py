"""The repository's performance benchmark: one command, every metric.

    python3 benchmarks/perf/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace 0|1] [--no-trace] [--smoke] [--out FILE]

Each workload runs in a fresh subprocess (``child.py``), every op's
output is verified, every metric is printed by name with its unit, and
the full record (per-segment raw values and host factors included) is
written to ``benchmarks/perf/out/results.json``.

Without ``--trace`` both runs are made for each chosen workload: the
measured run with tracing off (end-to-end metrics) and the traced run
(per-layer metrics, ``out/trace-<workload>.json``).  With ``--trace 0``
or ``--trace 1`` only that run is made — this is how the driver calls
it, one workload at a time — and the last line of standard output is
the driver's result object.  The exit code is non-zero if any op's
output was wrong, a run left a process, thread or shared-memory segment
behind, or the emitted metric names differ from the catalogue.

README.md in this directory explains the workloads, the time base and
how to compare two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import catalog  # noqa: E402

#: Fresh processes per measured run.  Two processes running the same
#: code on the same inputs differ by a few percent for their whole life
#: (memory layout, where the host happened to place them), more than
#: one process differs from itself over time; so a measured run is
#: split over three processes and every metric is the median of the
#: three (``setup_s`` thereby the median of three set-ups).
PROCESSES = 3
CHILD_TIMEOUT_S = 170.0


def spawn_child(workload: str, seed: int, seconds: float, trace: int,
                smoke: bool, trace_out: str = "") -> dict:
    """Run ``child.py`` to completion and return its JSON document."""
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", repr(time.perf_counter())]
    # One hash seed for every process: string hashing decides dict
    # layouts, and with them a percent or two of a process's speed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                               text=True, env=env)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise RuntimeError(f"{workload}: child timed out") from None
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload}: child exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_measured(workload: str, seed: int, seconds: float,
                 smoke: bool) -> dict:
    """The untraced run: ``PROCESSES`` fresh processes share the
    measuring time; each metric is the median over them."""
    children = [spawn_child(workload, seed, seconds / PROCESSES, 0, smoke)
                for _ in range(PROCESSES)]
    doc = {key: children[0][key]
           for key in ("workload", "seed", "trace", "time_base",
                       "pinned_cpu", "input_digest")}
    doc["seconds"] = seconds
    doc["processes"] = children
    for field in ("metrics", "metrics_other_base"):
        doc[field] = {
            name: statistics.median(c[field][name] for c in children)
            for name in children[0][field] if not name.startswith("_")}
    for name in ("_attempted", "_failed", "_n_latencies"):
        doc["metrics"][name] = sum(c["metrics"][name] for c in children)
    doc["leftovers"] = [item for c in children for item in c["leftovers"]]
    doc["errors"] = [item for c in children for item in c["errors"]]
    if len({c["input_digest"] for c in children}) != 1:
        doc["leftovers"].append("the processes of one run saw different "
                                "inputs for one seed")
    return doc


def run_traced(workload: str, seed: int, seconds: float,
               smoke: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}.json")
    doc = spawn_child(workload, seed, seconds, 1, smoke,
                      trace_out=trace_out)
    doc["trace_file"] = os.path.relpath(trace_out, ROOT)
    return doc


def public_metrics(doc: dict) -> dict:
    """``{name: {"value", "unit"}}`` for the names the catalogue lists."""
    names, units = ((catalog.E2E_NAMES, catalog.E2E_UNITS)
                    if doc["trace"] == 0
                    else (catalog.LAYER_NAMES, catalog.LAYER_UNITS))
    return {name: {"value": doc["metrics"][name], "unit": units[name]}
            for name in names if name in doc["metrics"]}


def problems(doc: dict) -> list:
    found = list(doc.get("leftovers", []))
    emitted = {name for name in doc["metrics"] if not name.startswith("_")}
    expected = set(catalog.E2E_NAMES if doc["trace"] == 0
                   else catalog.LAYER_NAMES)
    if emitted != expected:
        found.append(f"metric names differ from the catalogue: "
                     f"missing {sorted(expected - emitted)}, "
                     f"extra {sorted(emitted - expected)}")
    for name, value in doc["metrics"].items():
        if not isinstance(value, (int, float)) or value != value \
                or value in (float("inf"), float("-inf")):
            found.append(f"{name} is not a finite number: {value!r}")
    if doc["trace"] == 0:
        if doc["metrics"]["ok_share"] < 1.0:
            found.append(f"ok_share {doc['metrics']['ok_share']:.6f} < 1: "
                         f"{doc['metrics']['_failed']} ops failed "
                         f"verification {doc.get('errors', [])[:3]}")
    elif doc["failed"]:
        found.append(f"{doc['failed']} ops failed verification")
    return found


def counts(doc: dict) -> "tuple[int, int]":
    if doc["trace"] == 0:
        return doc["metrics"]["_attempted"], doc["metrics"]["_failed"]
    return doc["attempted"], doc["failed"]


def report(doc: dict) -> None:
    mode = "end-to-end, tracing off" if doc["trace"] == 0 else "per-layer, traced"
    print(f"\n== {doc['workload']} ({mode}; seed {doc['seed']}, "
          f"time base {doc['time_base']}, inputs {doc['input_digest']})")
    for name, entry in public_metrics(doc).items():
        print(f"  {name:42s} {entry['value']:14.6g} {entry['unit']}")
    if doc["trace"] == 0:
        children = doc["processes"]
        print(f"  ({doc['metrics']['_n_latencies']} op latencies over "
              f"{sum(len(c['segments']) for c in children)} segments in "
              f"{len(children)} processes; set-ups "
              + ", ".join(f"{c['setup_s']:.3f}" for c in children) + " s)")
    else:
        print(f"  ({doc['spans']} spans -> {doc['trace_file']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the performance benchmark (see README.md).")
    parser.add_argument("--workload", action="append",
                        choices=list(catalog.WORKLOADS),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", "--duration", type=float,
                        default=float(catalog.RUN_SECONDS), dest="seconds",
                        help="length of each run's measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: only the untraced run; 1: only the traced "
                        "run; default both")
    parser.add_argument("--no-trace", action="store_true",
                        help="same as --trace 0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and phases, for the smoke test")
    parser.add_argument("--out", default=os.path.join(OUT_DIR,
                                                      "results.json"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("benchmarks/perf: there is no program to measure under "
              f"{os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = args.workload or list(catalog.WORKLOADS)
    if args.no_trace:
        args.trace = 0
    modes = (0, 1) if args.trace is None else (args.trace,)
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds

    docs = []
    failures = []
    for workload in workloads:
        for mode in modes:
            runner = run_measured if mode == 0 else run_traced
            doc = runner(workload, args.seed, seconds, args.smoke)
            docs.append(doc)
            report(doc)
            failures += [f"{workload}: {p}" for p in problems(doc)]

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"schema": "repro-perf/1", "seed": args.seed,
                   "seconds": seconds, "smoke": args.smoke,
                   "runs": docs}, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {os.path.relpath(args.out, os.getcwd())}")
    for failure in failures:
        print(f"BENCHMARK PROBLEM: {failure}", file=sys.stderr)

    single = len(docs) == 1
    metrics = {}
    attempted = failed = 0
    for doc in docs:
        prefix = "" if single else f"{doc['workload']}/"
        for name, entry in public_metrics(doc).items():
            metrics[prefix + name] = entry
        run_attempted, run_failed = counts(doc)
        attempted += run_attempted
        failed += run_failed
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
