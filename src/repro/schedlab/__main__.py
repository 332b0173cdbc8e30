"""``python -m repro.schedlab`` — schedule exploration from the shell.

Subcommands
-----------

``sweep``
    Run N controlled schedules per scenario, shrink every simulator
    failure to a minimal decision list, and write replay artifacts.
    Exits 1 if any run failed (so CI fuzz jobs fail loudly), 0 otherwise.

``replay``
    Re-run one artifact's schedule deterministically on the simulator.
    Exits 0 when the recorded failure reproduces, 2 when it does not.

``list``
    Show available scenarios, policies and mutations.

Examples::

    python -m repro.schedlab sweep --seeds 50 --backend sim --strict
    python -m repro.schedlab sweep --scenarios racy --seeds 20 \\
        --artifact-dir artifacts
    python -m repro.schedlab sweep --mutate drop-update-signals \\
        --seeds 200 --stop-first --artifact-dir artifacts
    python -m repro.schedlab replay artifacts/racy-sim-seed3.json
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from ..core.errors import FluidError
from .faults import KINDS
from .harness import (MUTATIONS, load_artifact, replay_artifact, sweep)
from .scenarios import SCENARIOS

_log = logging.getLogger("repro.schedlab")


def _parse_fault(text: str) -> dict:
    """Parse ``kind[:task_pattern[:at_chunk[:count]]]`` CLI shorthand;
    an ``at_chunk`` of ``*`` fires at every chunk boundary."""
    parts = text.split(":")
    if not parts[0] or parts[0] not in KINDS:
        raise argparse.ArgumentTypeError(
            f"fault kind must be one of {', '.join(KINDS)} (got {text!r})")
    fault = {"kind": parts[0]}
    if len(parts) > 1 and parts[1]:
        fault["task"] = parts[1]
    if len(parts) > 2 and parts[2]:
        fault["at_chunk"] = None if parts[2] == "*" else int(parts[2])
    if len(parts) > 3 and parts[3]:
        fault["count"] = int(parts[3])
    if parts[0] == "delay":
        fault["cost"] = 5.0
    return fault


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.schedlab",
        description="Deterministic schedule exploration + fault injection "
                    "for the Fluid runtime")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise runtime errors with their full "
                             "traceback instead of the one-line error "
                             "(tracebacks are always logged at debug level)")
    commands = parser.add_subparsers(dest="command", required=True)

    sweep_cmd = commands.add_parser(
        "sweep", help="explore N schedules per scenario, shrink failures")
    sweep_cmd.add_argument("--seeds", type=int, default=25,
                           help="seeds per scenario (or schedule cap for "
                                "--policy exhaustive)")
    sweep_cmd.add_argument("--scenarios", default="",
                           help="comma-separated scenario names "
                                "(default: all sweep-eligible)")
    sweep_cmd.add_argument("--backend", default="sim",
                           choices=("sim", "thread", "process"))
    sweep_cmd.add_argument("--policy", default="random",
                           choices=("fifo", "random", "pct", "exhaustive"))
    sweep_cmd.add_argument("--depth", type=int, default=3,
                           help="PCT depth / exhaustive enumeration depth")
    sweep_cmd.add_argument("--jitter", type=float, default=0.0,
                           help="max seconds of seeded wake-point jitter "
                                "(thread backend chaos mode)")
    sweep_cmd.add_argument("--strict", action="store_true",
                           help="strict valves + serial-elision "
                                "equivalence check")
    sweep_cmd.add_argument("--mutate", default=None,
                           choices=sorted(MUTATIONS),
                           help="disable a guard seam for every run "
                                "(mutation testing)")
    sweep_cmd.add_argument("--fault", action="append", default=[],
                           type=_parse_fault,
                           metavar="KIND[:TASK[:CHUNK|*[:COUNT]]]",
                           help="inject a fault (repeatable); kinds: "
                                + ", ".join(KINDS))
    sweep_cmd.add_argument("--artifact-dir", default=None,
                           help="write minimized failing schedules here")
    sweep_cmd.add_argument("--stop-first", action="store_true",
                           help="stop at the first failure")
    sweep_cmd.add_argument("--no-shrink", action="store_true",
                           help="skip schedule minimization")
    sweep_cmd.add_argument("--cores", type=int, default=4,
                           help="simulator virtual cores")
    sweep_cmd.add_argument("--timeout", type=float, default=15.0,
                           help="real-backend wall-clock deadline per run")
    sweep_cmd.add_argument("--workers", type=int, default=2,
                           help="process-backend pool size")
    sweep_cmd.add_argument("--scheduler", default=None,
                           metavar="SPEC",
                           help="repro.sched discipline for every run "
                                "(e.g. edf, bounded:capacity=4,inner="
                                "priority); default: fcfs")

    replay_cmd = commands.add_parser(
        "replay", help="re-run one artifact's schedule on the simulator")
    replay_cmd.add_argument("artifact", help="path to a sweep artifact JSON")
    replay_cmd.add_argument("--trace", action="store_true",
                            help="print the replayed execution trace")
    replay_cmd.add_argument("--trace-out", metavar="PATH",
                            help="write a Chrome/Perfetto trace JSON of "
                                 "the replayed schedule")
    replay_cmd.add_argument("--metrics-out", metavar="PATH",
                            help="write a telemetry metrics JSON dump of "
                                 "the replayed schedule")

    commands.add_parser("list", help="show scenarios, policies, mutations")
    return parser


def _cmd_sweep(options) -> int:
    names = [name.strip() for name in options.scenarios.split(",")
             if name.strip()] or None
    report = sweep(
        names, seeds=options.seeds, policy_name=options.policy,
        backend=options.backend, strict=options.strict,
        mutation=options.mutate, faults=options.fault or None,
        depth=options.depth, jitter_scale=options.jitter,
        artifact_dir=options.artifact_dir, shrink=not options.no_shrink,
        stop_first=options.stop_first, cores=options.cores,
        timeout=options.timeout, workers=options.workers,
        scheduler=options.scheduler, log=print)
    print(f"sweep: {report.runs} runs, {len(report.failures)} failures"
          + (f", {report.shrink_checks} shrink checks"
             if report.shrink_checks else ""))
    for path in report.artifacts:
        print(f"artifact: {path}")
    return 1 if report.failures else 0


def _cmd_replay(options) -> int:
    artifact = load_artifact(options.artifact)
    telemetry = None
    if options.trace_out or options.metrics_out:
        from ..telemetry import Telemetry
        telemetry = Telemetry()
    outcome = replay_artifact(artifact, trace=options.trace,
                              telemetry=telemetry)
    print(outcome.describe())
    if outcome.message:
        print(f"  {outcome.message[:200]}")
    if options.trace and outcome.trace is not None:
        print(outcome.trace.render())
    if telemetry is not None:
        telemetry.write(trace_out=options.trace_out,
                        metrics_out=options.metrics_out)
        for label, path in (("trace", options.trace_out),
                            ("metrics", options.metrics_out)):
            if path:
                print(f"wrote {label} to {path}")
    expected = artifact.get("failure")
    if outcome.failure == expected:
        print(f"reproduced: {expected or 'clean run'}")
        return 0
    print(f"DID NOT reproduce: expected {expected!r}, "
          f"got {outcome.failure!r}")
    return 2


def _cmd_list() -> int:
    print("scenarios:")
    for name, scenario in sorted(SCENARIOS.items()):
        flags = []
        if not scenario.in_default_sweep:
            flags.append("opt-in")
        if not scenario.supports_strict:
            flags.append("no-strict")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        print(f"  {name:<14} backends={','.join(scenario.backends)}{suffix}")
    print("policies: fifo, random, pct, exhaustive")
    print("mutations: " + ", ".join(sorted(MUTATIONS)))
    print("fault kinds: " + ", ".join(KINDS))
    from ..sched import SCHEDULER_NAMES

    print("schedulers: " + ", ".join(SCHEDULER_NAMES))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    options = _build_parser().parse_args(argv)
    try:
        if options.command == "sweep":
            return _cmd_sweep(options)
        if options.command == "replay":
            return _cmd_replay(options)
        return _cmd_list()
    except FluidError as error:
        _log.debug("schedlab %s failed", options.command, exc_info=True)
        if options.debug:
            raise
        print(f"error: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
