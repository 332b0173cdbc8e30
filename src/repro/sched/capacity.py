"""Cluster-scale capacity simulation for the scheduler catalogue.

``python -m repro.sched.capacity`` sweeps cores x arrival rate x
scheduler over large synthetic open-arrival regions (10^5-10^6 tasks)
and reports throughput and sojourn-latency percentiles per
configuration — the "how far does each discipline scale" companion to
the per-app benchmarks in :mod:`repro.bench`.

The model is a discrete-event M/G/c queue driven through the *real*
:class:`repro.sched.Scheduler` objects: tasks arrive on a Poisson
process (rate ``--rates`` x cores, i.e. offered load per core), carry
exponential service demands plus the scheduling hints the keyed
disciplines read (priority, absolute deadline, cost estimate), and are
submitted ``sheddable=True`` so bounded queues genuinely reject under
overload instead of parking (see
:class:`repro.sched.BoundedScheduler`).  Every dispatch goes through
``submit``/``pick``, so pick counts, steal counts, shed counts and the
queue-residence histogram are the same instrumentation the runtime
backends publish.

Results are written as a capacity document (:data:`SCHEMA`, one
workload per ``<scheduler>/cores<C>/rate<R>`` cell), the format
:func:`repro.service.pick_concurrency` reads and
``python -m repro.service.loadgen`` also writes.  Same seed, same curve:
the task stream for a given (cores, rate, seed) cell is identical across
schedulers, and the whole sweep is deterministic.  FCFS throughput must
not fall as cores grow (:func:`check_monotone`; tier-1 tests assert it).

See ``docs/schedulers.md`` ("Reading capacity curves") for how to
interpret the output.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence

from ..core.errors import SchedulerError
from .schedulers import SCHEDULER_NAMES, make_scheduler

#: Mean service demand in virtual seconds; rates are offered load per
#: core relative to this (rate 1.0 = saturation).
MEAN_SERVICE = 1.0

#: Schema tag of capacity documents.  The name dates from the retired
#: bench-baseline format; it is kept so existing curve files still load.
SCHEMA = "repro-bench-baseline/1"


class SynthTask:
    """One synthetic task: its own spec (duck-typed for repro.sched).

    Carries the hint attributes the keyed disciplines read directly —
    there is no ``.spec`` indirection, which
    :func:`repro.sched.schedulers._spec` handles by treating the task as
    its own attribute carrier.
    """

    __slots__ = ("name", "arrival", "service", "priority", "deadline",
                 "cost_estimate", "started", "finished")

    def __init__(self, name: str, arrival: float, service: float,
                 priority: float, deadline: float, cost_estimate: float):
        self.name = name
        self.arrival = arrival
        self.service = service
        self.priority = priority
        self.deadline = deadline
        self.cost_estimate = cost_estimate
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SynthTask({self.name}, arrival={self.arrival:.3f})"


def synthesize(tasks: int, cores: int, rate: float,
               seed: int) -> List[SynthTask]:
    """Generate one deterministic open-arrival task stream.

    The stream depends on (tasks, cores, rate, seed) only — notably
    *not* on the scheduler — so every discipline in a sweep faces the
    identical workload and the curves are directly comparable.
    """
    rng = random.Random(f"capacity:{seed}:{tasks}:{cores}:{rate!r}")
    arrival_rate = rate * cores / MEAN_SERVICE
    stream: List[SynthTask] = []
    now = 0.0
    for index in range(tasks):
        now += rng.expovariate(arrival_rate)
        service = rng.expovariate(1.0 / MEAN_SERVICE)
        stream.append(SynthTask(
            name=f"t{index}",
            arrival=now,
            service=service,
            priority=rng.random(),
            deadline=now + service * rng.uniform(2.0, 10.0),
            cost_estimate=service))
    return stream


def simulate(stream: Sequence[SynthTask], scheduler: Any,
             cores: int) -> Dict[str, Any]:
    """Run one configuration cell and return its workload record."""
    heap: List[tuple] = []
    for sequence, task in enumerate(stream):
        heap.append((task.arrival, sequence, "arrive", task, -1))
    heapq.heapify(heap)
    sequence = len(stream)
    free: List[int] = list(range(cores))
    completed: List[SynthTask] = []
    shed = 0
    now = 0.0
    while heap:
        now, _, kind, task, core = heapq.heappop(heap)
        if kind == "arrive":
            if not scheduler.submit(task, now=now, sheddable=True):
                shed += 1
        else:
            task.finished = now
            completed.append(task)
            free.append(core)
        while free and scheduler.pending():
            picked = scheduler.pick(now=now, worker=free[-1])
            if picked is None:
                break
            slot = free.pop()
            picked.started = now
            heapq.heappush(
                heap, (now + picked.service, sequence, "finish", picked, slot))
            sequence += 1
    makespan = now
    sojourns = sorted(task.finished - task.arrival for task in completed)
    counters = scheduler.counters()
    record = {
        "tasks_offered": len(stream),
        "tasks_completed": len(completed),
        "tasks_shed": shed,
        "makespan": makespan,
        "throughput": (len(completed) / makespan) if makespan > 0 else 0.0,
        "latency_p50": _percentile(sojourns, 0.50),
        "latency_p95": _percentile(sojourns, 0.95),
        "latency_p99": _percentile(sojourns, 0.99),
        "deadline_misses": sum(
            1 for task in completed if task.finished > task.deadline),
        "picks": counters["picks"],
        "steals": counters["steals"],
    }
    assert len(completed) + shed == len(stream), \
        "capacity accounting: every offered task completes or is shed"
    assert counters["sheds"] == shed, \
        "scheduler shed counter disagrees with the driver's count"
    return record


def _percentile(sorted_values: List[float], quantile: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(quantile * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_sweep(tasks: int, schedulers: Sequence[str], cores: Sequence[int],
              rates: Sequence[float], seed: int,
              queue_capacity: Optional[int] = None,
              telemetry: Optional[Any] = None,
              progress=None) -> Dict[str, Dict[str, Any]]:
    """The full sweep: one workload record per scheduler/cores/rate cell."""
    workloads: Dict[str, Dict[str, Any]] = {}
    for spec in schedulers:
        for core_count in cores:
            for rate in rates:
                effective = spec
                if queue_capacity is not None and \
                        not str(spec).startswith("bounded"):
                    effective = f"bounded:capacity={queue_capacity},inner={spec}"
                scheduler = make_scheduler(effective).bind(
                    bus=telemetry.bus if telemetry is not None else None,
                    point="core", workers=core_count)
                stream = synthesize(tasks, core_count, rate, seed)
                record = simulate(stream, scheduler, core_count)
                record["scheduler"] = scheduler.describe()
                if telemetry is not None:
                    telemetry.record_scheduler(scheduler)
                key = f"{spec}/cores{core_count}/rate{rate:g}"
                workloads[key] = record
                if progress is not None:
                    progress(key, record)
    return workloads


def check_monotone(workloads: Dict[str, Dict[str, Any]],
                   schedulers: Sequence[str], cores: Sequence[int],
                   rates: Sequence[float],
                   tolerance: float = 0.02) -> List[str]:
    """Sanity property: FCFS throughput must not shrink as cores grow.

    Offered load scales with cores (rates are per-core), so for the
    work-conserving FCFS discipline each added core must carry its
    share; a drop beyond ``tolerance`` signals a scheduler or driver
    bug.  Returns human-readable violation strings (empty = pass).
    """
    violations: List[str] = []
    if "fcfs" not in schedulers:
        return violations
    ordered_cores = sorted(cores)
    for rate in rates:
        previous = None
        for core_count in ordered_cores:
            record = workloads.get(f"fcfs/cores{core_count}/rate{rate:g}")
            if record is None:
                continue
            current = record["throughput"]
            if previous is not None and current < previous * (1 - tolerance):
                violations.append(
                    f"fcfs rate={rate:g}: throughput fell from "
                    f"{previous:.3f} ({previous_cores} cores) to "
                    f"{current:.3f} ({core_count} cores)")
            previous, previous_cores = current, core_count
    return violations


def current_rev() -> str:
    """The repository revision to stamp into written documents."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def envelope(config: Dict[str, Any],
             workloads: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Wrap sweep cells in the capacity-document envelope."""
    return {
        "schema": SCHEMA,
        "rev": current_rev(),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config,
        "workloads": workloads,
    }


def capacity_document(workloads: Dict[str, Dict[str, Any]], *,
                      tasks: int, seed: int, schedulers: Sequence[str],
                      cores: Sequence[int], rates: Sequence[float],
                      queue_capacity: Optional[int]) -> Dict[str, Any]:
    """Wrap a capacity sweep in the :data:`SCHEMA` envelope."""
    return envelope({
        "backend": "capacity",
        "quick": tasks <= 10_000,
        "app": None,
        "tasks": tasks,
        "seed": seed,
        "schedulers": list(schedulers),
        "cores": list(cores),
        "rates": list(rates),
        "queue_capacity": queue_capacity,
    }, workloads)


def _parse_list(text: str, kind, what: str) -> list:
    try:
        values = [kind(token) for token in text.split(",") if token.strip()]
    except ValueError:
        raise SystemExit(f"capacity: bad {what} list {text!r}")
    if not values:
        raise SystemExit(f"capacity: empty {what} list")
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sched.capacity",
        description="Sweep schedulers x cores x arrival rate over large "
                    "synthetic open-arrival regions.")
    parser.add_argument("--tasks", type=int, default=100_000,
                        help="tasks per sweep cell (default 100000)")
    parser.add_argument("--schedulers", default="fcfs,edf",
                        help="comma-separated scheduler specs "
                        f"(catalogue: {', '.join(SCHEDULER_NAMES)})")
    parser.add_argument("--cores", default="1,4,16",
                        help="comma-separated core counts (default 1,4,16)")
    parser.add_argument("--rates", default="0.8,1.2",
                        help="offered load per core, comma-separated "
                        "(1.0 = saturation; default 0.8,1.2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--queue-capacity", type=int, default=None,
                        help="wrap each scheduler in bounded admission "
                        "with this capacity (tasks beyond it are shed)")
    parser.add_argument("--out", default=None,
                        help="write the sweep as a capacity JSON document")
    parser.add_argument("--metrics-out", default=None,
                        help="also dump aggregated sched.* metrics "
                        "(repro.telemetry metrics schema)")
    args = parser.parse_args(argv)

    if args.tasks < 1:
        parser.error("--tasks must be >= 1")
    schedulers = _parse_list(args.schedulers, str, "scheduler")
    cores = _parse_list(args.cores, int, "cores")
    rates = _parse_list(args.rates, float, "rate")
    for spec in schedulers:
        try:
            make_scheduler(spec)  # validate specs before the expensive sweep
        except SchedulerError as error:
            parser.error(str(error))
    if any(count < 1 for count in cores):
        parser.error("--cores entries must be >= 1")
    if any(rate <= 0 for rate in rates):
        parser.error("--rates entries must be > 0")

    telemetry = None
    if args.metrics_out is not None:
        from ..telemetry import Telemetry

        telemetry = Telemetry(chrome=False)

    def progress(key: str, record: Dict[str, Any]) -> None:
        print(f"  {key}: throughput={record['throughput']:.3f} "
              f"p50={record['latency_p50']:.3f} "
              f"p95={record['latency_p95']:.3f} "
              f"p99={record['latency_p99']:.3f} "
              f"shed={record['tasks_shed']}")

    cells = len(schedulers) * len(cores) * len(rates)
    print(f"capacity sweep: {args.tasks} tasks x {cells} cells "
          f"(seed {args.seed})")
    workloads = run_sweep(
        args.tasks, schedulers, cores, rates, args.seed,
        queue_capacity=args.queue_capacity, telemetry=telemetry,
        progress=progress)

    if args.out is not None:
        document = capacity_document(
            workloads, tasks=args.tasks, seed=args.seed,
            schedulers=schedulers, cores=cores, rates=rates,
            queue_capacity=args.queue_capacity)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if telemetry is not None:
        telemetry.run_finished(0.0, max(cores))
        telemetry.write(metrics_out=args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
