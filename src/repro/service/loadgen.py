"""Open-loop load generator for :class:`repro.service.FluidService`.

``python -m repro.service.loadgen`` drives a real service instance with
seeded Poisson arrivals of small synthetic Fluid regions, sweeping the
offered arrival rate, and reports per-rate throughput and request
latency percentiles.  Results are written as a capacity document
(:data:`repro.sched.capacity.SCHEMA`) with ``<discipline>/cores<slots>/
rate<R>`` workload keys — the same cell format as
``python -m repro.sched.capacity`` — so a measured service sweep can be
fed back into :func:`repro.service.pick_concurrency` as the
``capacity_curves`` admission policy input.

:func:`check_sweep` states the service invariants a sweep must hold
(tier-1 tests assert them): every request completes or is observably
shed, no *must-run* request is ever shed, and completed throughput does
not collapse as offered load grows.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import time
from typing import Any, Dict, List, Optional, Sequence

from .. import FluidRegion, PercentValve, PredicateValve
from ..sched.capacity import _percentile, envelope
from .admission import AdmissionError
from .service import FluidService


def make_request_region(index: int, rng: random.Random,
                        min_items: int = 8, max_items: int = 24):
    """One synthetic request: a producer->consumer pipeline region.

    Returns ``(region, expected, cost_estimate)``; sizes are drawn from
    ``rng`` so a seeded stream is identical across sweeps and backends.
    The end valve demands the exact answer, so a completed request is
    also a *correct* request.
    """
    n = rng.randint(min_items, max_items)
    expected = [2 * i + 1 for i in range(n)]
    return request_region(index, n), expected, float(n)


def request_region(index: int, n: int) -> FluidRegion:
    """The ``n``-item request region of :func:`make_request_region`; its
    own ``remote_factory``, so the process backend can run it."""

    class Request(FluidRegion):
        def build(self):
            src = self.input_data("src", list(range(n)))
            mid = self.add_array("mid", [0] * n)
            out = self.add_array("out", [0] * n)
            ct = self.add_count("ct")

            def produce(ctx):
                data = src.read()
                for i in range(n):
                    mid[i] = data[i] * 2
                    ct.add()
                    yield 1.0

            def consume(ctx):
                for i in range(n):
                    out[i] = mid[i] + 1
                    yield 1.0

            self.add_task("produce", produce, inputs=[src], outputs=[mid])
            self.add_task(
                "consume", consume,
                start_valves=[PercentValve(ct, 0.4, n)],
                end_valves=[PredicateValve(
                    lambda: all(out[i] == 2 * i + 1 for i in range(n)),
                    name="exact")],
                inputs=[mid], outputs=[out])

    region = Request(f"req-{index}")
    region.remote_factory = (request_region, (index, n), {})
    return region


async def run_rate(rate: float, requests: int, *, slots: int,
                   queue_capacity: int, discipline: str,
                   sheddable_fraction: float, seed: int,
                   backend: str = "thread",
                   batch_max: int = 1,
                   batch_cost_threshold: Optional[float] = None,
                   latency_slo: Optional[float] = None) -> Dict[str, Any]:
    """Drive one service at one offered rate; return its workload record."""
    rng = random.Random(f"loadgen:{seed}:{rate!r}")
    service = FluidService(
        backend=backend, slots=slots, queue_capacity=queue_capacity,
        discipline=discipline, latency_slo=latency_slo,
        batch_max=batch_max, batch_cost_threshold=batch_cost_threshold,
        name=f"loadgen-r{rate:g}")
    latencies: List[float] = []
    queue_waits: List[float] = []
    shed = 0
    must_run_shed = 0
    failures = 0
    slo_met = 0
    wrong = 0

    async def one(index: int) -> None:
        nonlocal shed, must_run_shed, failures, slo_met, wrong
        region, expected, cost = make_request_region(index, rng)
        sheddable = rng.random() < sheddable_fraction
        try:
            result = await service.submit(
                region, sheddable=sheddable, cost_estimate=cost)
        except AdmissionError:
            shed += 1
            if not sheddable:
                must_run_shed += 1
            return
        except Exception:
            failures += 1
            return
        latencies.append(result.latency)
        queue_waits.append(result.queue_wait)
        if result.slo_met:
            slo_met += 1
        if list(region.output("out")) != expected:
            wrong += 1

    started = time.perf_counter()
    inflight = []
    for index in range(requests):
        inflight.append(asyncio.ensure_future(one(index)))
        await asyncio.sleep(rng.expovariate(rate))
    await asyncio.gather(*inflight)
    elapsed = time.perf_counter() - started
    await service.close()

    latencies.sort()
    queue_waits.sort()
    record = {
        "tasks_offered": requests,
        "tasks_completed": len(latencies),
        "tasks_shed": shed,
        "must_run_shed": must_run_shed,
        "failures": failures,
        "wrong_results": wrong,
        "makespan": elapsed,
        "offered_rate": rate,
        "throughput": (len(latencies) / elapsed) if elapsed > 0 else 0.0,
        "latency_p50": _percentile(latencies, 0.50),
        "latency_p95": _percentile(latencies, 0.95),
        "latency_p99": _percentile(latencies, 0.99),
        "queue_wait_p50": _percentile(queue_waits, 0.50),
        "queue_wait_p99": _percentile(queue_waits, 0.99),
        "slo_met": slo_met if latency_slo is not None else None,
        "admission": service.queue.counters(),
        "dispatched_contexts": service.stats()["dispatched_total"],
    }
    return record


def sweep_document(workloads: Dict[str, Dict[str, Any]], *,
                   requests: int, seed: int, slots: int,
                   discipline: str, rates: Sequence[float],
                   queue_capacity: int, backend: str) -> Dict[str, Any]:
    """Wrap a loadgen sweep in the capacity-document envelope."""
    return envelope({
        "backend": f"service-{backend}",
        "quick": requests <= 1000,
        "app": None,
        "requests": requests,
        "seed": seed,
        "slots": slots,
        "discipline": discipline,
        "rates": list(rates),
        "queue_capacity": queue_capacity,
    }, workloads)


def check_sweep(workloads: Dict[str, Dict[str, Any]],
                tolerance: float = 0.8) -> List[str]:
    """The service invariants of a sweep; returns violations (empty = pass).

    * No must-run request may ever be shed (bounded admission parks
      them; a shed one is a lost guarantee).
    * No request may vanish: offered == completed + shed + failures.
    * No completed request may carry a wrong result (end valves demand
      exact answers).
    * Completed throughput must not *collapse* as offered load grows:
      each higher-rate cell must deliver at least ``tolerance`` x the
      best lower-rate throughput.  The generous factor absorbs
      wall-clock noise while still catching real regressions (a service
      that thrashes under load shows up far below 0.8x).
    """
    violations: List[str] = []
    by_rate = sorted(
        ((record["offered_rate"], key, record)
         for key, record in workloads.items()),
        key=lambda item: item[0])
    best_so_far = 0.0
    for rate, key, record in by_rate:
        if record["must_run_shed"]:
            violations.append(
                f"{key}: {record['must_run_shed']} must-run requests shed")
        accounted = (record["tasks_completed"] + record["tasks_shed"]
                     + record["failures"])
        if accounted != record["tasks_offered"]:
            violations.append(
                f"{key}: {record['tasks_offered']} offered but only "
                f"{accounted} accounted for")
        if record["wrong_results"]:
            violations.append(
                f"{key}: {record['wrong_results']} completed requests "
                "returned wrong results")
        throughput = record["throughput"]
        if best_so_far > 0 and throughput < tolerance * best_so_far:
            violations.append(
                f"{key}: throughput {throughput:.1f}/s collapsed below "
                f"{tolerance:.0%} of {best_so_far:.1f}/s at lower load")
        best_so_far = max(best_so_far, throughput)
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Sweep Poisson arrival rates over a FluidService and "
                    "report throughput + latency percentiles.")
    parser.add_argument("--requests", type=int, default=200,
                        help="requests per rate (default 200)")
    parser.add_argument("--rates", default="50,100",
                        help="offered arrival rates in requests/second, "
                        "comma-separated (default 50,100)")
    parser.add_argument("--slots", type=int, default=4,
                        help="backend run slots (default 4)")
    parser.add_argument("--queue-capacity", type=int, default=64,
                        help="admission queue capacity (default 64)")
    parser.add_argument("--discipline", default="fcfs",
                        help="admission dispatch discipline (default fcfs)")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "sim", "process"),
                        help="service backend (default thread)")
    parser.add_argument("--sheddable-fraction", type=float, default=0.5,
                        help="fraction of requests submitted sheddable "
                        "(default 0.5)")
    parser.add_argument("--batch-max", type=int, default=1,
                        help="max requests coalesced per dispatch "
                        "(default 1 = no batching)")
    parser.add_argument("--batch-cost-threshold", type=float, default=None,
                        help="cost_estimate at or below which requests "
                        "may be batched")
    parser.add_argument("--slo", type=float, default=None,
                        help="per-request latency SLO in seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="arrival/workload seed (default 0)")
    parser.add_argument("--out", default=None,
                        help="write the sweep as a capacity JSON document")
    args = parser.parse_args(argv)

    if args.requests < 1:
        parser.error("--requests must be >= 1")
    try:
        rates = [float(token) for token in args.rates.split(",")
                 if token.strip()]
    except ValueError:
        parser.error(f"bad --rates list {args.rates!r}")
    if not rates or any(rate <= 0 for rate in rates):
        parser.error("--rates entries must be > 0")
    if not 0.0 <= args.sheddable_fraction <= 1.0:
        parser.error("--sheddable-fraction must be in [0, 1]")

    print(f"service loadgen: {args.requests} requests x "
          f"{len(rates)} rates, backend={args.backend}, "
          f"slots={args.slots}, queue={args.queue_capacity} "
          f"(seed {args.seed})")
    workloads: Dict[str, Dict[str, Any]] = {}
    for rate in rates:
        record = asyncio.run(run_rate(
            rate, args.requests, slots=args.slots,
            queue_capacity=args.queue_capacity,
            discipline=args.discipline,
            sheddable_fraction=args.sheddable_fraction,
            seed=args.seed, backend=args.backend,
            batch_max=args.batch_max,
            batch_cost_threshold=args.batch_cost_threshold,
            latency_slo=args.slo))
        key = f"{args.discipline}/cores{args.slots}/rate{rate:g}"
        workloads[key] = record
        print(f"  {key}: completed={record['tasks_completed']} "
              f"shed={record['tasks_shed']} "
              f"throughput={record['throughput']:.1f}/s "
              f"p50={record['latency_p50'] * 1e3:.1f}ms "
              f"p99={record['latency_p99'] * 1e3:.1f}ms")

    if args.out is not None:
        document = sweep_document(
            workloads, requests=args.requests, seed=args.seed,
            slots=args.slots, discipline=args.discipline, rates=rates,
            queue_capacity=args.queue_capacity, backend=args.backend)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
