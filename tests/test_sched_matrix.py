"""Pick-order x backend parity matrix.

Every driver runs one first-come-first-serve ready queue
(:class:`~repro.runtime.context.ReadyQueue`); a bound SchedLab policy
chooses among the whole queue instead.  Whatever order the picks take,
Fluid's correctness contract holds on every backend: regions complete
and exact-quality outputs match the precise answer — a pick order may
reorder work, never change results.  The service's admission
disciplines get the same check one level up: they order whole requests
and never change what a request computes.
"""

import asyncio

import pytest

from repro.runtime.process_backend import ProcessExecutor
from repro.runtime.simulator import SimExecutor
from repro.runtime.thread_backend import ThreadExecutor
from repro.sched import FcfsScheduler
from repro.schedlab.policy import make_policy
from repro.service import FluidService
from repro.telemetry import Telemetry
from util import (chain_expected, diamond_expected, make_chain,
                  make_diamond, make_pipeline, pipeline_expected)

POLICIES = ["none", "random:0", "random:1", "pct:0"]
BACKENDS = ["sim", "thread", "process"]


def build_executor(backend, policy):
    policy = None if policy == "none" else make_policy(
        policy.split(":")[0], seed=int(policy.split(":")[1]))
    if backend == "sim":
        return SimExecutor(cores=4, policy=policy)
    if backend == "thread":
        return ThreadExecutor(timeout=30, policy=policy)
    return ProcessExecutor(workers=2, timeout=60, policy=policy)


def run(region, backend, policy):
    """Run ``region`` alone; the driver's queue must be FCFS and must
    neither shed nor defer a runtime task."""
    executor = build_executor(backend, policy)
    executor.submit(region)
    executor.run()
    assert region.complete
    assert type(executor.scheduler) is FcfsScheduler
    counters = executor.scheduler.counters()
    assert counters["sheds"] == 0 and counters["deferrals"] == 0
    return region


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("policy", POLICIES)
class TestReadyQueueMatrix:
    def test_pipeline_output(self, policy, backend):
        region = run(make_pipeline(n=30, exact_quality=True), backend,
                     policy)
        assert region.output("out") == pipeline_expected(30)

    def test_diamond_output(self, policy, backend):
        region = run(make_diamond(n=20, exact_quality=True), backend,
                     policy)
        assert region.output("out") == diamond_expected(20)

    def test_chain_output(self, policy, backend):
        region = run(make_chain(depth=3, n=16), backend, policy)
        assert region.output("a2") == chain_expected(3, 16)

    @pytest.mark.usefixtures("slow_safety_net")
    def test_a_gated_consumer_is_checked_only_when_it_can_open(
            self, policy, backend):
        """A publish below the consumer's count-valve threshold checks
        nothing on any driver (``RunContext.woken``), whatever the pick
        order: its start checks do not grow with the producer's
        publishes (and no timed re-poll adds any)."""
        checks = {}
        for n in (20, 200):
            region = run(make_pipeline(n=n, exact_quality=True), backend,
                         policy)
            assert region.output("out") == pipeline_expected(n)
            (consume,) = [task for task in region.tasks
                          if task.name == "consume"]
            checks[n] = consume.spec.start_valves[0].checks
        assert checks[200] <= checks[20], (policy, checks)


#: (topology, priority, deadline, cost_estimate) of the requests queued
#: behind a blocker, offered in this order; the dispatch order each
#: discipline must give them.
HINTED = (("a", 1.0, 30.0, 5.0), ("b", 3.0, 10.0, 9.0),
          ("c", 2.0, 20.0, 1.0), ("d", 0.0, None, None))
DISPATCH_ORDER = {"fcfs": "abcd", "priority": "bcad", "edf": "bcad",
                  "sew": "cabd", "shortest-work": "cabd"}
SERVICE_OPTIONS = {"thread": {}, "sim": {"cores": 2},
                   "process": {"workers": 1, "timeout": 60}}


def _request_region(name):
    """An exact-quality region per request name and its precise output."""
    if name in ("blocker", "a"):
        return make_pipeline(n=12, exact_quality=True, name=name), \
            "out", pipeline_expected(12)
    if name == "b":
        return make_diamond(n=10, exact_quality=True, name=name), \
            "out", diamond_expected(10)
    if name == "c":
        return make_chain(depth=2, n=8, name=name), "a1", chain_expected(2, 8)
    return make_pipeline(n=6, exact_quality=True, name=name), \
        "out", pipeline_expected(6)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("discipline", sorted(DISPATCH_ORDER))
def test_admission_discipline_orders_requests_never_results(discipline,
                                                           backend):
    """One request in flight at a time: the requests queued behind the
    first dispatch in the discipline's order, and each computes its
    precise output."""
    telemetry = Telemetry(chrome=False)
    dispatched = []
    telemetry.bus.subscribe(
        lambda event: dispatched.append(event.region)
        if event.name == "dispatch" else None, kinds=("svc",))
    names = ["blocker"] + [hints[0] for hints in HINTED]
    regions = {name: _request_region(name) for name in names}

    async def main():
        async with FluidService(backend=backend, slots=2,
                                discipline=discipline, max_concurrency=1,
                                telemetry=telemetry,
                                backend_options=SERVICE_OPTIONS[backend]
                                ) as service:
            submits = [service.submit(regions["blocker"][0])]
            submits += [service.submit(regions[name][0], priority=priority,
                                       deadline=deadline,
                                       cost_estimate=cost)
                        for name, priority, deadline, cost in HINTED]
            return await asyncio.gather(*submits)

    results = asyncio.run(main())
    assert [result.region.name for result in results] == names
    assert dispatched == ["blocker"] + list(DISPATCH_ORDER[discipline])
    for name, (region, output, expected) in regions.items():
        assert region.output(output) == expected, name


def _first_inputs():
    from repro.bench.harness import standard_suite

    return {name: next(iter(inputs.values()))
            for name, inputs in standard_suite().items()}


def _sim_run(app, cores, policy):
    """``app.run_fluid(cores=cores)`` with ``policy`` bound: the
    makespan, the ready queue's counters and the output's error."""
    from repro.apps.base import DEFAULT_OVERHEADS
    from repro.runtime.executor import make_executor

    plan = app.build_regions(threshold=app.default_threshold,
                             valve="percent", parallelism=1)
    executor = make_executor(
        "sim", cores=cores, overheads=DEFAULT_OVERHEADS,
        cancel_first_runs=app.cancel_first_runs, policy=policy)
    plan.submit_to(executor)
    result = executor.run()
    error = app.compute_error(app.extract_output(plan),
                              app.run_precise().output)
    return result.makespan, executor.scheduler.counters(), error


@pytest.mark.parametrize("cores", [2, 20])
@pytest.mark.parametrize("name", sorted(_first_inputs()))
def test_a_fifo_policy_leaves_every_app_run_unchanged(name, cores):
    """A bound policy resolves every tie the simulator leaves open
    (simultaneous events, wakes, signals, the FCFS queue's picks); the
    FIFO policy takes the first each time, so it must reproduce each
    Figure-6 app's unbound simulated run: its makespan, its ready-queue
    counters and its error."""
    from repro.schedlab.policy import FifoPolicy, RecordingPolicy

    app = _first_inputs()[name]()
    unbound = _sim_run(app, cores, None)
    assert unbound[0] == app.run_fluid(cores=cores).makespan
    policy = RecordingPolicy(FifoPolicy())
    assert _sim_run(app, cores, policy) == unbound
    assert policy.decisions
    assert all(index == 0 for _point, _size, index in policy.decisions)
