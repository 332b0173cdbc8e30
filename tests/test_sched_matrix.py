"""Scheduler x backend parity matrix.

Every repro.sched discipline must preserve Fluid's correctness contract
on every backend: regions complete and exact-quality outputs match the
precise answer — a scheduler may reorder work, never change results.

CI's scheduler-matrix job slices this file one (scheduler, backend)
cell at a time via the ``REPRO_SCHEDULER`` / ``REPRO_BACKEND`` env vars
(comma-separated lists); locally, with neither set, the full default
matrix runs.
"""

import os

import pytest

from repro.runtime.executor import make_executor
from repro.runtime.simulator import SimExecutor
from util import (chain_expected, diamond_expected, make_chain,
                  make_diamond, make_pipeline, pipeline_expected)

SCHEDULERS = [token.strip() for token in os.environ.get(
    "REPRO_SCHEDULER", "fcfs,priority,edf,work-stealing").split(",")
    if token.strip()]
BACKENDS = [token.strip() for token in os.environ.get(
    "REPRO_BACKEND", "sim,thread,process").split(",") if token.strip()]


def build_executor(backend, scheduler):
    if backend == "sim":
        return SimExecutor(cores=4, scheduler=scheduler)
    if backend == "thread":
        return make_executor("thread", timeout=30, scheduler=scheduler)
    return make_executor("process", workers=2, timeout=60,
                         scheduler=scheduler)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
class TestSchedulerMatrix:
    def test_pipeline_output(self, scheduler, backend):
        region = make_pipeline(n=30, exact_quality=True)
        executor = build_executor(backend, scheduler)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert region.output("out") == pipeline_expected(30)

    def test_diamond_output(self, scheduler, backend):
        region = make_diamond(n=20, exact_quality=True)
        executor = build_executor(backend, scheduler)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert region.output("out") == diamond_expected(20)

    def test_chain_output(self, scheduler, backend):
        region = make_chain(depth=3, n=16)
        executor = build_executor(backend, scheduler)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert region.output("a2") == chain_expected(3, 16)

    def test_scheduler_never_sheds_runtime_tasks(self, scheduler, backend):
        """Executor submissions are not sheddable: even a tiny bounded
        queue may only defer them, so the region still completes."""
        bounded = f"bounded:capacity=1,inner={scheduler}"
        region = make_pipeline(n=20, exact_quality=True)
        executor = build_executor(backend, bounded)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert region.output("out") == pipeline_expected(20)
        assert executor.scheduler.counters()["sheds"] == 0

    @pytest.mark.usefixtures("slow_safety_net")
    def test_a_gated_consumer_is_checked_only_when_it_can_open(
            self, scheduler, backend):
        """A publish below the consumer's count-valve threshold checks
        nothing on any driver (``RunContext.woken``), under the plain
        and the bounded queue alike: its start checks do not grow with
        the producer's publishes (and no timed re-poll adds any)."""
        for spec in (scheduler, f"bounded:capacity=1,inner={scheduler}"):
            checks = {}
            for n in (20, 200):
                region = make_pipeline(n=n, exact_quality=True)
                executor = build_executor(backend, spec)
                executor.submit(region)
                executor.run()
                assert region.complete
                assert region.output("out") == pipeline_expected(n)
                (consume,) = [task for task in region.tasks
                              if task.name == "consume"]
                checks[n] = consume.spec.start_valves[0].checks
            assert checks[200] <= checks[20], (spec, checks)
