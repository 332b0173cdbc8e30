"""Tests for repro.service: the async multi-region frontend.

Covers admission/backpressure semantics, request batching, SLO
accounting on the telemetry bus, the capacity-curve concurrency policy,
the >= 100 concurrent regions acceptance bar, and the SchedLab-seeded
isolation fuzz: N overlapping regions on one shared thread pool must
produce exactly what N isolated single-shot runs produce.
"""

import asyncio
import random
import threading
import time

import pytest

from repro import (FluidRegion, PredicateValve, SchedulerError, TaskBodyError,
                   TaskState)
from repro.service import (AdmissionError, AdmissionQueue, FluidService,
                           OneShotPool, pick_concurrency)
from repro.telemetry import Telemetry

from util import (chain_expected, diamond_expected, make_chain, make_diamond,
                  make_pipeline, pipeline_expected, with_factory)

# Wall-clock constants, deliberately far from any plausible run time so
# shared-runner timing noise cannot flip an assertion: an SLO a healthy
# request must always meet, an SLO nothing can meet (the missed branch
# is then deterministic), the cancellation deadline for a request that
# can never start, and the hang ceiling for isolated reference runs.
SLO_GENEROUS = 300.0
SLO_IMPOSSIBLE = 1e-9
STUCK_DEADLINE = 0.4
ISOLATED_RUN_DEADLINE = 120.0


def svc_counters(telemetry):
    return {key: value
            for key, value in telemetry.metrics.to_dict()["counters"].items()
            if key.startswith("svc.")}


class TestServiceBasics:
    def test_single_request(self):
        async def main():
            async with FluidService(slots=2) as service:
                region = make_pipeline(n=12, exact_quality=True)
                result = await service.submit(region)
                assert region.output("out") == pipeline_expected(12)
                assert result.region is region
                assert result.batch_size == 1
                assert result.latency >= result.queue_wait >= 0.0
                assert result.makespan > 0.0
                assert result.slo_met is None

        asyncio.run(main())

    def test_sequential_requests_reuse_the_pool(self):
        async def main():
            async with FluidService(slots=2) as service:
                for index in range(5):
                    region = make_pipeline(n=8, exact_quality=True,
                                           name=f"seq{index}")
                    await service.submit(region)
                    assert region.output("out") == pipeline_expected(8)
                assert service.stats()["dispatched_total"] == 5

        asyncio.run(main())

    def test_a_request_context_builds_no_event(self):
        # The service hears a context finish through ``on_finished``;
        # nothing blocks on it, so no ``finished`` Event is built.
        contexts = []

        async def main():
            async with FluidService(slots=2) as service:
                start = service.pool.start

                def recording_start(ctx):
                    contexts.append(ctx)
                    start(ctx)

                service.pool.start = recording_start
                for index in range(4):
                    region = make_pipeline(n=8, exact_quality=True,
                                           name=f"no-event{index}")
                    await service.submit(region)

        asyncio.run(main())
        assert len(contexts) == 4
        assert all(ctx.is_finished and ctx._finished_event is None
                   for ctx in contexts)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchedulerError):
            FluidService(backend="quantum")

    def test_bad_batch_max_rejected(self):
        with pytest.raises(SchedulerError):
            FluidService(batch_max=0)

    def test_submit_after_close_is_refused(self):
        async def main():
            service = FluidService(slots=1)
            region = make_pipeline(n=5, exact_quality=True)
            await service.submit(region)
            await service.close()
            with pytest.raises(AdmissionError):
                await service.submit(make_pipeline(n=5))

        asyncio.run(main())

    def test_one_shot_pool_backends(self):
        for backend in ("sim", "process"):
            async def main():
                async with FluidService(backend=backend,
                                        slots=2) as service:
                    regions = [make_pipeline(n=8, exact_quality=True,
                                             name=f"{backend}{i}")
                               for i in range(4)]
                    await asyncio.gather(
                        *(service.submit(region) for region in regions))
                    for region in regions:
                        assert region.output("out") == pipeline_expected(8)

            asyncio.run(main())

    def test_one_shot_pool_rejects_thread_backend(self):
        with pytest.raises(SchedulerError):
            OneShotPool("thread")


class TestBackpressure:
    def test_sheddable_overflow_is_shed_observably(self):
        telemetry = Telemetry(chrome=False)

        async def main():
            service = FluidService(slots=1, max_concurrency=1,
                                   queue_capacity=2, telemetry=telemetry)
            shed = 0
            done = 0

            async def one(index):
                nonlocal shed, done
                region = make_pipeline(n=10, exact_quality=True,
                                       name=f"bp{index}")
                try:
                    await service.submit(region, sheddable=True)
                except AdmissionError:
                    shed += 1
                    return
                done += 1
                assert region.output("out") == pipeline_expected(10)

            await asyncio.gather(*(one(index) for index in range(12)))
            await service.close()
            return shed, done

        shed, done = asyncio.run(main())
        assert shed > 0, "a 2-deep queue behind a 1-wide service must shed"
        assert shed + done == 12
        counters = svc_counters(telemetry)
        assert counters["svc.requests"] == 12
        assert counters["svc.shed"] == shed
        assert counters["svc.admitted"] == done
        assert counters["svc.completed"] == done

    def test_must_run_requests_are_parked_never_shed(self):
        async def main():
            service = FluidService(slots=1, max_concurrency=1,
                                   queue_capacity=1)
            regions = [make_pipeline(n=8, exact_quality=True,
                                     name=f"mr{index}")
                       for index in range(10)]
            await asyncio.gather(
                *(service.submit(region, sheddable=False)
                  for region in regions))
            deferrals = service.queue.counters()["deferrals"]
            await service.close()
            for region in regions:
                assert region.output("out") == pipeline_expected(8)
            assert deferrals > 0, \
                "must-run overflow should park (defer), not shed"

        asyncio.run(main())


class TestBatching:
    def test_small_requests_coalesce(self):
        telemetry = Telemetry(chrome=False)

        async def main():
            async with FluidService(
                    slots=2, max_concurrency=1, queue_capacity=64,
                    batch_max=4, batch_cost_threshold=100.0,
                    telemetry=telemetry) as service:
                regions = [make_pipeline(n=6, exact_quality=True,
                                         name=f"batch{index}")
                           for index in range(12)]
                results = await asyncio.gather(
                    *(service.submit(region, cost_estimate=6.0)
                      for region in regions))
                for region in regions:
                    assert region.output("out") == pipeline_expected(6)
                return results

        results = asyncio.run(main())
        assert max(result.batch_size for result in results) > 1
        counters = svc_counters(telemetry)
        assert counters["svc.batches"] > 0
        assert counters["svc.dispatched"] == 12

    def test_expensive_requests_stay_solo(self):
        async def main():
            async with FluidService(
                    slots=2, max_concurrency=1, batch_max=4,
                    batch_cost_threshold=1.0) as service:
                results = await asyncio.gather(
                    *(service.submit(
                        make_pipeline(n=6, exact_quality=True,
                                      name=f"solo{index}"),
                        cost_estimate=50.0)
                      for index in range(6)))
                assert all(result.batch_size == 1 for result in results)

        asyncio.run(main())


class TestSloAccounting:
    def test_slo_met_and_missed(self):
        telemetry = Telemetry(chrome=False)

        async def main():
            async with FluidService(slots=2,
                                    telemetry=telemetry) as service:
                relaxed = await service.submit(
                    make_pipeline(n=6, exact_quality=True),
                    latency_slo=SLO_GENEROUS)
                strict = await service.submit(
                    make_pipeline(n=6, exact_quality=True),
                    latency_slo=SLO_IMPOSSIBLE)
                assert relaxed.slo_met is True
                assert strict.slo_met is False

        asyncio.run(main())
        counters = svc_counters(telemetry)
        assert counters["svc.slo_met"] == 1
        assert counters["svc.slo_missed"] == 1

    def test_latency_histograms_recorded(self):
        telemetry = Telemetry(chrome=False)

        async def main():
            async with FluidService(slots=2,
                                    telemetry=telemetry) as service:
                await service.submit(make_pipeline(n=6, exact_quality=True))

        asyncio.run(main())
        histograms = telemetry.metrics.to_dict()["histograms"]
        assert histograms["svc.latency"]["count"] == 1
        assert histograms["svc.queue_wait"]["count"] == 1


class TestParallelismDenominator:
    """``close()`` finalises the service's run over the pool's
    parallelism, ``MetricsRegistry.finalize``'s rule: 1 on the GIL-bound
    thread pool (not ``slots``), the hosts' cores on the simulator."""

    @pytest.mark.parametrize("backend, options, workers", [
        ("thread", {}, 1), ("sim", {"cores": 3}, 3)])
    def test_worker_utilization_follows_the_rule(self, backend, options,
                                                 workers):
        telemetry = Telemetry(chrome=False)

        async def main():
            async with FluidService(backend=backend, slots=2,
                                    backend_options=options,
                                    telemetry=telemetry) as service:
                await asyncio.gather(*(
                    service.submit(make_pipeline(n=6, exact_quality=True,
                                                 name=f"u{index}"))
                    for index in range(4)))

        asyncio.run(main())
        gauges = telemetry.metrics.gauges
        assert gauges["run.workers"] == workers
        assert gauges["worker.utilization"] == min(
            1.0, gauges["worker.busy_time"]
            / (gauges["run.makespan"] * workers))

    def test_run_options_belong_to_the_context(self):
        with pytest.raises(SchedulerError, match="modulation"):
            OneShotPool("sim", executor_options={"modulation": object()})


class TestFailures:
    def test_body_error_fails_the_request_not_the_service(self):
        async def main():
            async with FluidService(slots=2) as service:
                from repro import FluidRegion

                class Boom(FluidRegion):
                    def build(self):
                        def body(ctx):
                            yield 1.0
                            raise ValueError("kaboom")
                        self.add_task("boom", body)

                with pytest.raises(TaskBodyError):
                    await service.submit(Boom("boom-region"))
                region = make_pipeline(n=8, exact_quality=True)
                await service.submit(region)
                assert region.output("out") == pipeline_expected(8)

        asyncio.run(main())

    def test_request_timeout_cancels_the_context(self):
        async def main():
            async with FluidService(slots=2) as service:
                from repro import FluidRegion

                class Stuck(FluidRegion):
                    def build(self):
                        def body(ctx):
                            yield 1.0
                        self.add_task(
                            "stuck", body,
                            start_valves=[PredicateValve(lambda: False,
                                                         name="never")])

                with pytest.raises(SchedulerError):
                    await service.submit(Stuck("stuck-region"),
                                         timeout=STUCK_DEADLINE)
                # The service stays healthy after the cancellation.
                region = make_pipeline(n=8, exact_quality=True)
                await service.submit(region)
                assert region.output("out") == pipeline_expected(8)

        asyncio.run(main())


def make_fan(width: int = 12, boom: bool = False, nap: float = 0.0,
             stuck: bool = False, name: str = "fan") -> FluidRegion:
    """A header and ``width`` independent tasks under it, all ready at
    once (no start valve); task i writes ``out[i] = i``.  With ``boom``
    task 0 raises after its first chunk; with ``nap`` every other task
    sleeps ``nap`` seconds per chunk for 40 chunks (so a process worker
    is still busy when task 0's error lands); with ``stuck`` one more
    task waits on a valve that never opens.  On one core or one worker
    most of them wait in the host's ready queue when the run fails."""
    region = FluidRegion(name)
    seed = region.add_data("seed", 0)
    outs = [region.add_data(f"out{i}", -1) for i in range(width)]

    def header(ctx):
        seed.write(1)
        yield 1.0

    def task_body(i):
        def body(ctx):
            if boom and i == 0:
                yield 1.0
                raise ValueError("kaboom")
            for _ in range(40 if nap else 1):
                if nap:
                    time.sleep(nap)
                yield 1.0
            outs[i].write(i)
        return body

    region.add_task("header", header, outputs=[seed])
    for i in range(width):
        region.add_task(f"t{i}", task_body(i), inputs=[seed],
                        outputs=[outs[i]])
    if stuck:
        region.add_task("stuck", header, inputs=[seed], start_valves=[
            PredicateValve(lambda: False, name="never")])
    return with_factory(region, make_fan, width=width, boom=boom, nap=nap,
                        stuck=stuck)


#: One core / one worker, so a failing fan leaves work queued behind
#: it; the process host's own deadline is what times a stuck run out.
ONE_SHOT_HOSTS = [("sim", {"cores": 1}),
                  ("process", {"workers": 1, "timeout": 2.0})]


class TestFailuresOnOneShotHosts:
    """A failed context's queued picks die with it: the host's next
    context must not run them (sim and process host every request on
    one executor)."""

    @pytest.mark.parametrize("backend, options", ONE_SHOT_HOSTS)
    def test_body_error_fails_only_its_request(self, backend, options):
        async def main():
            async with FluidService(backend=backend,
                                    backend_options=options) as service:
                with pytest.raises(TaskBodyError):
                    await service.submit(make_fan(boom=True, nap=0.05,
                                                  name="boom"))
                region = make_pipeline(n=8, exact_quality=True)
                await service.submit(region)
                assert region.output("out") == pipeline_expected(8)

        asyncio.run(main())

    @pytest.mark.parametrize("backend, options", ONE_SHOT_HOSTS)
    def test_unfinished_request_leaves_the_host_healthy(self, backend,
                                                         options):
        """The host itself gives up on the run: the process host at its
        deadline (no request timeout, which would stop the context
        first), the simulator once it drains unfinished."""
        async def main():
            async with FluidService(backend=backend,
                                    backend_options=options) as service:
                stuck = (make_fan(stuck=True, name="stuck")
                         if backend == "sim" else
                         make_fan(nap=0.05, name="slow"))
                with pytest.raises(SchedulerError):
                    await service.submit(stuck)
                region = make_pipeline(n=8, exact_quality=True)
                await service.submit(region)
                assert region.output("out") == pipeline_expected(8)

        asyncio.run(main())


class TestConcurrencyPolicy:
    def test_capacity_curves_pick_the_cap(self):
        document = {"workloads": {
            "fcfs/cores2/rate100": {"throughput": 150.0,
                                    "latency_p99": 0.200},
            "fcfs/cores4/rate100": {"throughput": 290.0,
                                    "latency_p99": 0.040},
            "fcfs/cores8/rate100": {"throughput": 300.0,
                                    "latency_p99": 0.015},
        }}
        assert pick_concurrency(document, latency_slo=0.050) == 4
        assert pick_concurrency(document, latency_slo=0.001) == 8
        assert pick_concurrency(document) == 4  # throughput knee
        assert pick_concurrency({"workloads": {}}, default=7) == 7
        service = FluidService(slots=2, capacity_curves=document,
                               latency_slo=0.050)
        assert service.max_concurrency == 4
        service.pool.shutdown()

    def test_admission_queue_validates_capacity(self):
        with pytest.raises(AdmissionError):
            AdmissionQueue(capacity=0)


@pytest.mark.stress
class TestConcurrentRegions:
    def test_100_concurrent_regions_shared_pool(self):
        """Acceptance bar: >= 100 regions in flight over one thread pool."""
        async def main():
            service = FluidService(slots=4, max_concurrency=128,
                                   queue_capacity=128)
            regions = [make_pipeline(n=6, exact_quality=True,
                                     name=f"wide{index}")
                       for index in range(100)]
            futures = [asyncio.ensure_future(service.submit(region))
                       for region in regions]
            await asyncio.sleep(0)  # let every submit admit + dispatch
            peak = service.stats()["inflight"]
            await asyncio.gather(*futures)
            await service.close()
            return regions, peak

        regions, peak = asyncio.run(main())
        assert peak == 100, f"expected 100 contexts in flight, saw {peak}"
        for region in regions:
            assert region.output("out") == pipeline_expected(6)
            assert all(task.state is TaskState.COMPLETE
                       for task in region.tasks)


def _build_case(kind, size, name, strict):
    """One fuzz case: (region, output-name, expected, count-floors).

    ``strict`` builds the region with fully-closed start valves
    (``start_fraction=1.0``): every consumer waits for its producers to
    finish, end valves pass on the first try, and no task ever re-runs
    — so final count values are schedule-independent and must bit-match
    an isolated run.  Relaxed cases can legitimately re-execute (extra
    count adds), so only the floor (one full pass) is deterministic.
    """
    fraction = 1.0 if strict else 0.4
    if kind == "pipeline":
        region = make_pipeline(n=size, exact_quality=True, name=name,
                               start_fraction=fraction)
        return region, "out", pipeline_expected(size), {"ct": size}
    if kind == "chain":
        depth = 3
        region = make_chain(depth=depth, n=size, exact_quality=True,
                            name=name, start_fraction=fraction)
        return (region, f"a{depth - 1}", chain_expected(depth, size),
                {f"ct{k}": size for k in range(depth)})
    region = make_diamond(n=size, exact_quality=True, name=name,
                          start_fraction=fraction)
    return (region, "out", diamond_expected(size),
            {"ct0": size, "ctl": size, "ctr": size})


@pytest.mark.stress
class TestIsolationFuzz:
    """Satellite: SchedLab-seeded fuzz of per-region isolation.

    N overlapping regions on one shared thread pool (with seeded
    wake-point jitter perturbing the schedule) must match N isolated
    single-shot runs on every timing-independent observable: exact
    outputs, terminal states, end-valve verdicts and the final values
    of deterministic counts.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_overlapping_regions_match_isolated_runs(self, seed):
        from repro import ThreadExecutor
        from repro.schedlab import SeededRandomPolicy

        rng = random.Random(f"service-fuzz:{seed}")
        cases = []
        for index in range(8):
            kind = rng.choice(("pipeline", "chain", "diamond"))
            size = rng.randint(10, 25)
            strict = rng.random() < 0.5
            cases.append((kind, size, strict))

        shared = [_build_case(kind, size, f"svc-{seed}-{index}", strict)
                  for index, (kind, size, strict) in enumerate(cases)]
        isolated = [_build_case(kind, size, f"iso-{seed}-{index}", strict)
                    for index, (kind, size, strict) in enumerate(cases)]

        async def main():
            service = FluidService(
                slots=3, max_concurrency=16, queue_capacity=16,
                backend_options={"policy": SeededRandomPolicy(
                    seed=seed, jitter_scale=0.001)})
            await asyncio.gather(
                *(service.submit(region) for region, *_ in shared))
            await service.close()

        asyncio.run(main())

        for region, *_ in isolated:
            executor = ThreadExecutor(timeout=ISOLATED_RUN_DEADLINE)
            executor.submit(region)
            executor.run()

        for case, (region_a, out, expected, floors), (region_b, *_rest) \
                in zip(cases, shared, isolated):
            _kind, _size, strict = case
            assert region_a.output(out) == expected, region_a.name
            assert region_b.output(out) == expected, region_b.name
            for region in (region_a, region_b):
                assert all(task.state is TaskState.COMPLETE
                           for task in region.tasks), region.name
                for task in region.tasks:
                    for valve in task.spec.end_valves:
                        assert valve.check(), \
                            f"{region.name}: end valve {valve.name} " \
                            "failed post-run"
            for count_name, floor in floors.items():
                value_a = region_a.counts[count_name].value
                value_b = region_b.counts[count_name].value
                if strict:
                    assert value_a == value_b == floor, \
                        f"{region_a.name}: strict count {count_name} " \
                        f"diverged ({value_a} shared vs {value_b} isolated" \
                        f" vs {floor} expected)"
                else:
                    assert value_a >= floor and value_b >= floor, \
                        f"{region_a.name}: count {count_name} below one " \
                        f"full pass ({value_a}/{value_b} < {floor})"


@pytest.mark.stress
class TestServiceThreadHygiene:
    def test_close_reaps_guard_threads(self):
        async def main():
            before = threading.active_count()
            service = FluidService(slots=2)
            regions = [make_pipeline(n=6, exact_quality=True,
                                     name=f"reap{index}")
                       for index in range(20)]
            await asyncio.gather(
                *(service.submit(region) for region in regions))
            await service.close()
            return before, threading.active_count()

        before, after = asyncio.run(main())
        assert after <= before + 1, \
            f"service leaked threads: {before} before, {after} after"


class TestLoadgen:
    def test_smoke_sweep_writes_baseline_schema(self, tmp_path):
        import json

        from repro.sched.capacity import SCHEMA
        from repro.service.loadgen import check_sweep
        from repro.service.loadgen import main as loadgen_main

        # The plain shed-or-park sweep, then the batched-dispatch cell.
        cases = (
            (["--rates", "150,300", "--seed", "5"],
             ["fcfs/cores2/rate150", "fcfs/cores2/rate300"]),
            (["--rates", "200", "--seed", "1", "--batch-max", "4",
              "--batch-cost-threshold", "32"],
             ["fcfs/cores2/rate200"]),
        )
        for flags, expected_keys in cases:
            out = tmp_path / "sweep.json"
            assert loadgen_main(["--requests", "15", "--slots", "2",
                                 *flags, "--out", str(out)]) == 0
            document = json.loads(out.read_text())
            assert document["schema"] == SCHEMA
            assert sorted(document["workloads"]) == expected_keys
            assert check_sweep(document["workloads"]) == []
            for record in document["workloads"].values():
                assert record["must_run_shed"] == 0
                assert (record["tasks_completed"] + record["tasks_shed"]
                        + record["failures"]) == 15

    def test_sweep_feeds_pick_concurrency(self, tmp_path):
        import json

        from repro.service import load_capacity_document
        from repro.service.loadgen import main as loadgen_main

        out = tmp_path / "sweep.json"
        assert loadgen_main(["--requests", "10", "--rates", "200",
                             "--slots", "2", "--seed", "2",
                             "--out", str(out)]) == 0
        document = load_capacity_document(str(out))
        assert pick_concurrency(document, latency_slo=SLO_GENEROUS) == 2

    def test_check_sweep_flags_violations(self):
        from repro.service.loadgen import check_sweep

        healthy = {"tasks_offered": 10, "tasks_completed": 10,
                   "tasks_shed": 0, "failures": 0, "must_run_shed": 0,
                   "wrong_results": 0, "throughput": 100.0,
                   "offered_rate": 100.0}
        assert check_sweep({"fcfs/cores2/rate100": dict(healthy)}) == []

        shed = dict(healthy, must_run_shed=2, offered_rate=50.0)
        lost = dict(healthy, tasks_completed=8, offered_rate=100.0)
        collapsed = dict(healthy, throughput=10.0, offered_rate=200.0)
        violations = check_sweep({
            "fcfs/cores2/rate50": shed,
            "fcfs/cores2/rate100": lost,
            "fcfs/cores2/rate200": collapsed,
        })
        text = "\n".join(violations)
        assert "must-run requests shed" in text
        assert "accounted for" in text
        assert "collapsed" in text

    def test_bad_cli_args_rejected(self):
        import pytest

        from repro.service.loadgen import main as loadgen_main

        with pytest.raises(SystemExit):
            loadgen_main(["--requests", "0"])
        with pytest.raises(SystemExit):
            loadgen_main(["--rates", "-5"])
        with pytest.raises(SystemExit):
            loadgen_main(["--sheddable-fraction", "1.5"])
