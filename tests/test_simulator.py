"""Tests for the discrete-event simulator backend."""

import math

import pytest

from repro import (FluidRegion, Overheads, SchedulerError, SimExecutor,
                   TaskState, Telemetry, run_serial, submit_all,
                   submit_chain, submit_stages)

from util import make_pipeline


def fresh_executor(**kwargs):
    kwargs.setdefault("cores", 4)
    return SimExecutor(**kwargs)


class TestOverheadsValidation:
    @pytest.mark.parametrize("field", [
        "task_init", "end_check", "region_setup", "valve_check", "signal",
        "pool_size", "pool_dispatch"])
    @pytest.mark.parametrize("bad", [-0.5, -5, math.nan, math.inf, "1"])
    def test_every_field_refuses_a_bad_value(self, field, bad):
        with pytest.raises(ValueError, match=f"Overheads.{field} "):
            Overheads(**{field: bad})

    def test_pool_size_must_be_an_int(self):
        with pytest.raises(ValueError, match="Overheads.pool_size "):
            Overheads(pool_size=1.5)

    def test_defaults_and_zero_are_accepted(self):
        assert Overheads().task_init == 1.0
        assert Overheads.zero().signal == 0.0
        assert Overheads(pool_size=2, pool_dispatch=0.1).pool_size == 2


class TestBasics:
    def test_fluid_output_matches_serial(self):
        fluid = make_pipeline(n=20)
        serial = make_pipeline(n=20)
        executor = fresh_executor()
        executor.submit(fluid)
        executor.run()
        run_serial(serial)
        assert fluid.output("out") == serial.output("out")

    def test_overlap_beats_serial(self):
        serial_result = run_serial(make_pipeline(n=100))
        executor = fresh_executor(overheads=Overheads.zero())
        fluid = make_pipeline(n=100, start_fraction=0.2)
        executor.submit(fluid)
        fluid_result = executor.run()
        assert fluid_result.makespan < serial_result.makespan

    def test_full_threshold_is_serial_plus_overhead(self):
        serial_result = run_serial(make_pipeline(n=50))
        executor = fresh_executor()
        fluid = make_pipeline(n=50, start_fraction=1.0)
        executor.submit(fluid)
        fluid_result = executor.run()
        assert fluid_result.makespan >= serial_result.makespan

    def test_zero_overheads_full_threshold_equals_serial(self):
        serial_result = run_serial(make_pipeline(n=50))
        executor = fresh_executor(overheads=Overheads.zero())
        fluid = make_pipeline(n=50, start_fraction=1.0)
        executor.submit(fluid)
        fluid_result = executor.run()
        assert fluid_result.makespan == pytest.approx(serial_result.makespan)

    def test_determinism(self):
        def once():
            executor = fresh_executor()
            region = make_pipeline(n=40, producer_cost=2.0,
                                   consumer_cost=0.3, start_fraction=0.3)
            executor.submit(region)
            result = executor.run()
            return (result.makespan,
                    region.graph.task("consume").stats.runs,
                    tuple(region.output("out")))

        assert once() == once()

    def test_single_shot(self):
        executor = fresh_executor()
        executor.submit(make_pipeline(n=5))
        executor.run()
        with pytest.raises(SchedulerError):
            executor.run()

    def test_requires_positive_cores(self):
        with pytest.raises(SchedulerError):
            SimExecutor(cores=0)

    def test_negative_cost_rejected(self):
        class Bad(FluidRegion):
            def build(self):
                def body(ctx):
                    yield -1.0
                self.add_task("bad", body)

        executor = fresh_executor()
        executor.submit(Bad("bad"))
        with pytest.raises(SchedulerError, match="negative"):
            executor.run()

    @pytest.mark.parametrize("cost", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, cost):
        """A nan cost used to finish the run with ``makespan nan`` and an
        inf cost with ``makespan inf``."""
        class Bad(FluidRegion):
            def build(self):
                def body(ctx):
                    yield 1.0
                    yield cost
                self.add_task("bad", body)

        executor = fresh_executor()
        executor.submit(Bad(f"bad_{cost}"))
        with pytest.raises(SchedulerError, match="non-finite"):
            executor.run()

    def test_max_active_regions_defaults_and_floor(self):
        """``None`` means ``cores``; 0 used to turn silently into
        ``cores`` and a negative cap launched no region at all."""
        for cap in (0, -1):
            with pytest.raises(SchedulerError, match="max_active_regions"):
                SimExecutor(cores=3, max_active_regions=cap)
        for cap, expected in ((None, 3), (1, 1), (5, 5)):
            executor = SimExecutor(cores=3, max_active_regions=cap)
            assert executor.max_active_regions == expected

    def test_non_generator_body_rejected(self):
        class Bad(FluidRegion):
            def build(self):
                self.add_task("bad", lambda ctx: 42)

        executor = fresh_executor()
        executor.submit(Bad("bad2"))
        with pytest.raises(Exception, match="generator"):
            executor.run()


class TestWakeRule:
    """Parked tasks are records in ``context.waiting``: a started task
    is no longer a wake candidate, and finalisation has one subscription
    per cell, not one closure per consumer."""

    @staticmethod
    def _two_consumers(valve_for, n=10):
        class Region(FluidRegion):
            def build(self):
                mid = self.add_array("mid", [0] * n)
                ct = self.add_count("ct")

                def produce(ctx):
                    for i in range(n):
                        mid[i] = i
                        ct.add()
                        yield 1.0

                def consume(ctx):
                    yield 1.0

                self.add_task("produce", produce, outputs=[mid])
                for name, fraction in (("early", 0.2), ("late", 0.8)):
                    self.add_task(
                        name, consume, inputs=[mid],
                        start_valves=[valve_for(ct, mid, fraction, n)],
                        outputs=[self.add_data(f"out_{name}", 0)])

        return Region("two-consumers")

    def test_wake_decisions_cover_parked_records_only(self):
        from repro import PercentValve
        from repro.schedlab.policy import FifoPolicy, RecordingPolicy

        policy = RecordingPolicy(FifoPolicy())
        region = self._two_consumers(
            lambda ct, _mid, fraction, n: PercentValve(ct, fraction, n))
        executor = fresh_executor(policy=policy)
        executor.submit(region)
        executor.run()
        assert region.complete
        # Both consumers are parked for the first two publishes; from
        # then on "early" runs and "late" is the only candidate.
        wakes = [d for d in policy.decisions if d[0] == "wake"]
        assert len(wakes) <= 2
        assert len(region.datas["mid"]._watchers) <= 1
        assert len(executor.context.waiting) == 0

    def test_finalisation_has_one_subscription_per_cell(self):
        from repro.core.valves import DataFinalValve

        region = self._two_consumers(
            lambda _ct, mid, _fraction, _n: DataFinalValve(mid))
        executor = fresh_executor()
        executor.submit(region)
        executor.run()
        assert region.complete
        assert len(region.datas["mid"]._watchers) == 1

    def test_idle_queue_repolls_parked_records_once(self):
        """A valve over state nothing announces opens on the idle
        re-poll; one that stays shut still drains the simulation."""
        from repro import PredicateValve

        import itertools

        def gated(verdicts):
            class Region(FluidRegion):
                def build(self):
                    def body(ctx):
                        yield 1.0
                    self.add_task("lone", body, start_valves=[
                        PredicateValve(lambda: next(verdicts))])
            return Region("gated")

        region = gated(iter([False, True]))  # shut at admission only
        executor = fresh_executor()
        executor.submit(region)
        executor.run()
        assert region.complete
        executor = fresh_executor()
        executor.submit(gated(itertools.repeat(False)))
        with pytest.raises(SchedulerError, match="drained"):
            executor.run()


class TestCoreContention:
    def test_one_core_serializes(self):
        # With a single core there is no overlap to exploit.
        serial_result = run_serial(make_pipeline(n=60))
        executor = SimExecutor(cores=1, overheads=Overheads.zero())
        fluid = make_pipeline(n=60, start_fraction=0.2)
        executor.submit(fluid)
        result = executor.run()
        assert result.makespan >= serial_result.makespan * 0.99

    def test_more_cores_never_slower(self):
        def run_with(cores):
            executor = SimExecutor(cores=cores, overheads=Overheads.zero())
            submit_all(executor, [make_pipeline(n=40, start_fraction=0.2)
                                  for _ in range(4)])
            return executor.run().makespan

        assert run_with(8) <= run_with(2) <= run_with(1)


class TestRegionScheduling:
    def test_submit_chain_serializes_regions(self):
        executor = fresh_executor(overheads=Overheads.zero())
        regions = [make_pipeline(n=20, name=f"r{i}") for i in range(3)]
        submit_chain(executor, regions)
        result = executor.run()
        solo = SimExecutor(cores=4, overheads=Overheads.zero())
        solo.submit(make_pipeline(n=20))
        solo_span = solo.run().makespan
        assert result.makespan == pytest.approx(3 * solo_span, rel=0.01)

    def test_submit_all_overlaps_regions(self):
        chain_executor = fresh_executor(overheads=Overheads.zero())
        submit_chain(chain_executor,
                     [make_pipeline(n=20, name=f"c{i}") for i in range(3)])
        chained = chain_executor.run().makespan

        par_executor = SimExecutor(cores=16, overheads=Overheads.zero())
        submit_all(par_executor,
                   [make_pipeline(n=20, name=f"p{i}") for i in range(3)])
        parallel = par_executor.run().makespan
        assert parallel < chained

    def test_submit_stages_barrier(self):
        executor = SimExecutor(
            cores=16, overheads=Overheads.zero(),
            telemetry=Telemetry(metrics=False, chrome=False))
        stage1 = [make_pipeline(n=10, name="s1a"),
                  make_pipeline(n=10, name="s1b")]
        stage2 = [make_pipeline(n=10, name="s2a")]
        submit_stages(executor, [stage1, stage2])
        result = executor.run()
        launches = {e.region: e.time for e in result.trace.events
                    if e.event == "launch"}
        dones = {e.region: e.time for e in result.trace.events
                 if e.event == "region-done"}
        assert launches["s2a"] >= max(dones["s1a"], dones["s1b"])

    def test_unsubmitted_dependency_rejected(self):
        executor = fresh_executor()
        ghost = make_pipeline(n=5, name="ghost")
        executor.submit(make_pipeline(n=5), after=[ghost])
        with pytest.raises(SchedulerError, match="never submitted"):
            executor.run()

    def test_fcfs_order_in_trace(self):
        executor = SimExecutor(
            cores=2, max_active_regions=1,
            telemetry=Telemetry(metrics=False, chrome=False))
        regions = [make_pipeline(n=5, name=f"r{i}") for i in range(3)]
        submit_all(executor, regions)
        result = executor.run()
        launches = [e.region for e in result.trace.events
                    if e.event == "launch"]
        assert launches == ["r0", "r1", "r2"]


class TestOverheadAccounting:
    def test_overhead_time_positive_with_default_overheads(self):
        executor = fresh_executor()
        region = make_pipeline(n=10)
        executor.submit(region)
        result = executor.run()
        assert result.overhead_time > 0
        assert region.stats.overhead_time > 0

    def test_zero_overheads_accounting(self):
        executor = fresh_executor(overheads=Overheads.zero())
        region = make_pipeline(n=10)
        executor.submit(region)
        result = executor.run()
        assert result.overhead_time == 0

    def test_makespan_recorded_per_region(self):
        executor = fresh_executor()
        region = make_pipeline(n=10)
        executor.submit(region)
        result = executor.run()
        assert 0 < region.stats.makespan <= result.makespan


class TestTrace:
    def test_trace_records_runs(self):
        executor = fresh_executor(
            telemetry=Telemetry(metrics=False, chrome=False))
        region = make_pipeline(n=10)
        executor.submit(region)
        result = executor.run()
        assert result.trace.count("run", "produce") == 1
        assert result.trace.count("launch") == 1

    def test_trace_disabled_by_default(self):
        executor = fresh_executor()
        executor.submit(make_pipeline(n=5))
        assert executor.run().trace is None

    def test_trace_render(self):
        executor = fresh_executor(
            telemetry=Telemetry(metrics=False, chrome=False))
        executor.submit(make_pipeline(n=5))
        result = executor.run()
        text = result.trace.render(limit=5)
        assert "launch" in text


class TestStatsShape:
    def test_pipeline_visits_match_paper_shape(self):
        # Mirrors Table 3's Edge Detection row: the producer visits each
        # state once; a consumer that re-executes visits RUNNING more.
        executor = fresh_executor()
        region = make_pipeline(n=40, producer_cost=2.0, consumer_cost=0.5,
                               start_fraction=0.4)
        executor.submit(region)
        executor.run()
        produce = region.graph.task("produce").stats
        assert produce.visits[TaskState.INIT] == 1
        assert produce.visits[TaskState.START_CHECK] == 1
        assert produce.visits[TaskState.RUNNING] == 1
        consume = region.graph.task("consume").stats
        assert consume.visits[TaskState.RUNNING] >= 1
        assert consume.visits[TaskState.COMPLETE] == 1


class TestGuardPooling:
    """The Section-3.3 thread-pool mitigation (Overheads.pool_size)."""

    def test_launch_cost_without_pool(self):
        overheads = Overheads(task_init=400.0)
        assert overheads.guard_launch_cost(0) == 400.0
        assert overheads.guard_launch_cost(1000) == 400.0

    def test_launch_cost_with_pool(self):
        overheads = Overheads(task_init=400.0, pool_size=4,
                              pool_dispatch=20.0)
        assert overheads.guard_launch_cost(3) == 400.0   # warm-up
        assert overheads.guard_launch_cost(4) == 20.0    # pooled
        assert overheads.guard_launch_cost(99) == 20.0

    def test_pooled_run_is_never_slower(self):
        from repro import submit_chain

        def span(overheads):
            executor = SimExecutor(cores=4, overheads=overheads)
            submit_chain(executor, [make_pipeline(n=10, name=f"p{i}_{id(overheads)%97}")
                                    for i in range(6)])
            return executor.run().makespan

        per_task = Overheads(task_init=400.0, end_check=0.0,
                             region_setup=0.0)
        pooled = Overheads(task_init=400.0, end_check=0.0,
                           region_setup=0.0, pool_size=2,
                           pool_dispatch=10.0)
        assert span(pooled) < span(per_task)
