"""Tests for the sync() API and the region scheduling helpers."""

import pytest

from repro import (SchedulerError, SimExecutor, Telemetry, ThreadExecutor,
                   sync, submit_all, submit_chain, submit_stages)
from repro.runtime.simulator import Overheads

from util import make_pipeline, pipeline_expected


class TestSyncApi:
    def test_sync_task_after_sim_run(self):
        region = make_pipeline(n=10)
        executor = SimExecutor(cores=2)
        executor.submit(region)
        executor.run()
        sync(region.graph.task("consume"), executor=executor)

    def test_sync_region_after_sim_run(self):
        region = make_pipeline(n=10)
        executor = SimExecutor(cores=2)
        executor.submit(region)
        executor.run()
        sync(region, executor=executor)

    def test_sync_all_after_sim_run(self):
        region = make_pipeline(n=10)
        executor = SimExecutor(cores=2)
        executor.submit(region)
        executor.run()
        sync(executor=executor)

    def test_sync_before_sim_run_raises(self):
        region = make_pipeline(n=10)
        region.finalize()
        executor = SimExecutor(cores=2)
        executor.submit(region)
        with pytest.raises(SchedulerError, match="run"):
            sync(region, executor=executor)

    def test_sync_without_target_or_executor_raises(self):
        with pytest.raises(SchedulerError):
            sync()

    def test_sync_thread_backend_blocks_until_done(self):
        region = make_pipeline(n=10, exact_quality=True)
        executor = ThreadExecutor(timeout=30)
        executor.submit(region)
        executor.run()
        sync(region, executor=executor)
        assert region.output("out") == pipeline_expected(10)


class TestSubmitHelpers:
    def test_submit_chain_returns_regions(self):
        executor = SimExecutor(cores=2)
        regions = [make_pipeline(n=5, name=f"c{i}") for i in range(3)]
        returned = submit_chain(executor, regions)
        assert returned == regions
        executor.run()
        assert all(region.complete for region in regions)

    def test_submit_all_returns_regions(self):
        executor = SimExecutor(cores=4)
        regions = [make_pipeline(n=5, name=f"a{i}") for i in range(3)]
        assert submit_all(executor, regions) == regions
        executor.run()

    def test_submit_stages_runs_everything(self):
        executor = SimExecutor(cores=4)
        stage1 = [make_pipeline(n=5, name="s1a"),
                  make_pipeline(n=5, name="s1b")]
        stage2 = [make_pipeline(n=5, name="s2a")]
        submitted = submit_stages(executor, [stage1, stage2])
        assert len(submitted) == 3
        executor.run()
        assert all(region.complete for region in submitted)

    def test_empty_chain(self):
        executor = SimExecutor(cores=2)
        assert submit_chain(executor, []) == []
        # Nothing submitted: run drains immediately.
        result = executor.run()
        assert result.makespan == 0.0


class TestAdmissionControl:
    def test_max_active_regions_limits_overlap(self):
        def run_with(limit):
            executor = SimExecutor(cores=16, overheads=Overheads.zero(),
                                   max_active_regions=limit)
            submit_all(executor,
                       [make_pipeline(n=20, name=f"r{limit}_{i}")
                        for i in range(4)])
            return executor.run().makespan

        assert run_with(1) > run_with(4)

    def test_admission_respects_submission_order(self):
        executor = SimExecutor(
            cores=2, max_active_regions=1,
            telemetry=Telemetry(metrics=False, chrome=False))
        regions = [make_pipeline(n=5, name=f"fifo{i}") for i in range(4)]
        submit_all(executor, regions)
        result = executor.run()
        done = [event.region for event in result.trace.events
                if event.event == "region-done"]
        assert done == [f"fifo{i}" for i in range(4)]
