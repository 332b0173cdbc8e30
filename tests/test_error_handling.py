"""Tests for failure reporting: body exceptions carry task context."""

import pytest

from repro import FluidRegion, SimExecutor, ThreadExecutor
from repro.core.errors import TaskBodyError


def broken_region(name="broken", explode_at=3):
    class Broken(FluidRegion):
        def build(self):
            out = self.add_array("out", [0] * 10)

            def body(ctx):
                for i in range(10):
                    if i == explode_at:
                        raise ValueError("kaboom")
                    out[i] = i
                    yield 1.0

            self.add_task("worker", body, outputs=[out])

    return Broken(name)


class TestSimulatorErrors:
    def test_body_error_wrapped_with_context(self):
        executor = SimExecutor(cores=2)
        executor.submit(broken_region("sim_broken"))
        with pytest.raises(TaskBodyError) as exc:
            executor.run()
        assert "sim_broken/worker" in str(exc.value)
        assert "kaboom" in str(exc.value)
        assert isinstance(exc.value.__cause__, ValueError)

    def test_error_in_first_chunk(self):
        executor = SimExecutor(cores=2)
        executor.submit(broken_region("early", explode_at=0))
        with pytest.raises(TaskBodyError):
            executor.run()

    def test_run_index_recorded(self):
        executor = SimExecutor(cores=2)
        executor.submit(broken_region("runidx"))
        with pytest.raises(TaskBodyError) as exc:
            executor.run()
        assert exc.value.run_index == 0


class TestThreadBackendErrors:
    def test_body_error_surfaces_from_run(self):
        executor = ThreadExecutor(timeout=10)
        executor.submit(broken_region("thr_broken"))
        with pytest.raises(TaskBodyError) as exc:
            executor.run()
        assert "thr_broken/worker" in str(exc.value)

    def test_healthy_regions_unaffected(self):
        from util import make_pipeline, pipeline_expected
        region = make_pipeline(n=10, exact_quality=True)
        executor = ThreadExecutor(timeout=10)
        executor.submit(region)
        executor.run()
        assert region.output("out") == pipeline_expected(10)
