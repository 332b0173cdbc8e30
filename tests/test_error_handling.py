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


# That a raising body surfaces as one TaskBodyError, with its context,
# run index and cause, and is counted once, is checked on every driver by
# test_metrics_are_folds.py::test_unfinished_region_is_folded_at_run_end.


class TestSimulatorErrors:
    def test_error_in_first_chunk(self):
        executor = SimExecutor(cores=2)
        executor.submit(broken_region("early", explode_at=0))
        with pytest.raises(TaskBodyError):
            executor.run()


class TestThreadBackendErrors:
    def test_healthy_regions_unaffected(self):
        from util import make_pipeline, pipeline_expected
        region = make_pipeline(n=10, exact_quality=True)
        executor = ThreadExecutor(timeout=10)
        executor.submit(region)
        executor.run()
        assert region.output("out") == pipeline_expected(10)
