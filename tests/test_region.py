"""Unit tests for FluidRegion declaration and lifecycle."""

import pytest

from repro import AlwaysValve, FluidRegion, GraphError, SimExecutor, run_serial
from repro.core.count import ImmediateSink
from repro.core.states import TaskState

from util import make_pipeline, pipeline_expected


def _noop(ctx):
    yield 0.0


class TestDeclaration:
    def test_add_data_scalar(self):
        region = FluidRegion("r")
        d = region.add_data("d", 5)
        assert region.datas["d"] is d
        assert d.read() == 5

    def test_add_array(self):
        region = FluidRegion("r")
        a = region.add_array("a", [1, 2])
        assert len(a) == 2

    def test_input_data_is_precise(self):
        region = FluidRegion("r")
        src = region.input_data("src", 9)
        assert src.final and src.precise

    def test_duplicate_data_rejected(self):
        region = FluidRegion("r")
        region.add_data("d")
        with pytest.raises(GraphError):
            region.add_data("d")

    def test_duplicate_count_rejected(self):
        region = FluidRegion("r")
        region.add_count("ct")
        with pytest.raises(GraphError):
            region.add_count("ct")

    def test_task_valves_registered(self):
        region = FluidRegion("r")
        valve = AlwaysValve()
        region.add_task("t", _noop, start_valves=[valve])
        assert valve in region.valves

    def test_auto_generated_names_unique(self):
        assert FluidRegion().name != FluidRegion().name


class TestFinalize:
    def test_finalize_builds_graph(self):
        region = make_pipeline(n=4)
        graph = region.finalize()
        assert len(graph) == 2

    def test_finalize_idempotent(self):
        region = make_pipeline(n=4)
        assert region.finalize() is region.finalize()

    def test_finalize_calls_build_once(self):
        calls = []

        class R(FluidRegion):
            def build(self):
                calls.append(1)
                self.add_task("t", _noop)

        region = R("r")
        region.finalize()
        region.finalize()
        assert calls == [1]

    def test_no_tasks_after_finalize(self):
        region = make_pipeline(n=4)
        region.finalize()
        with pytest.raises(GraphError, match="future work"):
            region.add_task("late", _noop)

    def test_invalid_shape_raises_at_finalize(self):
        class Bad(FluidRegion):
            def build(self):
                self.add_task("a", _noop)
                self.add_task("b", _noop)  # two roots

        with pytest.raises(GraphError):
            Bad("bad").finalize()


class TestLifecycle:
    def test_complete_false_before_run(self):
        region = make_pipeline(n=4)
        region.finalize()
        assert not region.complete

    def test_complete_after_serial_run(self):
        region = make_pipeline(n=4)
        run_serial(region)
        assert region.complete

    def test_output_reads_final_value(self):
        region = make_pipeline(n=4)
        run_serial(region)
        assert region.output("out") == pipeline_expected(4)

    def test_reset_valves_undoes_modulation(self):
        """``reset`` re-arms a finished region: valves back at base with
        no checks counted, tasks in INIT with fresh stats, counts at 0."""
        region = make_pipeline(n=10)
        run_serial(region)
        valve = region.tasks[1].spec.start_valves[0]
        valve.tighten(1.0)
        valve.check()
        region.reset("again")
        assert valve.threshold == valve.base_threshold
        assert valve.checks == 0 and region.name == "again"
        assert all(task.state is TaskState.INIT and task.stats.runs == 0
                   for task in region.tasks)
        assert all(count.value == 0 for count in region.counts.values())

    def test_bind_sink_reroutes_counts(self):
        region = make_pipeline(n=4)
        region.finalize()
        sink = ImmediateSink()
        region.bind_sink(sink)
        assert all(ct._sink is sink for ct in region.counts.values())


class TestStatsPlumbing:
    def test_region_stats_name(self):
        region = make_pipeline(n=4, name="edge")
        assert region.stats.region_name == "edge"

    def test_sim_run_records_makespan(self):
        region = make_pipeline(n=10)
        executor = SimExecutor(cores=2)
        executor.submit(region)
        executor.run()
        assert region.stats.makespan > 0
