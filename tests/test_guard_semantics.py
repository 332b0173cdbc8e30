"""Semantic tests for the guard state machine (Figure 5 / Section 6.1).

These exercise the interesting runtime behaviours end-to-end on the
simulator: the three CE completion conditions, re-execution on quality
failure, request propagation into the D state, early termination, and
the worst-case convergence to precise output.
"""


from repro import (FluidRegion, ModulationPolicy, NeverValve, PercentValve,
                   PredicateValve, SimExecutor, TaskState, Telemetry)

from util import (chain_expected, diamond_expected, make_chain, make_diamond,
                  make_pipeline, pipeline_expected)


def run_sim(region, cores=4, **kwargs):
    executor = SimExecutor(cores=cores, **kwargs)
    executor.submit(region)
    result = executor.run()
    return executor, result


class TestCompletionConditions:
    def test_root_completes_via_precise_inputs(self):
        region = make_pipeline(n=10)
        _, result = run_sim(
            region, telemetry=Telemetry(metrics=False, chrome=False))
        assert result.trace.count("complete", "produce") == 1
        events = [e for e in result.trace.events
                  if e.task == "produce" and e.event == "complete"]
        assert events[0].detail == "precise-inputs"

    def test_leaf_without_end_valves_completes_immediately(self):
        region = make_pipeline(n=10, end_fraction=None, start_fraction=0.2,
                               consumer_cost=0.1)
        _, result = run_sim(
            region, telemetry=Telemetry(metrics=False, chrome=False))
        leaf = region.graph.task("consume")
        assert leaf.stats.runs == 1
        assert leaf.stats.quality_failures == 0

    def test_leaf_completes_via_quality(self):
        region = make_pipeline(n=10, start_fraction=0.5)
        _, result = run_sim(
            region, telemetry=Telemetry(metrics=False, chrome=False))
        completes = [e for e in result.trace.events
                     if e.task == "consume" and e.event == "complete"]
        assert completes[-1].detail in ("quality-passed", "precise-inputs")

    def test_interior_completes_via_descendants(self):
        region = make_chain(depth=3, n=20, exact_quality=False)
        _, result = run_sim(region)
        assert region.complete


class TestReExecution:
    def test_quality_failure_triggers_rerun(self):
        # Fast consumer races far ahead of a slow producer.
        region = make_pipeline(n=30, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3)
        _, _ = run_sim(region)
        leaf = region.graph.task("consume")
        assert leaf.stats.quality_failures >= 1
        assert leaf.stats.runs >= 2

    def test_output_precise_after_reexecution_chain(self):
        region = make_pipeline(n=30, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3)
        run_sim(region)
        assert region.output("out") == pipeline_expected(30)

    def test_worst_case_converges_to_precise(self):
        # NeverValve quality: can never pass; the region must still finish
        # by re-running on fully precise inputs (quality override).
        class Stubborn(FluidRegion):
            def build(self):
                src = self.input_data("src", list(range(10)))
                mid = self.add_array("mid", [0] * 10)
                out = self.add_array("out", [0] * 10)
                ct = self.add_count("ct")

                def produce(ctx):
                    for i in range(10):
                        mid[i] = src.read()[i] * 2
                        ct.add()
                        yield 1.0

                def consume(ctx):
                    for i in range(10):
                        out[i] = mid[i] + 1
                        yield 0.1

                self.add_task("produce", produce, inputs=[src], outputs=[mid])
                self.add_task("consume", consume,
                              start_valves=[PercentValve(ct, 0.2, 10)],
                              end_valves=[NeverValve()],
                              inputs=[mid], outputs=[out])

        region = Stubborn("stubborn")
        run_sim(region)
        assert region.complete
        assert region.output("out") == pipeline_expected(10)
        leaf = region.graph.task("consume")
        # The final, accepted run started on precise inputs.
        assert leaf.started_precise

    def test_chain_reexecution_propagates(self):
        region = make_chain(depth=3, n=20, exact_quality=True,
                            costs=[3.0, 1.0, 0.2])
        run_sim(region)
        assert region.output("a2") == chain_expected(3, 20)
        middle = region.graph.task("t1")
        assert middle.stats.runs >= 2  # re-ran to refine its output


class TestEarlyTermination:
    def test_pointless_rerun_is_cancelled_or_skipped(self):
        region = make_chain(depth=3, n=20, exact_quality=True,
                            costs=[3.0, 1.0, 0.2])
        _, result = run_sim(
            region, telemetry=Telemetry(metrics=False, chrome=False))
        cancels = result.trace.count("complete") \
            + sum(t.stats.cancelled_runs for t in region.tasks)
        assert region.complete
        # Early termination shows up as cancelled runs or skipped reruns
        # in deep chains with fast leaves; at minimum nothing deadlocks
        # and every task completed exactly once logically.
        for task in region.tasks:
            assert task.state is TaskState.COMPLETE


class TestDependenceStall:
    def test_request_propagates_to_d_state(self):
        # Producer finishes quickly on *imprecise* input while the root is
        # still slowly producing; the leaf's quality check then demands
        # more precise data, stalling the middle task into D.
        class Stall(FluidRegion):
            def build(self):
                n = 40
                src = self.input_data("src", list(range(n)))
                a = self.add_array("a", [0] * n)
                b = self.add_array("b", [0] * n)
                c = self.add_array("c", [0] * n)
                ct0 = self.add_count("ct0")
                ct1 = self.add_count("ct1")

                def t0(ctx):
                    for i in range(n):
                        a[i] = src.read()[i] + 1
                        ct0.add()
                        yield 10.0  # very slow root

                def t1(ctx):
                    for i in range(n):
                        b[i] = a[i] * 10
                        ct1.add()
                        yield 0.05  # finishes long before the root

                def t2(ctx):
                    for i in range(n):
                        c[i] = b[i] + 5
                        yield 0.05

                self.add_task("t0", t0, inputs=[src], outputs=[a])
                self.add_task("t1", t1, inputs=[a], outputs=[b],
                              start_valves=[PercentValve(ct0, 0.1, n)])
                self.add_task("t2", t2, inputs=[b], outputs=[c],
                              start_valves=[PercentValve(ct1, 1.0, n)],
                              end_valves=[PredicateValve(
                                  lambda: all(c[i] == (i + 1) * 10 + 5
                                              for i in range(n)))])

        region = Stall("stall")
        _, result = run_sim(
            region, telemetry=Telemetry(metrics=False, chrome=False))
        assert region.complete
        assert region.output("c") == [(i + 1) * 10 + 5 for i in range(40)]
        t1 = region.graph.task("t1")
        assert t1.stats.visits[TaskState.DEP_STALLED] >= 1
        assert result.trace.count("dep-stalled", "t1") >= 1


class TestDiamond:
    def test_multi_producer_join(self):
        region = make_diamond(n=24)
        run_sim(region)
        assert region.output("out") == diamond_expected(24)

    def test_all_tasks_complete(self):
        region = make_diamond(n=24)
        run_sim(region)
        assert all(t.state is TaskState.COMPLETE for t in region.tasks)


class TestModulation:
    def test_quality_failures_tighten_thresholds(self):
        region = make_pipeline(n=30, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3)
        executor = SimExecutor(cores=4,
                               modulation=ModulationPolicy(fraction=0.5))
        executor.submit(region)
        executor.run()
        valve = region.graph.task("consume").spec.start_valves[0]
        assert valve.threshold > valve.base_threshold

    def test_zero_fraction_is_noop(self):
        region = make_pipeline(n=30, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3)
        executor = SimExecutor(cores=4,
                               modulation=ModulationPolicy(fraction=0.0))
        executor.submit(region)
        executor.run()
        valve = region.graph.task("consume").spec.start_valves[0]
        assert valve.threshold == valve.base_threshold
