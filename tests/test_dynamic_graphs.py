"""Tests for dynamic task graphs (the paper's Section-8 extension).

A running task may spawn successors via ``ctx.spawn`` — e.g. one
consumer per item a scan discovers ("producer early-termination with
non-fixed consumer count").  These tests cover the scan/worker pattern
on all three executors, the structural restrictions, and valve gating
of spawned tasks.
"""

import pytest

from repro import (FluidRegion, GraphError, PercentValve, SimExecutor,
                   TaskState, Telemetry, ThreadExecutor, run_serial)


class ScatterRegion(FluidRegion):
    """A scan task spawns one worker per discovered bucket."""

    def __init__(self, items=12, buckets=3, name=None):
        self.items = items
        self.buckets = buckets
        super().__init__(name)

    def build(self):
        items = self.items
        src = self.input_data("src", list(range(items)))
        found = self.add_array("found", [])
        self.results = {}

        def scan(ctx):
            seen = set()
            for index in range(items):
                bucket = src.read()[index] % self.buckets
                if bucket not in seen:
                    seen.add(bucket)
                    self._spawn_worker(ctx, bucket)
                found.read().append(index)
                found.touch()
                yield 2.0

        self.add_task("scan", scan, inputs=[src], outputs=[found])

    def _spawn_worker(self, ctx, bucket):
        out = self.add_array(f"out_{bucket}", [0])

        def worker(ctx2, bucket=bucket, out=out):
            total = 0
            for value in range(bucket, self.items, self.buckets):
                total += value
                yield 1.0
            out[0] = total

        ctx.spawn(f"worker_{bucket}", worker,
                  inputs=[self.datas["found"]], outputs=[out])
        self.results[bucket] = out


def expected_bucket_sums(items, buckets):
    return {b: sum(range(b, items, buckets)) for b in range(buckets)}


class TestSimulatorDynamic:
    def test_spawned_workers_run_and_complete(self):
        region = ScatterRegion(items=12, buckets=3, name="scatter")
        executor = SimExecutor(cores=4)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert len(region.tasks) == 1 + 3
        sums = {b: cell[0] for b, cell in region.results.items()}
        assert sums == expected_bucket_sums(12, 3)

    def test_spawned_tasks_counted_in_graph(self):
        region = ScatterRegion(items=9, buckets=3)
        executor = SimExecutor(cores=4)
        executor.submit(region)
        executor.run()
        assert len(region.graph) == 4
        scan = region.graph.task("scan")
        assert {t.name for t in scan.children} == \
            {"worker_0", "worker_1", "worker_2"}
        assert scan.state is TaskState.COMPLETE

    def test_trace_records_spawn_events(self):
        region = ScatterRegion(items=9, buckets=3)
        executor = SimExecutor(
            cores=4, telemetry=Telemetry(metrics=False, chrome=False))
        executor.submit(region)
        result = executor.run()
        assert result.trace.count("spawn") == 3

    def test_spawned_task_with_start_valve(self):
        class Gated(FluidRegion):
            def build(self):
                n = 20
                src = self.input_data("src", list(range(n)))
                mid = self.add_array("mid", [0] * n)
                ct = self.add_count("ct")
                self.out = self.add_array("out", [0] * n)
                region = self

                def produce(ctx):
                    spawned = False
                    for i in range(n):
                        mid[i] = src.read()[i] * 2
                        ct.add()
                        if not spawned:
                            spawned = True

                            def consume(ctx2):
                                for j in range(n):
                                    region.out[j] = mid[j] + 1
                                    yield 1.0

                            ctx.spawn("consume", consume,
                                      start_valves=[PercentValve(
                                          ct, 0.5, n)],
                                      end_valves=[PercentValve(
                                          ct, 1.0, n)],
                                      inputs=[mid], outputs=[region.out])
                        yield 1.0

                self.add_task("produce", produce, inputs=[src],
                              outputs=[mid])

        region = Gated("gated")
        executor = SimExecutor(cores=4)
        executor.submit(region)
        executor.run()
        assert region.complete
        assert region.out.read() == [2 * i + 1 for i in range(20)]


class TestSerialDynamic:
    def test_serial_runs_spawned_tasks(self):
        region = ScatterRegion(items=12, buckets=3)
        run_serial(region)
        sums = {b: cell[0] for b, cell in region.results.items()}
        assert sums == expected_bucket_sums(12, 3)

    def test_serial_matches_fluid(self):
        serial = ScatterRegion(items=15, buckets=3)
        run_serial(serial)
        fluid = ScatterRegion(items=15, buckets=3)
        executor = SimExecutor(cores=4)
        executor.submit(fluid)
        executor.run()
        assert {b: c[0] for b, c in serial.results.items()} == \
            {b: c[0] for b, c in fluid.results.items()}


class TestThreadDynamic:
    def test_thread_backend_runs_spawned_tasks(self):
        region = ScatterRegion(items=12, buckets=3)
        executor = ThreadExecutor(timeout=30)
        executor.submit(region)
        executor.run()
        assert region.complete
        sums = {b: cell[0] for b, cell in region.results.items()}
        assert sums == expected_bucket_sums(12, 3)


class TestRestrictions:
    def test_spawn_without_host_rejected(self):
        region = ScatterRegion(items=6, buckets=2)
        region.finalize()
        scan = region.graph.task("scan")
        scan.state = TaskState.RUNNING
        with pytest.raises(GraphError, match="dynamic"):
            region.spawn_task(scan, "late", lambda ctx: iter(()))

    def test_spawn_from_non_running_task_rejected(self):
        region = ScatterRegion(items=6, buckets=2)
        region.finalize()
        region.dynamic_host = object.__new__(SimExecutor)  # placeholder
        scan = region.graph.task("scan")
        with pytest.raises(GraphError, match="RUNNING"):
            region.spawn_task(scan, "late", lambda ctx: iter(()))

    def test_output_already_produced_rejected(self):
        class BadSpawn(FluidRegion):
            def build(self):
                out = self.add_array("out", [0])

                def body(ctx):
                    yield 1.0

                    def dup(ctx2):
                        yield 1.0

                    ctx.spawn("dup", dup, outputs=[out])

                self.add_task("root", body, outputs=[out])

        executor = SimExecutor(cores=2)
        executor.submit(BadSpawn("badspawn"))
        with pytest.raises(Exception, match="already has producer"):
            executor.run()

    def test_duplicate_dynamic_name_rejected(self):
        class DupName(FluidRegion):
            def build(self):
                mid = self.add_array("mid", [0])

                def body(ctx):
                    yield 1.0

                    def child(ctx2):
                        yield 1.0

                    extra = self.add_array("extra", [0])
                    ctx.spawn("root", child, inputs=[mid],
                              outputs=[extra])

                self.add_task("root", body, outputs=[mid])

        executor = SimExecutor(cores=2)
        executor.submit(DupName("dupname"))
        with pytest.raises(Exception, match="duplicate task name"):
            executor.run()

    def test_demoting_end_valved_leaf_rejected(self):
        class Demote(FluidRegion):
            def build(self):
                from repro import AlwaysValve
                mid = self.add_array("mid", [0])
                self_region = self

                def body(ctx):
                    yield 1.0

                    def child(ctx2):
                        yield 1.0

                    extra = self_region.add_array("extra", [0])
                    ctx.spawn("child", child, inputs=[mid],
                              outputs=[extra])

                self.add_task("root", body, outputs=[mid],
                              end_valves=[AlwaysValve()])

        executor = SimExecutor(cores=2)
        executor.submit(Demote("demote"))
        with pytest.raises(Exception, match="end valves"):
            executor.run()
