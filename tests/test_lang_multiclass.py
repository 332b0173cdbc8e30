"""A whole FluidPy program: two fluid classes plus passthrough driver code.

Mirrors the paper's Figure 3 ``main()`` that instantiates two
EdgeDetection objects and runs both regions (inter-region concurrency).
"""

import textwrap


from repro import SimExecutor, Telemetry, submit_all
from repro.lang import load_source, translate_source

PROGRAM = textwrap.dedent('''
    """Two-stage pipeline program with a helper and a driver."""

    SCALE = 3


    def helper(value):
        return value * SCALE


    __fluid__
    class Doubler:
        #pragma data {int *d_in;}
        #pragma data {int *d_out;}
        #pragma count {int ct;}
        #pragma valve {ValveCT v_end;}

        def run(self, ctx, ct):
            values = self.d_in.read()
            out = self.d_out.read()
            for i in range(len(values)):
                out[i] = values[i] * 2
                self.d_out.touch()
                ct.add()
                yield 1.0

        def check(self, ctx):
            for _ in range(2):
                yield 0.5

        def region(self):
            n = len(self.values)
            d_in.init(list(self.values))
            d_out.init([0] * n)
            ct.init(0)
            #pragma task <<<t1, {}, {}, {d_in}, {d_out}>>> run(ct)
            v_end.init(ct, 1.0 * n)
            sync(t1)


    __fluid__
    class Scaler:
        #pragma data {int *d_in;}
        #pragma data {int *d_out;}
        #pragma count {int ct;}

        def run(self, ctx, ct):
            values = self.d_in.read()
            out = self.d_out.read()
            for i in range(len(values)):
                out[i] = helper(values[i])
                self.d_out.touch()
                ct.add()
                yield 1.0

        def region(self):
            n = len(self.values)
            d_in.init(list(self.values))
            d_out.init([0] * n)
            ct.init(0)
            #pragma task <<<t1, {}, {}, {d_in}, {d_out}>>> run(ct)
            sync(t1)


    def build_all(values):
        """Passthrough driver: the Figure-3 main() shape."""
        return [Doubler(values=values), Scaler(values=values)]
''')


class TestMultiClassProgram:
    def test_both_classes_translated(self):
        result = translate_source(PROGRAM, "pair.fpy")
        assert result.class_names == ["Doubler", "Scaler"]

    def test_passthrough_helpers_survive(self):
        source = translate_source(PROGRAM, "pair.fpy").python_source
        assert "def helper(value):" in source
        assert "SCALE = 3" in source
        assert "def build_all(values):" in source

    def test_driver_builds_and_runs_both_regions(self):
        namespace = load_source(PROGRAM, "pair.fpy")
        regions = namespace["build_all"]([1, 2, 3, 4])
        executor = SimExecutor(cores=4)
        submit_all(executor, regions)
        executor.run()
        doubler, scaler = regions
        assert doubler.output("d_out") == [2, 4, 6, 8]
        assert scaler.output("d_out") == [3, 6, 9, 12]

    def test_regions_overlap(self):
        namespace = load_source(PROGRAM, "pair.fpy")
        values = list(range(200))
        regions = namespace["build_all"](values)
        executor = SimExecutor(
            cores=4, telemetry=Telemetry(metrics=False, chrome=False))
        submit_all(executor, regions)
        result = executor.run()
        # Inter-region concurrency: the second region launches before the
        # first finishes.
        launches = {e.region: e.time for e in result.trace.events
                    if e.event == "launch"}
        dones = {e.region: e.time for e in result.trace.events
                 if e.event == "region-done"}
        names = list(launches)
        assert launches[names[1]] < min(dones.values())

    def test_table2_stats_count_both_classes(self):
        result = translate_source(PROGRAM, "pair.fpy")
        per_class = result.per_class_stats()
        assert [s.class_name for s in per_class] == ["Doubler", "Scaler"]
        assert all(s.region_pragmas >= 4 for s in per_class)
