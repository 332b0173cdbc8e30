"""repro — a reproduction of *Fluid: A Framework for Approximate
Concurrency via Controlled Dependency Relaxation* (PLDI 2021).

Quickstart::

    from repro import (FluidRegion, PercentValve, SimExecutor, run_serial)

    class Pipeline(FluidRegion):
        def build(self):
            src = self.input_data("src", payload)
            mid = self.add_array("mid", bytearray(n))
            out = self.add_array("out", bytearray(n))
            ct = self.add_count("ct")

            def produce(ctx):
                for i in range(n):
                    mid[i] = transform(src.read()[i])
                    ct.add()
                    yield 1.0

            def consume(ctx):
                for i in range(n):
                    out[i] = refine(mid[i])
                    yield 1.0

            t1 = self.add_task("produce", produce,
                               inputs=[src], outputs=[mid])
            self.add_task("consume", consume,
                          start_valves=[PercentValve(ct, 0.4, n)],
                          end_valves=[PercentValve(ct, 1.0, n)],
                          inputs=[mid], outputs=[out])

    executor = SimExecutor(cores=20)
    executor.submit(Pipeline())
    result = executor.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .core import (AlwaysValve, CompileError, ConvergenceValve, Count,
                   CountValve, DataFinalValve, FluidArray, FluidData,
                   FluidError, FluidRegion, FluidScalar, FluidTask,
                   GraphError, ModulationPolicy, NeverValve, PercentValve,
                   TaskBodyError,
                   PredicateValve, RegionStats, SchedulerError,
                   StabilityValve, StalenessValve, TaskContext,
                   TaskGraph, TaskSpec,
                   TaskState, Valve, ValveError, submit_all,
                   submit_chain, submit_stages, sync)
from .runtime import (BACKENDS, Overheads, ProcessExecutor, RunResult,
                      SimExecutor, SimResult, ThreadExecutor,
                      make_executor, run_serial)
from .telemetry import (MetricsRegistry, Telemetry, TelemetryBus,
                        TelemetryEvent, TimelineRecorder, Trace)
from .tuning import ThresholdTuner, TuningResult, ValveSelector

__version__ = "1.0.0"

__all__ = [
    "AlwaysValve", "CompileError", "ConvergenceValve", "Count",
    "CountValve", "DataFinalValve", "FluidArray", "FluidData",
    "FluidError", "FluidRegion", "FluidScalar", "FluidTask",
    "GraphError", "ModulationPolicy", "NeverValve", "PercentValve",
    "TaskBodyError",
    "PredicateValve", "RegionStats", "SchedulerError", "StabilityValve",
    "StalenessValve",
    "TaskContext", "TaskGraph", "TaskSpec", "TaskState", "Valve",
    "ValveError", "submit_all", "submit_chain", "submit_stages", "sync",
    "BACKENDS", "Overheads", "ProcessExecutor", "RunResult", "SimExecutor",
    "SimResult", "ThreadExecutor", "Trace", "make_executor", "run_serial",
    "TimelineRecorder", "ThresholdTuner", "TuningResult", "ValveSelector",
    "MetricsRegistry", "Telemetry", "TelemetryBus",
    "TelemetryEvent",
    "__version__",
]
