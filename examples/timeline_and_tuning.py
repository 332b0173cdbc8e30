#!/usr/bin/env python
"""Inspect a fluid schedule as an ASCII Gantt chart, then auto-tune it.

Part 1 renders the task timeline of a racing pipeline: the consumer's
valve wait (``=``), its re-executions (repeated ``#`` stretches) and its
waits (``w``) are all visible — the runtime behaviour of the paper's
Figure 5/Table 3 as a picture.

Part 2 runs the Section-4.4 auto-tuner: find the smallest start-valve
threshold whose error stays inside a budget.

Run:  python examples/timeline_and_tuning.py
"""

from repro import (FluidRegion, PercentValve, SimExecutor, Telemetry,
                   ThresholdTuner, TimelineRecorder)
from repro.apps.kmeans import KMeansApp
from repro.workloads import synthetic_image

N = 120


class RacingPipeline(FluidRegion):
    """A consumer 10x faster than its producer: guaranteed re-execution."""

    def build(self):
        source = self.input_data("source", list(range(N)))
        mid = self.add_array("mid", [0] * N)
        out = self.add_array("out", [0] * N)
        ct = self.add_count("ct")

        def produce(ctx):
            for i in range(N):
                mid[i] = source.read()[i] * 2
                ct.add()
                yield 4.0

        def consume(ctx):
            for i in range(N):
                out[i] = mid[i] + 1
                yield 0.4

        self.add_task("produce", produce, inputs=[source], outputs=[mid])
        self.add_task("consume", consume,
                      start_valves=[PercentValve(ct, 0.3, N)],
                      end_valves=[PercentValve(ct, 1.0, N)],
                      inputs=[mid], outputs=[out])


def main():
    print("=== Part 1: the schedule, drawn ===")
    region = RacingPipeline("race")
    telemetry = Telemetry(metrics=False, chrome=False)
    recorder = TimelineRecorder().connect(telemetry.bus)
    executor = SimExecutor(cores=4, telemetry=telemetry)
    executor.submit(region)
    executor.run()
    print(recorder.render(width=76))
    print(f"consumer executions: {recorder.runs_of('race/consume')}\n")

    print("=== Part 2: auto-tuning K-means (error budget 3%) ===")
    app = KMeansApp(synthetic_image(40, 40, diversity=6, seed=21),
                    num_clusters=5, epochs=5)
    tuner = ThresholdTuner(error_budget=0.03, resolution=0.05)
    result = tuner.tune(app)
    print(f"chosen threshold: {result.threshold:.3f}")
    print(f"normalized latency: {result.normalized_latency:.3f} "
          f"(error {100 * result.error:.2f}%)")
    print(f"probes spent: {result.num_probes}")
    for probe in result.probes:
        print(f"  threshold {probe.threshold:.3f} -> "
              f"latency {probe.normalized_latency:.3f}, "
              f"error {100 * probe.error:.2f}%")


if __name__ == "__main__":
    main()
