#!/usr/bin/env python
"""Dynamic task graphs: spawning consumers while the region executes.

The paper's Section 8 lists "accommodating dynamic task-graphs"
(producer early-termination with non-fixed consumer count) as its first
piece of future work; this repository implements it as an extension.  A
scanning producer discovers work categories on the fly and calls
``ctx.spawn`` to create one fluid consumer per category — each gated by
its own start valve, overlapping the still-running scan.

Run:  python examples/dynamic_task_graph.py
"""

from repro import (FluidRegion, PercentValve, SimExecutor, Telemetry,
                   run_serial)

ITEMS = 240
CATEGORIES = 4


class AdaptiveAnalysis(FluidRegion):
    """Scan a stream; spawn one aggregator per category discovered."""

    def build(self):
        stream = self.input_data("stream",
                                 [(i * 7919) % CATEGORIES for i in
                                  range(ITEMS)])
        scanned = self.add_array("scanned", [0] * ITEMS)
        progress = self.add_count("progress")
        self.totals = {}
        region = self

        def scan(ctx):
            seen = set()
            values = stream.read()
            for index in range(ITEMS):
                category = values[index]
                scanned[index] = category
                progress.add()
                if category not in seen:
                    seen.add(category)
                    spawn_aggregator(ctx, category)
                yield 2.0

        def spawn_aggregator(ctx, category):
            out = region.add_array(f"total_{category}", [0])
            region.totals[category] = out

            def aggregate(ctx2, category=category, out=out):
                total = 0
                values = stream.read()
                for index in range(ITEMS):
                    if values[index] == category:
                        total += index
                    yield 0.5
                out[0] = total

            # Each consumer waits until 30% of the scan is done, then
            # overlaps with it.
            ctx.spawn(f"aggregate_{category}", aggregate,
                      start_valves=[PercentValve(progress, 0.3, ITEMS)],
                      inputs=[scanned], outputs=[out])

        self.add_task("scan", scan, inputs=[stream], outputs=[scanned])


def main():
    serial_region = AdaptiveAnalysis("serial")
    serial = run_serial(serial_region)

    fluid_region = AdaptiveAnalysis("fluid")
    executor = SimExecutor(cores=8,
                           telemetry=Telemetry(metrics=False, chrome=False))
    executor.submit(fluid_region)
    fluid = executor.run()

    print(f"tasks in the final graph: {len(fluid_region.graph)} "
          f"(1 static scan + {CATEGORIES} spawned aggregators)")
    print(f"spawn events in trace:    {fluid.trace.count('spawn')}")
    print(f"serial makespan:          {serial.makespan:10.1f}")
    print(f"fluid makespan:           {fluid.makespan:10.1f} "
          f"({serial.makespan / fluid.makespan:.2f}x)")
    agree = all(fluid_region.totals[c][0] == serial_region.totals[c][0]
                for c in range(CATEGORIES))
    print(f"outputs agree with serial: {agree}")
    for category in sorted(fluid_region.totals):
        print(f"  category {category}: {fluid_region.totals[category][0]}")


if __name__ == "__main__":
    main()
