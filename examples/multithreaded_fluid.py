#!/usr/bin/env python
"""Composing Fluid with conventional multithreading (Section 7.5).

Edge detection split into row bands — the conventional multithreaded
decomposition — with fluid valves layered on top, swept over thread
counts on a simulated 20-core machine.  Also demonstrates the real
OS-thread backend on a small region (semantics only: under CPython the
GIL serializes the actual compute, see DESIGN.md).

Run:  python examples/multithreaded_fluid.py
"""

from repro import ThreadExecutor
from repro.apps.edge_detection import EdgeDetectionApp
from repro.workloads import synthetic_image

from quickstart import Pipeline  # reuse the quickstart region


def main():
    image = synthetic_image(64, 64, noise=12.0, seed=11)
    app = EdgeDetectionApp(image)

    print("threads | multithreaded baseline | fluid | fluid/baseline")
    for threads in (1, 2, 4, 8, 16):
        baseline = app.run_multithreaded_baseline(threads)
        fluid = app.run_fluid(parallelism=threads)
        print(f"{threads:7} | {baseline.makespan:22.0f} | "
              f"{fluid.makespan:9.0f} | "
              f"{fluid.makespan / baseline.makespan:14.3f}")

    print("\nreal-thread backend (bodies on a 4-worker pool):")
    region = Pipeline("threads-demo")
    executor = ThreadExecutor(timeout=30)
    executor.submit(region)
    result = executor.run()
    print(f"  wall-clock makespan: {result.makespan * 1000:.1f} ms")
    print(f"  region complete:     {region.complete}")


if __name__ == "__main__":
    main()
