#!/usr/bin/env python
"""A tour of the unified telemetry layer.

One `Telemetry` object bundles the event bus with the standard
subscribers: one `Trace` record of the run's events and a
`MetricsRegistry` (valve verdicts, re-executions, early terminations,
stall time, worker utilization).  The structural trace and a Chrome
trace-event document are views over that one record; the JSON loads
directly in chrome://tracing or https://ui.perfetto.dev, with one row
per task and re-execution stretches visible exactly like the paper's
Gantt figures.

The same object works on every backend; here we run a K-means epoch
chain on the simulator, print the headline counters, and write both
artifacts next to this script.

Run:  python examples/telemetry_tour.py
"""

import os
import tempfile

import numpy as np

from repro import Telemetry
from repro.apps.kmeans import KMeansApp


def main():
    rng = np.random.default_rng(5)
    app = KMeansApp(rng.random((24, 24)), num_clusters=4, epochs=4, seed=5)

    telemetry = Telemetry()
    fluid = app.run_fluid(telemetry=telemetry)
    print(f"fluid K-means finished: makespan {fluid.makespan:.0f} cost "
          f"units, error {fluid.error:.4f}\n")

    counters = telemetry.metrics.counters
    print("headline counters:")
    for key in ("tasks.runs", "tasks.completed", "tasks.reexecutions",
                "tasks.early_terminations", "tasks.quality_failures",
                "valve.start.pass", "valve.start.fail",
                "valve.end.pass", "valve.end.fail"):
        print(f"  {key:<26} {counters[key]:g}")
    print(f"  {'time.waiting':<26} {counters['time.waiting']:.0f}")
    print(f"  {'time.dep_stalled':<26} {counters['time.dep_stalled']:.0f}")
    gauges = telemetry.metrics.gauges
    print(f"  worker utilization         {gauges['worker.utilization']:.3f} "
          f"({gauges['run.workers']:g} virtual cores)\n")

    # The structural view of the trace: scheduler + guard events.
    print("first trace lines:")
    print(telemetry.trace.render(limit=6), "\n")

    out_dir = tempfile.mkdtemp(prefix="fluid-telemetry-")
    trace_path = os.path.join(out_dir, "kmeans.perfetto.json")
    metrics_path = os.path.join(out_dir, "kmeans.metrics.json")
    telemetry.write(trace_out=trace_path, metrics_out=metrics_path)
    slices = sum(1 for event in telemetry.chrome_trace()["traceEvents"]
                 if event.get("ph") == "X")
    print(f"wrote {trace_path} ({slices} timeline slices; open it at "
          "https://ui.perfetto.dev)")
    print(f"wrote {metrics_path} (inspect with "
          "python -m repro.telemetry summarize)")


if __name__ == "__main__":
    main()
