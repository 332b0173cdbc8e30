"""Figure 6: normalized latency and accuracy of every fluidized app.

Paper: "on average, Fluid brings 22.2% execution time improvements ...
with 1.4% reduction in accuracy, for empirically-chosen Fluid valve
hyperparameters."  Expected shape: every app below 1.0 normalized
latency at its default valve settings; accuracy close to 1.0; denser
graphs and larger vectors gain more than sparse/small ones.
"""

import numpy as np

from repro.bench import render_table, run_comparison, standard_suite


def test_fig6_all_apps(report, run_once):
    rows = []

    def run_suite():
        for app_name, inputs in standard_suite().items():
            for input_name, factory in inputs.items():
                row = run_comparison(factory(), input_name)
                rows.append(row)

    run_once(run_suite)

    table = [row.as_list() for row in rows]
    latencies = np.array([row.normalized_latency for row in rows])
    accuracies = np.array([row.normalized_accuracy for row in rows])
    table.append(["AVERAGE", "-", float(latencies.mean()),
                  float(accuracies.mean()), ""])
    report("fig6_latency_accuracy", render_table(
        "Figure 6: fluidized latency and accuracy, normalized to the "
        "original (precise, serial) version",
        ["app", "input", "norm latency", "norm accuracy", "native metric"],
        table))

    # Shape assertions (paper: 22.2% average improvement, small accuracy
    # loss; we require the same direction with generous tolerances).
    assert latencies.mean() < 0.9, "fluid should win on average"
    assert accuracies.mean() > 0.9, "accuracy loss should be small"
    assert (latencies < 1.05).mean() > 0.8, \
        "the vast majority of configurations should not regress"

    # Density axis: dense graphs gain at least as much as sparse ones.
    by_name = {(r.app, r.input_name): r.normalized_latency for r in rows}
    assert by_name[("graph_coloring", "1K_12K")] <= \
        by_name[("graph_coloring", "1K_4K")] + 0.05

    # Size axis: the larger FFT gains at least as much as the smaller.
    assert by_name[("fft", "N4K")] <= by_name[("fft", "N1K")] + 0.05
