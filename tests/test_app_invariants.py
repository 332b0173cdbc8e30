"""Cross-application invariants of the evaluation protocol.

The strongest one is the paper's own observation: "setting all valves to
require the completion of antecedents ... will result in a precise
execution".  For every app whose region is a pure dependency chain
(no sibling task parallelism), a zero-overhead, full-threshold fluid run
must equal the serial makespan exactly and reproduce the precise output.
"""

import numpy as np
import pytest

from repro.apps.bellman_ford import BellmanFordApp
from repro.apps.edge_detection import EdgeDetectionApp
from repro.apps.graph_coloring import GraphColoringApp
from repro.apps.kmeans import KMeansApp
from repro.apps.medusadock import MedusaDockApp
from repro.apps.neural_network import NeuralNetworkApp
from repro.runtime.simulator import Overheads
from repro.workloads import (random_graph, synthetic_digits,
                             synthetic_image, synthetic_poses)


def chain_apps():
    yield "edge_detection", EdgeDetectionApp(
        synthetic_image(24, 24, seed=201))
    yield "kmeans", KMeansApp(synthetic_image(20, 20, seed=202),
                              num_clusters=3, epochs=3)
    yield "bellman_ford", BellmanFordApp(
        random_graph(120, 600, seed=203), iterations=5)
    yield "graph_coloring", GraphColoringApp(
        random_graph(150, 900, seed=204))
    yield "neural_network", NeuralNetworkApp(
        synthetic_digits(samples=64, seed=205), batch_size=64)
    yield "medusadock", MedusaDockApp(
        [synthetic_poses(num_poses=24, seed=s, name=f"p{s}")
         for s in range(2)], top_k=3)


@pytest.mark.parametrize("name,app", list(chain_apps()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_full_threshold_zero_overhead_equals_serial(name, app):
    precise = app.run_precise()
    fluid = app.run_fluid(threshold=1.0, valve="percent",
                          overheads=Overheads.zero())
    assert fluid.makespan == pytest.approx(precise.makespan, rel=1e-6), \
        f"{name}: full-threshold fluid must serialize exactly"
    # Outputs must equal the precise run's bit-for-bit.  (Comparing
    # app.error would be wrong for Bellman-Ford, whose metric is taken
    # against full convergence rather than the fixed-budget baseline.)
    assert _same(fluid.output, precise.output), \
        f"{name}: full-threshold fluid output must equal precise output"


def _same(a, b) -> bool:
    """Structural equality over arrays / tuples / lists of arrays."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("name,app", list(chain_apps()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_default_fluid_never_catastrophic(name, app):
    """At its shipped defaults every app stays within sane bands."""
    precise = app.run_precise()
    fluid = app.run_fluid()
    assert fluid.makespan < 1.5 * precise.makespan
    assert fluid.accuracy > 0.5


def headline_first_inputs():
    """Each Figure-6 app's first input with its headline valve."""
    from repro.bench.harness import HEADLINE_VALVE, standard_suite

    return {name: (next(iter(inputs.values())),
                   HEADLINE_VALVE.get(name, "percent"))
            for name, inputs in standard_suite().items()}


@pytest.mark.parametrize("name", list(headline_first_inputs()))
def test_full_threshold_is_precise_on_the_thread_driver(name):
    """The degenerate bound off the simulator: with every valve at its
    full threshold, a thread-driver run returns the precise output
    exactly, in every one of 5 runs under a GIL switch every 10 us."""
    import sys

    make, valve = headline_first_inputs()[name]
    app = make()
    precise = app.run_precise()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runs = [app.run_fluid(threshold=1.0, valve=valve, backend="thread")
                for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert [run.error for run in runs] == [0.0] * 5
    assert all(_same(run.output, precise.output) for run in runs)
