"""Bellman-Ford: a chain of relax iterations in one fluid region.

The paper's class-3 task graph (Figure 1(a) center-right): iteration
``k+1`` may start relaxing edges once a fraction of iteration ``k``'s
edges have been processed, pipelining the wavefront.  Skipped or stale
relaxations are benign for most graphs because "each vertex tends to
only update its neighbors very few times" — the fluid output usually
matches the precise shortest paths exactly (Figure 6).

Each iteration task copies the (possibly partial) previous distance
vector and relaxes every edge in chunks; the distance array is shared
in-place, so a racing successor sees progressively better bounds.
Distances only ever decrease, which is why consuming a partial vector is
safe: it is an upper bound that later iterations repair.
"""

from __future__ import annotations

import numpy as np

from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve
from ..metrics.error import normalized_path_error
from ..workloads.graphs import GraphInput, bellman_ford_reference
from .base import FluidApp, SubmitPlan

RELAX_COST_PER_EDGE = 3.0
CHUNK_EDGES = 512


class BellmanFordRegion(FluidRegion):
    """seed -> relax_0 -> ... -> relax_{iterations-1} (leaf)."""

    def __init__(self, app: "BellmanFordApp", threshold: float):
        self.app = app
        self.threshold = threshold
        super().__init__()

    def build(self):
        app = self.app
        graph = app.graph
        m = graph.num_edges
        src_cell = self.input_data("graph", graph)
        dist = app._dist_work
        self._dist = dist

        previous_cell = self.add_data("dist_0")
        previous_count = None

        def seed(ctx):
            previous_cell.write(dist)
            yield float(graph.num_vertices)

        self.add_task("seed", seed, inputs=[src_cell],
                      outputs=[previous_cell])

        for iteration in range(app.iterations):
            out_cell = self.add_data(f"dist_{iteration + 1}")
            ct = self.add_count(f"relaxed_{iteration}")
            if previous_count is not None:
                start = [PercentValve(previous_count, self.threshold, m,
                                      name=f"v_start_{iteration}")]
            else:
                # The first relax waits for the seeded distance vector;
                # without this it would race the seed task even at a
                # 100% threshold.
                start = [DataFinalValve(previous_cell,
                                        name="v_seeded")]
            is_leaf = iteration == app.iterations - 1
            end = []
            if is_leaf and previous_count is not None:
                end = [PercentValve(previous_count, 1.0, m,
                                    name="v_quality")]

            def relax(ctx, ct=ct, out_cell=out_cell):
                for chunk in range(0, m, CHUNK_EDGES):
                    hi = min(chunk + CHUNK_EDGES, m)
                    sources = graph.src[chunk:hi]
                    targets = graph.dst[chunk:hi]
                    relaxed = dist[sources] + graph.weight[chunk:hi]
                    np.minimum.at(dist, targets, relaxed)
                    out_cell.touch()
                    ct.add(hi - chunk)
                    yield RELAX_COST_PER_EDGE * (hi - chunk)

            self.add_task(f"relax_{iteration}", relax,
                          start_valves=start, end_valves=end,
                          inputs=[previous_cell], outputs=[out_cell])
            previous_cell = out_cell
            previous_count = ct

    def distances(self) -> np.ndarray:
        return self._dist


class BellmanFordApp(FluidApp):
    """Single-source shortest paths with a fixed relax-iteration budget."""

    name = "bellman_ford"

    def __init__(self, graph: GraphInput, iterations: int = 8,
                 source: int = 0):
        super().__init__()
        self.graph = graph
        self.iterations = iterations
        self.source = source
        self.reference = bellman_ford_reference(graph, source)
        self._dist_work = None  # rebuilt per run in build_regions

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        dist = np.full(self.graph.num_vertices, np.inf)
        dist[self.source] = 0.0
        self._dist_work = dist
        plan = SubmitPlan()
        plan.add_region(BellmanFordRegion(self, threshold))
        plan.extras["dist"] = dist
        return plan

    def extract_output(self, plan: SubmitPlan) -> np.ndarray:
        return plan.extras["dist"].copy()

    def compute_error(self, output: np.ndarray, precise_output) -> float:
        # The paper normalizes against the *actual* shortest paths, not
        # the fixed-iteration baseline.
        return min(1.0, normalized_path_error(output, self.reference))

    def compute_metric(self, output: np.ndarray):
        return ("avg_path_error", normalized_path_error(output,
                                                        self.reference))
