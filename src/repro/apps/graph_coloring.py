"""Graph Coloring: find local-maximum vertices -> color them.

The baseline is the round-based Jones-Plassmann style algorithm of the
paper's reference [82]: each round selects the uncolored vertices whose
random priority beats every uncolored neighbour (an independent set) and
colors them with their smallest available color.  Fluidization (Table
2): the *coloring* task starts "coloring selected nodes before finding
out all local maximum vertices".

Racing ahead has a real quality cost: a vertex colored while its
neighbour's selection flag is still unknown can grab the same smallest
color as that neighbour in the same round.  The coloring task resolves
conflicts it can see by bumping to the next free color, so the error
metric is the paper's: the number of colors used (the graph's "spectral
number") normalized to the precise run of the same algorithm.

Rounds are chained regions; multithreading (Figure 12) splits the
selection scan into ``p`` vertex bands.
"""

from __future__ import annotations


import numpy as np

from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve
from ..metrics.error import coloring_error
from ..workloads.graphs import (GraphInput, coloring_priority,
                                first_free_color, jones_plassmann,
                                outranked_edges, select_local_maxima)
from .base import FluidApp, SubmitPlan

# Per-vertex virtual costs scale with degree: selecting checks every
# neighbour's priority, coloring scans every neighbour's color.  This is
# what makes dense graphs heavier per round — and fluid gains larger on
# dense inputs, as the paper observes.
SELECT_COST_BASE = 2.0
COLOR_COST_BASE = 3.0
CHUNK_VERTICES = 64
SKIP_COST_PER_VERTEX = 0.5


class ColoringRoundRegion(FluidRegion):
    """One round: header -> p x select(band) -> color (leaf)."""

    def __init__(self, app: "GraphColoringApp", round_index: int,
                 threshold: float, parallelism: int, state: dict,
                 name=None):
        self.app = app
        self.round_index = round_index
        self.threshold = threshold
        self.parallelism = parallelism
        self.state = state  # {"colors": array}
        super().__init__(name or f"gc_round{round_index}")

    def build(self):
        app = self.app
        graph = app.graph
        n = graph.num_vertices
        colors = self.state["colors"]
        outranked = app.outranked
        csr = app.csr
        degree = csr.degree
        ready = self.add_data("ready")
        colored_cell = self.add_data("colored")
        # -1 unknown, 0 not selected, 1 selected this round
        selected = np.full(n, -1, dtype=np.int8)

        def header(ctx):
            ready.write(True)
            yield 16.0

        self.add_task("header", header, outputs=[ready])

        bounds = np.linspace(0, n, self.parallelism + 1).astype(int)
        bands = [(int(bounds[i]), int(bounds[i + 1]))
                 for i in range(self.parallelism)
                 if bounds[i + 1] > bounds[i]]

        select_cells = []
        start_valves = []
        end_valves = []
        for band_index, (start, stop) in enumerate(bands):
            cell = self.add_array(f"selected_{band_index}", selected)
            ct = self.add_count(f"scanned_{band_index}")
            band_size = stop - start

            def select_body(ctx, start=start, stop=stop, ct=ct, cell=cell):
                for chunk in range(start, stop, CHUNK_VERTICES):
                    hi = min(chunk + CHUNK_VERTICES, stop)
                    uncolored = colors[chunk:hi] < 0
                    selected[chunk:hi] = select_local_maxima(
                        csr, colors, outranked, chunk, hi)
                    # Every term is a multiple of 0.5, so the closed form
                    # equals the per-vertex running sum exactly.
                    scanned = int(uncolored.sum())
                    cost = float(
                        SKIP_COST_PER_VERTEX * (hi - chunk - scanned)
                        + SELECT_COST_BASE * scanned
                        + degree[chunk:hi][uncolored].sum())
                    cell.touch()
                    ct.add(hi - chunk)
                    yield cost

            self.add_task(f"select_{band_index}", select_body,
                          start_valves=[DataFinalValve(ready)],
                          inputs=[ready], outputs=[cell])
            select_cells.append(cell)
            start_valves.append(PercentValve(
                ct, self.threshold, band_size, name=f"v_start_{band_index}"))
            # Lenient quality bar: eager coloring is *accepted* — that is
            # the approximation GC trades for latency; vertices whose
            # selection the color pass missed fall to later rounds (and,
            # past the round budget, to the greedy sweep, growing the
            # spectral number).  A 100% bar would force a full re-pass
            # every round and erase the gains.
            quality = min(1.0, self.threshold + self.app.quality_margin)
            end_valves.append(PercentValve(
                ct, quality, band_size, name=f"v_end_{band_index}"))

        def color_body(ctx):
            newly = 0
            for chunk in range(0, n, CHUNK_VERTICES):
                hi = min(chunk + CHUNK_VERTICES, n)
                todo = chunk + np.flatnonzero(
                    (selected[chunk:hi] == 1) & (colors[chunk:hi] < 0))
                for vertex in todo.tolist():
                    colors[vertex] = first_free_color(csr, colors, vertex)
                newly += len(todo)
                cost = float(
                    SKIP_COST_PER_VERTEX * (hi - chunk - len(todo))
                    + COLOR_COST_BASE * len(todo) + degree[todo].sum())
                colored_cell.touch()
                yield cost
            self.state["progress"] = newly

        self.add_task("color", color_body, start_valves=start_valves,
                      end_valves=end_valves, inputs=select_cells,
                      outputs=[colored_cell])


class GraphColoringApp(FluidApp):
    """Round-based greedy coloring with a fixed round budget.

    ``rounds`` must be generous enough for the precise run to color every
    vertex (checked by the tests); the fluid run uses the same budget —
    any vertex left uncolored by racing is swept up in later rounds, and
    a final sequential sweep guarantees totality.
    """

    name = "graph_coloring"
    #: skipping the selection tail is where GC's fluid gains come from
    cancel_first_runs = True
    default_threshold = 0.5

    def __init__(self, graph: GraphInput, rounds: int = 0,
                 round_slack: int = 1, round_cap: int = 12,
                 quality_margin: float = 0.03):
        super().__init__()
        self.graph = graph
        self.quality_margin = quality_margin
        self.csr = graph.csr()
        self.priority = coloring_priority(graph)
        self.outranked = outranked_edges(self.csr, self.priority)
        # Budget what the precise algorithm needs (plus slack), capped:
        # Jones-Plassmann has a long tail of near-empty rounds that is
        # pure scheduling overhead, so *both* versions hand the tail to
        # the greedy sweep.  The tight budget is also what makes racing
        # cost colors — selections deferred past the last round fall to
        # the sweep.
        if not rounds:
            reference = jones_plassmann(self.csr, self.priority)[1]
            rounds = min(reference + round_slack, round_cap)
        self.rounds = rounds

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        state = {
            "colors": np.full(self.graph.num_vertices, -1, dtype=np.int64),
        }
        plan = SubmitPlan()
        for round_index in range(self.rounds):
            plan.add_region(ColoringRoundRegion(
                self, round_index, threshold, parallelism, state,
                name=f"gc_r{round_index}_{id(state) % 9973}"))
        plan.extras["state"] = state
        return plan

    def extract_output(self, plan: SubmitPlan) -> np.ndarray:
        colors = plan.extras["state"]["colors"]
        # Totality sweep: color any vertex the round budget missed.
        for vertex in np.flatnonzero(colors < 0).tolist():
            colors[vertex] = first_free_color(self.csr, colors, vertex)
        return colors.copy()

    def compute_error(self, output: np.ndarray, precise_output) -> float:
        return min(1.0, coloring_error(output, precise_output))

    def compute_metric(self, output: np.ndarray):
        return ("colors", float(output.max()) + 1.0)

    def conflicts(self, colors: np.ndarray) -> int:
        """Sanity metric: adjacent same-color pairs (should be zero)."""
        count = 0
        for s, d in zip(self.graph.src.tolist(), self.graph.dst.tolist()):
            if s != d and colors[s] == colors[d]:
                count += 1
        return count
