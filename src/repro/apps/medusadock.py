"""MedusaDock: dock-energy scoring -> lowest-energy pose selection.

The paper's drug-discovery workload: the producer computes a force-field
docking energy for every candidate pose, the consumer "starts selecting
poses when a portion of the poses are processed" (Table 2).  Energies
arrive in arbitrary order; unprocessed poses read as +inf, so an eager
selection can miss a good pose that has not been scored yet — the top-k
overlap with the precise selection is the accuracy metric.

Valve types (Figure 8): MedusaDock "prefers the convergence valve since
the lowest pose energy converges at an early stage for many proteins" —
the synthetic pose sets plant their good poses early-ish in the scoring
order a fraction of the time, so a valve watching the running minimum
pays off where a fixed percentage does not.

The end valve enforces the paper's floor: "we do not allow pose
selection to start if we only check pose energy a few times, to
guarantee the software invests in enough poses.  However, around 51% of
proteins fail this check" — selection runs that finish before the floor
fraction of poses is scored fail quality and re-execute.

Each protein is one region; multiple proteins exploit inter-region
concurrency.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.region import FluidRegion
from ..core.valves import (ConvergenceValve, DataFinalValve, PercentValve)
from ..metrics.error import topk_overlap
from ..workloads.molecules import DockingInput, pose_energies
from .base import FluidApp, SubmitPlan

SCAN_COST_PER_POSE = 12.0
#: poses scored per array pass; a chunk writes one pose.
POSE_BLOCK = 8


class DockingRegion(FluidRegion):
    """header -> dock (energies) -> select (top-k, leaf)."""

    def __init__(self, app: "MedusaDockApp", docking: DockingInput,
                 threshold: float, valve: str, name=None):
        self.app = app
        self.docking = docking
        self.threshold = threshold
        self.valve = valve
        super().__init__(name)

    def build(self):
        app = self.app
        docking = self.docking
        num_poses = docking.num_poses
        src = self.input_data("src", docking)
        ready = self.add_data("ready")
        energies = np.full(num_poses, np.inf)
        energy_cell = self.add_array("energies", energies)
        selection_cell = self.add_array("selection", None)
        ct = self.add_count("ct_scored")
        min_energy = self.add_count("min_energy", initial=np.inf)

        # Per-pose cost scales with the interaction-pair count, the
        # knob behind "larger input sizes lead to better results".
        pose_cost = SCAN_COST_PER_POSE * docking.protein.shape[0] * \
            docking.poses.shape[1] / 64.0

        def header(ctx):
            ready.write(True)
            yield 16.0

        self.add_task("header", header, inputs=[src], outputs=[ready])

        def dock(ctx):
            for index in range(num_poses):
                if index % POSE_BLOCK == 0:
                    block = pose_energies(
                        docking.protein,
                        docking.poses[index:index + POSE_BLOCK])
                energies[index] = block[index % POSE_BLOCK]
                energy_cell.touch()
                min_energy.track_min(energies[index])
                ct.add()
                yield pose_cost

        self.add_task("medusa_dock", dock,
                      start_valves=[DataFinalValve(ready)],
                      inputs=[ready], outputs=[energy_cell])

        selection = np.full(app.top_k, -1, dtype=np.int64)
        self._selection = selection

        def select(ctx):
            order = []
            for start in range(0, num_poses, 8):
                stop = min(start + 8, num_poses)
                for index in range(start, stop):
                    order.append((energies[index], index))
                yield 2.0 * (stop - start)
            order.sort()
            for rank in range(app.top_k):
                selection[rank] = order[rank][1] if rank < len(order) else -1
            selection_cell.init(selection)
            selection_cell.touch()
            yield float(app.top_k)

        self.add_task(
            "select_pose", select,
            start_valves=[self._start_valve(ct, min_energy, num_poses)],
            end_valves=[PercentValve(ct, app.floor_fraction, num_poses,
                                     name="v_floor")],
            inputs=[energy_cell], outputs=[selection_cell])

    def _start_valve(self, ct, min_energy, num_poses):
        if self.valve == "convergence":
            # Satisfied when the running minimum stopped improving over a
            # window of scored poses — but never before the quality
            # floor's share of poses has been invested, so a spuriously
            # quiet stretch early in the scan cannot trigger a selection
            # that is doomed to fail its own end valve.
            window = max(2, int(num_poses * self.app.convergence_window))
            floor = int(num_poses * self.app.floor_fraction)
            return ConvergenceValve(min_energy, window=window,
                                    tolerance=self.app.convergence_tolerance,
                                    min_updates=max(window + 1, floor),
                                    mode="min", name="v_converge")
        return PercentValve(ct, self.threshold, num_poses, name="v_start")

    def selection(self) -> np.ndarray:
        return self._selection


class MedusaDockApp(FluidApp):
    """Top-k pose selection over a set of synthetic proteins."""

    name = "medusadock"
    default_threshold = 0.75
    #: accepting a selection cancels the rest of the docking scan — the
    #: skip that produces MedusaDock's latency gain.
    cancel_first_runs = True

    def __init__(self, dockings: Sequence[DockingInput], top_k: int = 4,
                 floor_fraction: float = 0.5,
                 convergence_window: float = 0.25,
                 convergence_tolerance: float = 1e-6):
        super().__init__()
        self.dockings = list(dockings)
        self.top_k = top_k
        self.floor_fraction = floor_fraction
        self.convergence_window = convergence_window
        self.convergence_tolerance = convergence_tolerance

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        plan = SubmitPlan()
        regions = [DockingRegion(self, docking, threshold, valve,
                                 name=f"dock_{docking.name}_{index}")
                   for index, docking in enumerate(self.dockings)]
        for region in regions:   # proteins scored one after another, as
            plan.add_region(region)   # in the original pipeline
        plan.extras["regions"] = regions
        return plan

    def extract_output(self, plan: SubmitPlan) -> List[np.ndarray]:
        return [region.selection().copy()
                for region in plan.extras["regions"]]

    def compute_error(self, output, precise_output) -> float:
        overlaps = [topk_overlap(got, want)
                    for got, want in zip(output, precise_output)]
        return min(1.0, 1.0 - float(np.mean(overlaps)))

    def compute_metric(self, output):
        if self._precise is None:
            return ("topk_overlap", 1.0)
        overlaps = [topk_overlap(got, want)
                    for got, want in zip(output, self._precise.output)]
        return ("topk_overlap", float(np.mean(overlaps)))
