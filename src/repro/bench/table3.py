"""Paper Table 3: state-machine visits and residence times per task.

Runs every app of the standard suite once on its small input and
averages each task name's ``TaskStats`` Table-3 rows across regions.
The benchmark suite archives the rendered table under
``benchmarks/results/table3_state_stats.txt``; a tier-1 test renders it
again and compares byte for byte, so any change to how the runtime
records state visits or residence shows up on every test run.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .harness import standard_suite
from .reporting import render_table

#: The input of each app that Table 3 is computed on.
SMALL_INPUT = {
    "kmeans": "div6", "bellman_ford": "1K_4K", "graph_coloring": "1K_4K",
    "edge_detection": "EM", "fft": "N1K", "dct": "64x64",
    "neural_network": "lenet", "medusadock": "pdb-early",
}

STATE_NAMES = ["Init", "StartCheck", "Running", "EndCheck", "Wait/Stall",
               "Complete"]


def collect_stats(app):
    """Average per-task-name visit counts and times across regions."""
    fluid = app.run_fluid()
    merged = {}
    for region in fluid.regions:
        for task in region.tasks:
            name = _canonical(task.name)
            merged.setdefault(name, []).append(task.stats)
    rows = []
    for name, stats_list in sorted(merged.items()):
        visits = np.mean([s.visit_row() for s in stats_list], axis=0)
        times = np.mean([s.time_row() for s in stats_list], axis=0)
        rows.append((name, visits, times))
    return rows


def _canonical(task_name: str) -> str:
    """Collapse per-band task names (filter_0, filter_1 -> filter)."""
    base = task_name.rsplit("_", 1)
    if len(base) == 2 and base[1].isdigit():
        return base[0]
    return task_name


def table3_rows() -> List[list]:
    """One row per (app, task name): rounded visit and time columns."""
    table = []
    for app_name, inputs in standard_suite().items():
        app = inputs[SMALL_INPUT[app_name]]()
        app.run_precise()
        for task_name, visits, times in collect_stats(app):
            table.append([app_name, task_name]
                         + [round(float(v), 2) for v in visits]
                         + [round(float(t), 1) for t in times])
    return table


def render_table3(table: List[list]) -> str:
    headers = (["app", "task"]
               + [f"#{name}" for name in STATE_NAMES]
               + [f"t({name})" for name in STATE_NAMES])
    return render_table(
        "Table 3: state-machine visits and residence times (virtual time)",
        headers, table)
