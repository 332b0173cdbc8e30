"""Benchmark support: standard workloads, runners and table rendering."""

from .harness import (BenchRow, bench_overheads, collect_region_counters,
                      run_comparison, standard_suite)
from .reporting import render_series, render_table
from .table3 import render_table3, table3_rows

__all__ = ["BenchRow", "bench_overheads", "collect_region_counters",
           "run_comparison", "standard_suite", "render_series",
           "render_table", "render_table3", "table3_rows"]
