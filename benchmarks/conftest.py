"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's Section 7
and both prints it and archives it under ``benchmarks/results/`` so the
numbers behind EXPERIMENTS.md are always reproducible from a clean
checkout with ``pytest benchmarks/ --benchmark-only``.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def report():
    """Return a callable that prints and archives a rendered table."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(text)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    return _report


@pytest.fixture
def run_once(benchmark):
    """Run a zero-argument callable exactly once under pytest-benchmark.

    The interesting output of these benchmarks is the virtual-time table,
    not the wall-clock timing, so one round is enough."""

    def _run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run
