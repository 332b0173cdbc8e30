"""The library surface ``benchmarks/perf`` depends on.

The perf benchmark imports names from ``repro`` and calls a few of them
that the library itself no longer needs.  This module fails fast when
one of them goes, instead of the minutes-long ``pytest benchmarks/perf``.
"""

import ast
import importlib
import pathlib

import pytest

from repro.core.count import Count
from repro.core.data import FluidData
from repro.core.valves import (ConvergenceValve, CountValve, DataFinalValve,
                               PredicateValve)
from repro.runtime.simulator import SimExecutor

from util import make_pipeline

PERF_DIR = (pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "perf")


def _perf_imports():
    """``(file, module, name)`` for every ``from repro... import name``
    anywhere in a ``benchmarks/perf`` module, function bodies included."""
    found = []
    for path in sorted(PERF_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "repro":
                found.extend((path.name, node.module, alias.name)
                             for alias in node.names)
    return found


PERF_IMPORTS = _perf_imports()


def test_perf_imports_were_found():
    assert len(PERF_IMPORTS) > 20


@pytest.mark.parametrize("where, module, name", PERF_IMPORTS,
                         ids=[f"{w}:{m}.{n}" for w, m, n in PERF_IMPORTS])
def test_every_perf_import_resolves(where, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("valve", [
    lambda: CountValve(Count("c"), 1),
    lambda: ConvergenceValve(Count("c")),
    lambda: DataFinalValve(FluidData("d", 0)),
    lambda: PredicateValve(lambda: True),
], ids=["count", "convergence", "data_final", "predicate"])
def test_invalidate_memo_is_a_no_op(valve):
    valve = valve()
    valve.check()
    assert valve.invalidate_memo() is None
    assert valve.checks == 1
    valve.check()
    assert valve.checks == 2


def test_run_context_join_exists():
    from repro.runtime.context import RunContext

    assert callable(RunContext.join)


def test_collect_region_counters_returns_three_ints():
    from repro.bench.harness import collect_region_counters

    region = make_pipeline(20)
    executor = SimExecutor(cores=2)
    executor.submit(region)
    executor.run()
    counters = collect_region_counters([region])
    assert len(counters) == 3
    assert all(type(value) is int for value in counters)
    checks, skipped, _reexecutions = counters
    assert checks > 0 and skipped == 0
