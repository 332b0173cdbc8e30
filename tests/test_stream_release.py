"""A harvested window leaves nothing behind.

``Pipeline`` folds each finished window into its result and metrics,
then releases it: the region cuts its own back-references and the
pool context drops its host, so a thread-driver window is freed by
reference counting alone, with the cyclic collector switched off.
The end-valve verdicts the harvest reports are read without counting
a valve check, so ``valve.checks.evaluated`` (folded when each region
finished) equals what the windows' valves counted.
"""

import gc
import weakref

import pytest

from repro import Telemetry
from repro.runtime.thread_pool import SharedThreadPool
from repro.stream import APPS


def _recording_builds(pipeline):
    """Wrap ``pipeline.build_window`` to keep each build it returns."""
    builds = []
    build_window = pipeline.build_window

    def recording(*args, **kwargs):
        builds.append(build_window(*args, **kwargs))
        return builds[-1]

    pipeline.build_window = recording
    return builds


class TestHarvestCountsNoValveCheck:
    """Mutant killed: ``_harvest`` reading end verdicts with
    ``Valve.check()``, which counts a check after the region's tallies
    were folded into the metrics."""

    @pytest.mark.parametrize("backend", ["sim", "thread"])
    def test_window_valve_checks_equal_the_folded_counter(self, backend):
        app = APPS["logagg"]
        pipeline = app.pipeline(k=4, window=32)
        builds = _recording_builds(pipeline)
        result = pipeline.run(app.make_items(128), backend=backend,
                              slots=2)
        assert len(builds) == 4 and all(result.end_verdicts.values())
        checks = sum(valve.checks for build in builds
                     for valve in build.region.valves)
        assert checks > 0
        assert pipeline.telemetry.metrics.counters[
            "valve.checks.evaluated"] == checks


def _alive(refs):
    """What the weak references ``refs`` still reach, by name."""
    objects = [ref() for ref in refs]
    return [getattr(obj, "label", None) or obj.name
            for obj in objects if obj is not None]


class TestWindowsFreedByRefcount:
    """Mutants killed: a release that keeps the context <-> host cycle
    (every RunContext outlives the run), one that keeps the task graph's
    edges (every task does) and a pool worker that holds the last body
    it ran until its next pick (a window outlives its harvest)."""

    def test_no_window_region_or_context_outlives_the_run(
            self, monkeypatch):
        contexts = []
        earlier_alive = []
        start = SharedThreadPool.start

        def recording_start(pool, ctx):
            # Every earlier window is gone before the next one starts:
            # no pool worker holds the last body it ran.
            earlier_alive.extend(_alive(contexts + regions[:-1]
                                        + tasks[:-4]))
            contexts.append(weakref.ref(ctx))
            start(pool, ctx)

        monkeypatch.setattr(SharedThreadPool, "start", recording_start)
        app = APPS["logagg"]
        pipeline = app.pipeline(k=4, window=32)
        regions, tasks = [], []
        build_window = pipeline.build_window

        def recording_build(*args, **kwargs):
            build = build_window(*args, **kwargs)
            regions.append(weakref.ref(build.region))
            tasks.extend(weakref.ref(task) for task in build.region.tasks)
            return build

        pipeline.build_window = recording_build
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = pipeline.run(app.make_items(128), backend="thread",
                                  slots=2)
            alive = _alive(regions + tasks + contexts)
        finally:
            if enabled:
                gc.enable()
        assert len(regions) == len(contexts) == len(result.windows) == 4
        assert len(tasks) == 4 * 4
        assert alive == [] and earlier_alive == []


@pytest.mark.stress
class TestStreamSoak:
    def test_500_windows_leave_no_tracked_object_behind(self):
        """Five hundred thread-driver windows with the collector off:
        the number of GC-tracked objects stays where it was (a window
        left as cyclic garbage is ~300 of them)."""
        app = APPS["logagg"]
        items = app.make_items(500 * 8)
        enabled = gc.isenabled()
        # Warm up first: lazy imports and per-process caches are not
        # a window's garbage.  The trace is a ring, so the bundle's own
        # size is bounded too.
        app.pipeline(k=4, window=8).run(items[:64], backend="thread",
                                         slots=2)
        pipeline = app.pipeline(k=4, window=8, telemetry=Telemetry(
            chrome=False, trace_capacity=32))
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            result = pipeline.run(items, backend="thread", slots=2)
            assert len(result.windows) == 500
            del result
            growth = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert growth < 150, growth
