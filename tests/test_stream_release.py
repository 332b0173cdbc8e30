"""One window build per run, re-armed in place, and nothing left behind.

``Pipeline.run`` builds a window's region once per run (and again only
for a window of another length, a short last window) and re-arms it in
place for every later window: a re-armed build is indistinguishable
from a fresh ``build_window`` of the same window.  Each window's
payloads — its items, the values in its queues — are dropped when the
next window re-arms the build, and the build itself is released once
the run ends, so a thread-driver run is freed by reference counting
alone, with the cyclic collector switched off.  The end-valve verdicts
the harvest reports are read without counting a valve check, so
``valve.checks.evaluated`` (folded when each window's region finished)
equals what the windows' valves counted.
"""

import gc
import math
import weakref

import pytest

from repro import Telemetry
from repro.runtime.thread_pool import SharedThreadPool
from repro.stream import APPS, Pipeline, Stage


def _recording_builds(pipeline):
    """Wrap ``pipeline.build_window`` to keep each build it returns."""
    builds = []
    build_window = pipeline.build_window

    def recording(*args, **kwargs):
        builds.append(build_window(*args, **kwargs))
        return builds[-1]

    pipeline.build_window = recording
    return builds


def _harvested_checks(pipeline):
    """Wrap ``pipeline._harvest`` to keep, per window, the valve checks
    its region counted, read once the harvest is done and before the
    next window re-arms the build."""
    checks = []
    harvest = pipeline._harvest

    def recording(result, index, build, *args, **kwargs):
        harvest(result, index, build, *args, **kwargs)
        checks.append(sum(valve.checks for valve in build.region.valves))

    pipeline._harvest = recording
    return checks


class TestHarvestCountsNoValveCheck:
    """Mutant killed: ``_harvest`` reading end verdicts with
    ``Valve.check()``, which counts a check after the region's tallies
    were folded into the metrics."""

    @pytest.mark.parametrize("backend", ["sim", "thread"])
    def test_window_valve_checks_equal_the_folded_counter(self, backend):
        app = APPS["logagg"]
        pipeline = app.pipeline(k=4, window=32)
        builds = _recording_builds(pipeline)
        checks = _harvested_checks(pipeline)
        result = pipeline.run(app.make_items(128), backend=backend,
                              slots=2)
        assert len(builds) == 1 and len(checks) == 4
        assert all(result.end_verdicts.values())
        assert all(window_checks > 0 for window_checks in checks)
        assert pipeline.telemetry.metrics.counters[
            "valve.checks.evaluated"] == sum(checks)


# -- a re-armed build equals a fresh one ---------------------------------------

def _cell(data):
    return (data.name, data.read(), data.version, data.final, data.precise)


def _state(build):
    """Everything a window's run reads or tallies, as plain values."""
    region = build.region
    tasks = [(task.name, task.state, task.run_index, task.cancel_requested,
              task.started_precise, task.pending_update,
              task.rerun_scheduled, task.input_snapshots,
              vars(task.stats)) for task in region.tasks]
    valves = [(valve.name, valve.checks, getattr(valve, "threshold", None))
              for valve in region.valves]
    counts = [(count.name, count.value, count.updates)
              for count in region.counts.values()]
    queues = [(queue.name, queue.expected, queue.bound, queue.must_seqs,
               queue._arrived, queue._dropped, sorted(queue._served),
               queue.stale_reads, queue.parks, queue.puts, queue.sheds,
               queue.max_displacement, list(queue.occupancies),
               [math.isnan(stamp) for stamp in queue.arrivals])
              for queue in build.queues]
    return {"name": region.name, "stats": vars(region.stats),
            "factory": region.remote_factory[1][1:],
            "base": build.base, "count": build.count, "tasks": tasks,
            "valves": valves, "counts": counts, "queues": queues,
            "cells": [_cell(data) for data in region.datas.values()]}


@pytest.mark.parametrize("backend", ["sim", "thread"])
def test_a_rearmed_window_equals_a_fresh_build(backend):
    """Mutants killed: a re-arm that skips one queue's slots, settled
    count, tally, counts or samples, one task's state or stats, one
    valve's checks or threshold, a cell, the name or the factory."""
    app = APPS["logagg"]
    pipeline, reference = (app.pipeline(k=4, window=32) for _ in range(2))
    arm = pipeline._arm
    compared = []

    def checking(build, index, items, states):
        arm(build, index, items, states)
        fresh = reference.build_window(index, items, states)
        assert _state(build) == _state(fresh), index
        compared.append(index)

    pipeline._arm = checking
    result = pipeline.run(app.make_items(96), backend=backend, slots=2)
    assert compared == [0, 1, 2] and len(result.windows) == 3


@pytest.mark.parametrize("backend", ["sim", "thread", "process"])
def test_a_short_last_window_gets_its_own_build(backend):
    """100 items at window 32: three re-armed windows, then a 4-item
    one on a second build, and the k=0 run still equals the serial
    fold."""
    app = APPS["logagg"]
    pipeline = app.pipeline(k=0, window=32)
    builds = _recording_builds(pipeline)
    items = app.make_items(100)
    result = pipeline.run(items, backend=backend, slots=2, workers=2)
    assert [build.count for build in builds] == [32, 4]
    assert result.total_items == 100 and len(result.windows) == 4
    assert result.outputs == pipeline.run_serial(items)
    assert all(result.end_verdicts.values())


# -- payloads are freed by reference counting ----------------------------------

class _Box:
    """A weakly referenceable payload; ``made`` keeps a weak reference
    to every box, with the window its value belongs to."""

    __slots__ = ("value", "__weakref__")
    made = []

    def __init__(self, value):
        self.value = value
        _Box.made.append((value // 16, weakref.ref(self)))


def _rebox(state, seq, box):
    return state, _Box(box.value)


def _unbox(state, seq, box):
    return (state or 0) + box.value, box.value


def _alive(refs):
    """What the weak references ``refs`` still reach, by name."""
    objects = [ref() for ref in refs]
    return [getattr(obj, "label", None) or getattr(obj, "name", obj)
            for obj in objects if obj is not None]


class TestWindowPayloadsFreedByRefcount:
    """Mutants killed: a re-arm that keeps the previous window's items
    (in the items cell, a queue's slots or the process factory), a run
    that keeps its build (or a cycle through it) after it ends, a
    release that keeps the context <-> host cycle, and a pool worker
    that holds the last body it ran until its next pick."""

    def test_no_window_payload_outlives_its_window(self, monkeypatch):
        _Box.made = []
        contexts = []
        earlier_alive = []
        start = SharedThreadPool.start

        def recording_start(pool, ctx):
            # Window w starts: every box of windows before w is gone,
            # and so is every earlier context.
            window = int(ctx.label.rsplit("-w", 1)[1])
            earlier_alive.extend(
                _alive([ref for made, ref in _Box.made if made < window]
                       + contexts))
            contexts.append(weakref.ref(ctx))
            start(pool, ctx)

        monkeypatch.setattr(SharedThreadPool, "start", recording_start)
        pipeline = Pipeline([Stage("rebox", _rebox), Stage("unbox", _unbox)],
                            k=2, window=16, name="boxes")
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
            result = pipeline.run((_Box(value) for value in range(64)),
                                  backend="thread", slots=2)
            alive = _alive([ref for _made, ref in _Box.made]
                           + regions + tasks + contexts)
        finally:
            if enabled:
                gc.enable()
        assert len(regions) == 1 and len(tasks) == 3
        assert len(contexts) == len(result.windows) == 4
        assert result.outputs == dict(enumerate(range(64)))
        # Every source item and every rebox output, of every window.
        assert len(_Box.made) >= 2 * 64
        assert earlier_alive == [] and alive == []


@pytest.mark.stress
class TestStreamSoak:
    def test_500_windows_leave_no_tracked_object_behind(self):
        """Five hundred thread-driver windows with the collector off:
        the number of GC-tracked objects stays where it was (a window
        build left as cyclic garbage is ~300 of them)."""
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
