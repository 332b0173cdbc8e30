"""The task counters are folds of ``TaskStats``, not event subscribers.

``MetricsRegistry.record_region`` reads each region's task records once.
The reference below is the registry's former event handling: it
rebuilds the same counters from one ``transition``, ``guard`` or
``valve`` event per decision.  Each case runs with both attached to the
same bus and compares the two dumps.
"""

import pytest

from repro import (FluidRegion, ProcessExecutor, SimExecutor, Telemetry,
                   ThreadExecutor)
from repro.bench.harness import HEADLINE_VALVE, standard_suite
from repro.core.errors import TaskBodyError
from repro.telemetry import MetricsRegistry

from util import make_pipeline, pipeline_expected, with_factory

#: Task states whose residence the reference adds into ``time.*``.
_TIMED_STATES = {
    "RUNNING": "time.running",
    "START_CHECK": "time.start_check",
    "WAITING": "time.waiting",
    "DEP_STALLED": "time.dep_stalled",
}

#: Guard completion reasons that count as Section-6.1 early termination.
_EARLY_TERMINATION_REASONS = ("early-termination", "rerun-skipped")


class EventFoldedMetrics(MetricsRegistry):
    """Reference subscriber: the task counters rebuilt event by event."""

    KINDS = ("transition", "guard", "valve", "sched", "payload", "worker",
             "svc", "tune")

    def __init__(self):
        super().__init__()
        # (region, task) -> (state name, entry timestamp)
        self._since = {}

    def on_event(self, event):
        if event.kind == "transition":
            self._on_transition(event)
        elif event.kind == "valve":
            verdict = "pass" if event.data.get("result") else "fail"
            self.inc(f"valve.{event.name}.{verdict}")
        elif event.kind == "guard":
            self._on_guard(event)
        else:
            super().on_event(event)

    def _on_transition(self, event):
        key = (event.region, event.task)
        open_state = self._since.get(key)
        if open_state is not None:
            state, entered = open_state
            counter = _TIMED_STATES.get(state)
            if counter is not None:
                self.inc(counter, event.ts - entered)
        if event.name == "COMPLETE":
            self._since.pop(key, None)
            self.inc("tasks.completed")
        else:
            self._since[key] = (event.name, event.ts)
            if event.name == "RUNNING":
                self.inc("tasks.runs")
            elif event.name == "DEP_STALLED":
                self.inc("tasks.dep_stalls")

    def _on_guard(self, event):
        detail = event.data.get("detail", "")
        if event.name == "rerun":
            self.inc("tasks.reexecutions")
        elif event.name == "wait" and detail == "quality-failed":
            self.inc("tasks.quality_failures")
        elif event.name == "complete" and \
                detail in _EARLY_TERMINATION_REASONS:
            self.inc("tasks.early_terminations")
        elif event.name == "failed":
            self.inc("tasks.failed_runs")

    def record_region(self, region, now=None):
        # The check tally was a once-per-region summary event, built
        # from the valves themselves, never from per-check events.
        self.inc("valve.checks.evaluated",
                 sum(valve.checks for valve in region.valves))

    def finalize(self, makespan, workers, now):
        for state, entered in self._since.values():
            counter = _TIMED_STATES.get(state)
            if counter is not None:
                self.inc(counter, now - entered)
        self._since.clear()
        super().finalize(makespan, workers, now)


class _Tee:
    """Stands in for ``telemetry.metrics``: each call the runtime makes
    reaches both registries; attribute reads come from the fold."""

    def __init__(self, fold, reference):
        self._fold = fold
        self._reference = reference

    def __getattr__(self, name):
        attr = getattr(self._fold, name)
        if not callable(attr):
            return attr
        mirror = getattr(self._reference, name)

        def both(*args, **kwargs):
            mirror(*args, **kwargs)
            return attr(*args, **kwargs)

        return both


def with_reference(telemetry):
    """``(fold, reference)`` registries, both fed by ``telemetry``."""
    fold, reference = telemetry.metrics, EventFoldedMetrics()
    telemetry.bus.subscribe(reference.on_event,
                            kinds=EventFoldedMetrics.KINDS)
    telemetry.metrics = _Tee(fold, reference)
    return fold, reference


#: Gauges derived from ``time.running`` share its summation order.
_TIMED_GAUGES = ("worker.busy_time", "worker.utilization")


def assert_same_dump(fold, reference, rel):
    """Integer counters exact; ``time.*`` (and what derives from it)
    equal to ``rel`` relative — 0 means bit for bit."""

    def same(key, left, right):
        if rel and (key.startswith("time.") or key in _TIMED_GAUGES):
            assert left == pytest.approx(right, rel=rel, abs=0), key
        else:
            assert left == right, key

    ours, theirs = fold.to_dict(), reference.to_dict()
    for section in ("counters", "gauges"):
        assert set(ours[section]) == set(theirs[section]), section
        for key, value in ours[section].items():
            same(key, value, theirs[section][key])
    assert ours["histograms"] == theirs["histograms"]


def make_failing_region(name="fails"):
    """One body that raises after its first chunk."""

    class Failing(FluidRegion):
        def build(self):
            out = self.add_data("out", 0)

            def body(ctx):
                yield 1.0
                raise ValueError("body failed")

            self.add_task("boom", body, outputs=[out])

    return with_factory(Failing(name), make_failing_region)


PIPELINES = {
    "strict": dict(n=20, start_fraction=1.0, exact_quality=True),
    "racy": dict(n=40, producer_cost=2.0, consumer_cost=0.1,
                 start_fraction=0.3, exact_quality=True),
}


def pipeline_executor(backend, telemetry):
    if backend == "sim":
        return SimExecutor(cores=4, telemetry=telemetry)
    if backend == "thread":
        return ThreadExecutor(timeout=60, telemetry=telemetry)
    return ProcessExecutor(workers=2, timeout=120, telemetry=telemetry)


class TestMetricsAreFolds:
    @pytest.mark.parametrize("app_name", sorted(standard_suite()))
    def test_every_app_on_the_simulator(self, app_name):
        inputs = standard_suite()[app_name]
        app = inputs[next(iter(inputs))]()
        telemetry = Telemetry()
        fold, reference = with_reference(telemetry)
        app.run_fluid(valve=HEADLINE_VALVE.get(app_name, "percent"),
                      telemetry=telemetry)
        counters = fold.counters
        assert counters["tasks.runs"] > 0
        # A tallied verdict evaluated at least one valve.
        verdicts = sum(counters[f"valve.{which}.{verdict}"]
                       for which in ("start", "end")
                       for verdict in ("pass", "fail"))
        assert 0 < verdicts <= counters["valve.checks.evaluated"]
        assert_same_dump(fold, reference, rel=0)

    @pytest.mark.parametrize("backend", ("sim", "thread", "process"))
    @pytest.mark.parametrize("shape", sorted(PIPELINES))
    def test_pipeline_regions(self, shape, backend):
        telemetry = Telemetry()
        fold, reference = with_reference(telemetry)
        region = make_pipeline(**PIPELINES[shape])
        executor = pipeline_executor(backend, telemetry)
        executor.submit(region)
        executor.run()
        assert region.output("out") == \
            pipeline_expected(PIPELINES[shape]["n"])
        assert fold.counters["tasks.completed"] == 2
        assert_same_dump(fold, reference,
                         rel=0 if backend == "sim" else 1e-12)

    @pytest.mark.parametrize("backend", ("sim", "thread", "process"))
    def test_unfinished_region_is_folded_at_run_end(self, backend):
        """The body raises, so the region never finishes.  Every driver
        surfaces one TaskBodyError and counts the failed run once; the
        region's record is folded once at run end, its open RUNNING
        residence closed then."""
        telemetry = Telemetry()
        fold, reference = with_reference(telemetry)
        failures = []
        telemetry.bus.subscribe(
            lambda event: failures.append(event)
            if event.name == "failed" else None, kinds=("guard",))
        region = make_failing_region()
        executor = pipeline_executor(backend, telemetry)
        executor.submit(region)
        with pytest.raises(TaskBodyError) as info:
            executor.run()
        error = info.value
        assert "fails/boom" in str(error)
        assert "body failed" in str(error)
        assert error.run_index == 0
        # A process worker sends the exception's repr and traceback.
        assert isinstance(error.__cause__, RuntimeError
                          if backend == "process" else ValueError)
        assert "body failed" in str(error.__cause__)
        assert fold.counters["tasks.failed_runs"] == 1
        assert region.graph.task("boom").stats.failed_runs == 1
        assert [(event.region, event.task) for event in failures] == \
            [("fails", "boom")]
        assert fold.counters["time.running"] > 0
        assert_same_dump(fold, reference,
                         rel=0 if backend == "sim" else 1e-12)

    def test_metrics_alone_build_no_transition_or_valve_event(self):
        bus = Telemetry(metrics=True, chrome=False).bus
        assert not bus.wants("transition")
        assert not bus.wants("valve")
        assert bus.wants("sched") and bus.wants("guard")
