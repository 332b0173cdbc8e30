"""The unified telemetry layer: bus, metrics, Perfetto export, CLI.

Backend parity is the headline contract: all three executors publish
into the same bus vocabulary, so one fixed workload must yield the same
counter *set* (and sensible values) everywhere.  The rest covers the
instrumentation bugfix sweep: idempotent TaskStats.finish, Trace ring
buffers, and the metrics dump summarize/diff CLI.
"""

import ast
import json
import pathlib
import re

import pytest

from repro import (ProcessExecutor, SimExecutor, Telemetry, TelemetryBus,
                   ThreadExecutor)
from repro.core.errors import StateError
from repro.core.states import TaskState
from repro.core.stats import TaskStats
from repro.runtime.tracing import Trace
from repro.telemetry import (METRICS_SCHEMA, TelemetryEvent, diff_metrics,
                             load_metrics)
from repro.telemetry.__main__ import main as telemetry_cli

from util import make_pipeline, pipeline_expected


def run_with_telemetry(backend):
    """One fixed, process-safe pipeline run under ``backend``."""
    telemetry = Telemetry()
    region = make_pipeline(n=20, start_fraction=1.0, exact_quality=True)
    if backend == "sim":
        executor = SimExecutor(cores=4, telemetry=telemetry)
    elif backend == "thread":
        executor = ThreadExecutor(timeout=60, telemetry=telemetry)
    else:
        executor = ProcessExecutor(workers=2, timeout=120,
                                   telemetry=telemetry)
    executor.submit(region)
    executor.run()
    assert region.output("out") == pipeline_expected(20)
    return telemetry


BACKENDS = ("sim", "thread", "process")


class TestBackendParity:
    def test_same_counter_set_and_live_values_everywhere(self):
        runs = {backend: run_with_telemetry(backend)
                for backend in BACKENDS}
        key_sets = {backend: set(t.metrics.counters)
                    for backend, t in runs.items()}
        assert key_sets["sim"] == key_sets["thread"] == key_sets["process"]
        for backend, telemetry in runs.items():
            counters = telemetry.metrics.counters
            # Fully-serialized valves: both tasks complete, consume's
            # start valve and exact end valve each passed at least once.
            assert counters["tasks.runs"] >= 2, backend
            assert counters["tasks.completed"] == 2, backend
            assert counters["valve.start.pass"] >= 1, backend
            # End valves are skipped for precise starts (guard rule i),
            # so a fully-serialized run records no end evaluations; the
            # racy-run test below covers the end-valve counters.
            assert counters["time.running"] > 0, backend
            gauges = telemetry.metrics.gauges
            assert gauges["run.makespan"] > 0, backend
            assert 0 < gauges["worker.utilization"] <= 1.0, backend
        # Process-specific traffic shows up only on the process backend.
        assert runs["process"].metrics.counters["process.dispatches"] >= 2
        assert runs["sim"].metrics.counters["process.dispatches"] == 0

    def test_metrics_dump_carries_full_catalogue(self, tmp_path):
        paths = {}
        for backend in ("sim", "thread"):
            telemetry = run_with_telemetry(backend)
            path = tmp_path / f"{backend}.json"
            telemetry.write(metrics_out=str(path))
            paths[backend] = path
        dumps = {backend: load_metrics(str(path))
                 for backend, path in paths.items()}
        assert (set(dumps["sim"]["counters"])
                == set(dumps["thread"]["counters"]))
        assert all(dump["schema"] == METRICS_SCHEMA
                   for dump in dumps.values())


class TestPerfettoExport:
    def test_round_trips_through_json(self):
        telemetry = run_with_telemetry("sim")
        doc = json.loads(json.dumps(telemetry.chrome_trace()))
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert any(e["ph"] == "M" and e["name"] == "thread_name"
                   for e in events)
        slices = [e for e in events if e["ph"] == "X"]
        assert slices, "expected at least one duration slice"
        assert any(e["name"].startswith("run #") for e in slices)
        for event in slices:
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timestamps_non_decreasing_per_track(self, backend):
        telemetry = run_with_telemetry(backend)
        doc = json.loads(json.dumps(telemetry.chrome_trace()))
        tracks = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                tracks.setdefault((event["pid"], event["tid"]),
                                  []).append(event["ts"])
        assert tracks
        for track, stamps in tracks.items():
            assert stamps == sorted(stamps), track

    def test_reexecution_stretches_visible(self):
        # A racy pipeline re-executes consume; the extra runs must show
        # up as distinct "run #N" slices on the consumer's track.
        telemetry = Telemetry()
        region = make_pipeline(n=40, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3, exact_quality=True)
        executor = SimExecutor(cores=4, telemetry=telemetry)
        executor.submit(region)
        executor.run()
        counters = telemetry.metrics.counters
        assert counters["tasks.reexecutions"] >= 1
        # The early consumer run flunked its exact end valve at least
        # once before the re-execution repaired it.
        assert counters["valve.end.fail"] >= 1
        assert counters["tasks.quality_failures"] >= 1
        run_names = {e["name"] for e in telemetry.chrome_trace()["traceEvents"]
                     if e.get("ph") == "X" and e["name"].startswith("run #")}
        assert len(run_names) >= 2


class TestTelemetryOptional:
    def test_runs_identically_without_telemetry(self):
        region = make_pipeline(n=20, start_fraction=1.0, exact_quality=True)
        executor = SimExecutor(cores=4)
        executor.submit(region)
        executor.run()
        assert region.output("out") == pipeline_expected(20)
        assert executor.trace is None

    def test_run_finished_is_idempotent(self):
        telemetry = run_with_telemetry("sim")
        before = dict(telemetry.metrics.counters)
        telemetry.run_finished(999.0, 99)
        assert telemetry.metrics.counters == before
        assert telemetry.metrics.gauges["run.workers"] != 99

    def test_bus_counts_published_events(self):
        """``published`` counts delivered events: an event of a kind
        nobody reads is not counted."""
        bus = TelemetryBus()
        bus.bind_clock(lambda: 5.0, 1.0)
        bus.emit("sched", "r", "t", "launch")
        assert bus.published == 0
        bus.subscribe(lambda event: None, kinds=("sched",))
        bus.emit("sched", "r", "t", "launch")
        bus.emit("guard", "r", "t", "rerun")
        assert bus.published == 1


class TestEventCatalogue:
    def test_every_emitted_kind_is_documented(self):
        """Lint the catalogue, kinds first: the literal first argument
        of every ``.emit(`` call under ``src/repro`` is a row of the
        docs/telemetry.md event table and a term of the kind list in
        the bus module's docstring."""
        import repro.telemetry.bus as bus_module

        root = pathlib.Path(__file__).resolve().parents[1]
        kinds = set()
        for path in (root / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Call) and node.args \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "emit" \
                        and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    kinds.add(node.args[0].value)
        assert {"transition", "stream", "tune", "svc"} <= kinds
        doc = (root / "docs" / "telemetry.md").read_text("utf-8")
        table = set(re.findall(r"^\| `(\w+)` \|", doc, re.MULTILINE))
        docstring = set(re.findall(r"^``(\w+)``$", bus_module.__doc__,
                                   re.MULTILINE))
        assert kinds - table == set(), "kinds missing from docs/telemetry.md"
        assert kinds - docstring == set(), "kinds missing from bus.py"

    def test_every_subscribed_kind_is_in_the_catalogue(self):
        """A misspelt kind makes a subscriber silently deaf: every
        ``subscribe(..., kinds=...)`` under ``src/repro`` passes a
        literal tuple of kinds from the docs/telemetry.md event table."""
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = (root / "docs" / "telemetry.md").read_text("utf-8")
        table = set(re.findall(r"^\| `(\w+)` \|", doc, re.MULTILINE))
        subscribed = set()
        for path in (root / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "subscribe"):
                    continue
                for keyword in node.keywords:
                    if keyword.arg != "kinds":
                        continue
                    value = keyword.value
                    assert isinstance(value, ast.Tuple), \
                        f"{path.name}: kinds= is not a literal tuple"
                    for element in value.elts:
                        assert isinstance(element, ast.Constant), path.name
                        subscribed.add(element.value)
        assert {"transition", "stream", "valve", "sched"} <= subscribed
        assert subscribed - table == set(), "subscribed to unknown kinds"


class TestCounterCatalogue:
    def test_every_counter_and_histogram_is_documented(self):
        """The catalogue lint for counters: every literal name passed to
        ``inc(`` under ``src/repro/telemetry`` (the queue fold included)
        is a ``COUNTER_CATALOGUE`` counter, every literal ``observe(``
        name a histogram, and both are rows of the docs/telemetry.md
        counter table — which lists exactly the catalogue's counters."""
        from repro.telemetry.metrics import COUNTER_CATALOGUE

        root = pathlib.Path(__file__).resolve().parents[1]
        used = {"inc": set(), "observe": set()}
        for path in (root / "src" / "repro" / "telemetry").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Call) and node.args \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in used \
                        and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    used[node.func.attr].add(node.args[0].value)
        assert {"stream.items_in", "stream.parks",
                "trace.dropped_events"} <= used["inc"]
        assert "stream.occupancy" in used["observe"]
        doc = (root / "docs" / "telemetry.md").read_text("utf-8")
        rows = dict(re.findall(r"^\| `([\w.]+)` \| (counter|histogram) \|",
                               doc, re.MULTILINE))
        documented = {name for name, kind in rows.items()
                      if kind == "counter"}
        histograms = {name for name, kind in rows.items()
                      if kind == "histogram"}
        assert used["inc"] - set(COUNTER_CATALOGUE) == set()
        assert documented == set(COUNTER_CATALOGUE)
        assert used["observe"] - histograms == set()


class TestBusRouting:
    """``subscribe(kinds=)``: each kind goes only to its readers."""

    def _bus(self):
        bus = TelemetryBus()
        bus.bind_clock(lambda: 1.0, 1.0)
        return bus

    def test_order_is_kept_across_mixed_subscribers(self):
        bus, heard = self._bus(), []
        bus.subscribe(lambda e: heard.append(("all-1", e.kind)))
        bus.subscribe(lambda e: heard.append(("sched", e.kind)),
                      kinds=("sched",))
        bus.subscribe(lambda e: heard.append(("all-2", e.kind)))
        bus.subscribe(lambda e: heard.append(("guard+sched", e.kind)),
                      kinds=("guard", "sched"))
        for kind in ("sched", "guard", "valve"):
            bus.emit(kind, "r", "t", "x")
        assert heard == [
            ("all-1", "sched"), ("sched", "sched"), ("all-2", "sched"),
            ("guard+sched", "sched"),
            ("all-1", "guard"), ("all-2", "guard"), ("guard+sched", "guard"),
            ("all-1", "valve"), ("all-2", "valve")]

    def test_publish_delivers_only_to_the_kinds_readers(self):
        """Mutant killed: ``publish`` iterating every subscriber."""
        bus, heard = self._bus(), []
        bus.subscribe(heard.append, kinds=("sched",))
        guard = TelemetryEvent(0.0, "guard", "r", "t", "rerun", {})
        sched = guard._replace(kind="sched")
        bus.publish(guard)
        bus.publish(sched)
        assert heard == [sched]
        assert bus.published == 1

    def test_unsubscribe_reroutes_and_wants_follows(self):
        bus, heard = self._bus(), []

        def reader(event):
            heard.append(event.kind)

        assert not bus.wants("stream")
        bus.subscribe(reader, kinds=("stream",))
        bus.subscribe(reader)  # a repeated subscribe is ignored
        assert bus.wants("stream") and not bus.wants("sched")
        bus.emit("stream", "r", "t", "put")
        bus.emit("sched", "r", "t", "run")
        bus.unsubscribe(reader)
        assert not bus.wants("stream")
        bus.emit("stream", "r", "t", "put")
        assert heard == ["stream"]
        bus.subscribe(reader)
        assert bus.wants("stream") and bus.wants("sched")

    def test_emit_to_an_unread_kind_builds_nothing(self, monkeypatch):
        from repro.telemetry import bus as bus_module

        built, ticks = [], []
        real = bus_module.TelemetryEvent

        def counting(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(bus_module, "TelemetryEvent", counting)
        bus = TelemetryBus()
        bus.bind_clock(lambda: ticks.append(1) or 1.0, 1.0)
        bus.emit("stream", "r", "t", "put", data={"seq": 0})
        bus.subscribe(lambda event: None, kinds=("sched",))
        bus.emit("stream", "r", "t", "put")
        assert built == [] and ticks == []
        bus.emit("sched", "r", "t", "run")
        assert built == ["sched"] and ticks == [1]
        assert bus.published == 1


class TestStatsFinishSemantics:
    """Regression: finish() used to double-book the tail residence."""

    def test_finish_is_idempotent(self):
        stats = TaskStats("t")
        stats.enter(TaskState.RUNNING, 0.0)
        stats.enter(TaskState.COMPLETE, 10.0)
        stats.finish(12.0)
        first = stats.time[TaskState.COMPLETE]
        stats.finish(50.0)
        stats.finish(100.0)
        assert stats.time[TaskState.COMPLETE] == first == 2.0

    def test_enter_after_finish_raises(self):
        stats = TaskStats("t")
        stats.enter(TaskState.RUNNING, 0.0)
        stats.finish(1.0)
        with pytest.raises(StateError, match="after finish"):
            stats.enter(TaskState.WAITING, 2.0)


class TestTraceRingBuffer:
    def test_unbounded_by_default(self):
        trace = Trace()
        for i in range(100):
            trace.record(float(i), "r", "t", "run")
        assert len(trace) == 100 and trace.dropped == 0

    def test_capacity_evicts_oldest_and_counts_drops(self):
        trace = Trace(capacity=3)
        for i in range(10):
            trace.record(float(i), "r", "t", "run")
        assert len(trace) == 3
        assert trace.dropped == 7
        assert [e.time for e in trace.events] == [7.0, 8.0, 9.0]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Trace(capacity=0)

    def test_drops_fold_into_metrics(self):
        telemetry = Telemetry(trace_capacity=2)
        region = make_pipeline(n=10, start_fraction=1.0, exact_quality=True)
        executor = SimExecutor(cores=4, telemetry=telemetry)
        executor.submit(region)
        executor.run()
        assert len(telemetry.trace) == 2
        assert (telemetry.metrics.counters["trace.dropped_events"]
                == telemetry.trace.dropped > 0)


class TestHistogramLookup:
    """Observing into an existing histogram builds no throwaway one."""

    def test_observing_an_existing_histogram_constructs_none(
            self, monkeypatch):
        from repro.telemetry import metrics as metrics_module

        def tally(*occupancies):
            return {"puts": len(occupancies), "served": 0, "stale_reads": 0,
                    "sheds": 0, "parks": 0, "occupancies": occupancies}

        registry = metrics_module.MetricsRegistry()
        registry.observe("svc.latency", 1e-3)
        registry.record_queue(tally(1))
        built = []
        real = metrics_module.Histogram

        class Counting(real):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(metrics_module, "Histogram", Counting)
        values = [10.0 ** -exponent for exponent in range(8)] * 5
        for value in values:
            registry.observe("svc.latency", value)
            registry.record_queue(tally(value * 1e3))
        assert built == []
        expected = {"svc.latency": real(), "stream.occupancy":
                    real(metrics_module.OCCUPANCY_BOUNDS)}
        expected["svc.latency"].observe(1e-3)
        expected["stream.occupancy"].observe(1)
        for value in values:
            expected["svc.latency"].observe(value)
            expected["stream.occupancy"].observe(value * 1e3)
        for name, histogram in expected.items():
            assert registry.histograms[name].to_dict() == histogram.to_dict()
        assert registry.counters["stream.items_in"] == 1 + len(values)

    def test_a_value_lands_in_the_first_bucket_at_or_above_it(self):
        from repro.telemetry.metrics import OCCUPANCY_BOUNDS, Histogram

        histogram = Histogram(OCCUPANCY_BOUNDS)
        for value in (0, 1, 1.5, 32, 33, 128, 129, float("inf"),
                      float("nan"), -1):
            histogram.observe(value)
        assert histogram.to_dict()["buckets"] == {
            "le_0": 2, "le_1": 1, "le_2": 1, "le_4": 0, "le_8": 0,
            "le_16": 0, "le_32": 1, "le_64": 1, "le_128": 1, "le_inf": 3}
        assert histogram.count == 10 and histogram.max == float("inf")


class TestDumpCli:
    def _dump(self, tmp_path, name, **pipeline_kwargs):
        telemetry = Telemetry()
        kwargs = dict(n=20, start_fraction=1.0, exact_quality=True)
        kwargs.update(pipeline_kwargs)
        executor = SimExecutor(cores=4, telemetry=telemetry)
        executor.submit(make_pipeline(**kwargs))
        executor.run()
        path = tmp_path / name
        telemetry.write(metrics_out=str(path))
        return path

    def test_summarize(self, tmp_path, capsys):
        path = self._dump(tmp_path, "run.json")
        assert telemetry_cli(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tasks.runs" in out and "valve.start.pass" in out

    def test_diff_changed_only(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json")
        b = self._dump(tmp_path, "b.json", n=40)
        assert telemetry_cli(["diff", str(a), str(b),
                              "--changed-only"]) == 0
        out = capsys.readouterr().out
        assert "metrics diff" in out
        assert "time.running" in out  # n=40 runs longer than n=20

    def test_diff_identical_dumps_reports_nothing(self, tmp_path, capsys):
        a = self._dump(tmp_path, "a.json")
        assert telemetry_cli(["diff", str(a), str(a),
                              "--changed-only"]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_rejects_non_dump_files(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}')
        assert telemetry_cli(["summarize", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_rows_cover_both_sides(self, tmp_path):
        a = load_metrics(str(self._dump(tmp_path, "a.json")))
        b = dict(a, counters=dict(a["counters"], extra=3.0))
        rows = {key: (left, right, delta)
                for key, left, right, delta in diff_metrics(a, b)}
        assert rows["extra"] == (0, 3.0, 3.0)
        assert rows["tasks.runs"][2] == 0
