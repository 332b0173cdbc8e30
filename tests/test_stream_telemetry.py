"""Stream telemetry without per-item events.

Stage queues keep their own tallies, and the pipeline folds them into
the ``stream.*`` metrics once per run (``MetricsRegistry
.record_queues``).  The event-derived counters these replace survive
here as an oracle: a subscriber to ``stream`` forces every event to be
built, and its counts must equal the folded ones exactly.  A default
run, whose subscribers do not read ``stream``, must build none.
"""

import pytest

from repro import Telemetry, TelemetryBus
from repro.stream import APPS
from repro.telemetry.metrics import OCCUPANCY_BOUNDS, Histogram

STREAM_COUNTERS = ("stream.items_in", "stream.items_out",
                   "stream.stale_reads", "stream.drops", "stream.parks")


class _EventOracle:
    """The stream counters as ``MetricsRegistry`` once derived them from
    ``stream`` events.  Append-only: thread-backend bodies publish
    concurrently."""

    def __init__(self, bus):
        self.events = []
        bus.subscribe(self.events.append, kinds=("stream",))

    def fold(self):
        counters = dict.fromkeys(STREAM_COUNTERS, 0)
        occupancy = Histogram(OCCUPANCY_BOUNDS)
        for event in self.events:
            data = event.data
            if event.name == "put":
                counters["stream.items_in"] += 1
                occupancy.observe(data["occupancy"])
            elif event.name == "serve" and data["first"]:
                counters["stream.items_out"] += 1
                if data["displacement"] > 0:
                    counters["stream.stale_reads"] += 1
            elif event.name == "drop":
                counters["stream.drops"] += 1
            elif event.name == "park":
                counters["stream.parks"] += 1
                occupancy.observe(data["occupancy"])
        return counters, occupancy


def _fold_against_events(app_name, k, backend):
    app = APPS[app_name]
    telemetry = Telemetry(metrics=True, chrome=False)
    oracle = _EventOracle(telemetry.bus)
    app.pipeline(k=k, window=32, telemetry=telemetry).run(
        app.make_items(64), backend=backend, slots=2)
    counters, occupancy = oracle.fold()
    metrics = telemetry.metrics
    assert {name: metrics.counters[name] for name in STREAM_COUNTERS} \
        == counters
    assert metrics.histograms["stream.occupancy"].to_dict() \
        == occupancy.to_dict()
    return counters, [event.name for event in oracle.events]


class TestFoldedCountersEqualEvents:
    """Mutant killed: the fold counting an ``update`` rewrite as a put
    (the relaxed simulator runs re-execute, so their queues see
    updates)."""

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("app_name", ["logagg", "topk", "frames"])
    def test_on_the_simulator(self, app_name, k):
        counters, names = _fold_against_events(app_name, k, "sim")
        assert counters["stream.items_in"] > 0
        if k:
            assert "update" in names
        if app_name == "frames":
            # Capacity 8: backpressure parks at every k, sheds at k > 0.
            assert counters["stream.parks"] > 0
            assert (counters["stream.drops"] > 0) == (k > 0)

    @pytest.mark.parametrize("app_name", ["logagg", "topk", "frames"])
    def test_on_threads_at_k0(self, app_name):
        counters, _ = _fold_against_events(app_name, 0, "thread")
        assert counters["stream.items_out"] == 3 * 64


class TestNoStreamEventByDefault:
    def test_a_default_pipeline_run_builds_no_stream_event(
            self, monkeypatch):
        """Mutant killed: ``StageQueue._emit`` ignoring ``wants``.  The
        default subscribers (``Trace``, ``MetricsRegistry``) do not read
        ``stream``, so not one is offered to the bus; the counters and
        latencies still arrive through the queue tallies."""
        offered = []
        real_emit = TelemetryBus.emit

        def spy(bus, kind, *args, **kwargs):
            offered.append(kind)
            return real_emit(bus, kind, *args, **kwargs)

        monkeypatch.setattr(TelemetryBus, "emit", spy)
        app = APPS["frames"]
        pipeline = app.pipeline(k=2, window=16)
        result = pipeline.run(app.make_items(32), backend="sim")
        assert offered and "stream" not in offered
        counters = pipeline.telemetry.metrics.counters
        assert counters["stream.items_in"] > 0
        assert counters["stream.parks"] > 0
        assert set(result.latencies) == set(result.outputs)

    def test_thread_latencies_come_from_arrival_stamps(self):
        app = APPS["logagg"]
        pipeline = app.pipeline(k=0, window=32)
        result = pipeline.run(app.make_items(64), backend="thread", slots=2)
        assert set(result.latencies) == set(range(64))
        assert all(latency >= 0.0 for latency in result.latencies.values())
        # About one published event per item at 32 items per window:
        # transitions, valve verdicts and scheduling, none of them
        # per-item stream events.
        assert pipeline.telemetry.bus.published < 2 * 64


class _Windows:
    """Every window a pipeline harvests, in run order: its region's name
    and the valve checks that region counted, read once the harvest is
    done (the run re-arms one build for the next window)."""

    def __init__(self, pipeline):
        self.names = []
        self.checks = []
        harvest = pipeline._harvest

        def recording(result, index, build, *args, **kwargs):
            harvest(result, index, build, *args, **kwargs)
            self.names.append(build.region.name)
            self.checks.append(sum(valve.checks
                                   for valve in build.region.valves))

        pipeline._harvest = recording


@pytest.mark.parametrize("backend", ["sim", "thread", "process"])
class TestOneBusAndOneTunerPerRun:
    """A ``Pipeline.run`` is one run on every backend: each window is
    built over the pipeline's one telemetry bundle and one resolved
    tuner (96 logagg items, 32-item windows)."""

    def _run(self, backend, **options):
        app = APPS["logagg"]
        pipeline = app.pipeline(k=4, window=32, **options)
        windows = _Windows(pipeline)
        result = pipeline.run(app.make_items(96), backend=backend,
                              slots=2, workers=2)
        assert len(windows.names) == 3
        assert all(result.end_verdicts.values())
        return pipeline, windows

    def test_every_window_folds_into_the_telemetry(self, backend):
        telemetry = Telemetry(metrics=True, chrome=False)
        _pipeline, windows = self._run(backend, telemetry=telemetry)
        counters = telemetry.metrics.counters
        assert counters["tasks.runs"] > 0
        assert counters["valve.checks.evaluated"] == sum(windows.checks)

    def test_a_spec_string_runs(self, backend):
        pipeline, _windows = self._run(
            backend, autotune="accuracy_floor:target=0.9,window=4")
        assert pipeline.telemetry.metrics.counters["tasks.runs"] > 0

    def test_one_tuner_instance_is_bound_once_and_sees_every_window(
            self, backend):
        from repro.tuning import make_autotuner

        # Completions are its feedback: they close windows on every
        # backend, whatever the end verdicts.
        tuner = make_autotuner("latency_ceiling:target=1,window=2")
        pipeline, windows = self._run(backend, autotune=tuner)
        assert tuner._bus is pipeline.telemetry.bus
        assert set(tuner._regions) == set(windows.names)
        # Folded once per window run, counted once.
        assert tuner.windows > 0
        assert pipeline.telemetry.metrics.counters["tune.windows"] \
            == tuner.windows


def test_a_tuned_position_carries_into_the_next_sim_window():
    """Window 2 starts from, and adjusts on from, the position window 1
    reached: one tuner for the whole run."""
    app = APPS["logagg"]
    telemetry = Telemetry(metrics=True, chrome=False)
    events = []
    telemetry.bus.subscribe(events.append, kinds=("tune",))
    # A ceiling of one cost unit is always missed: every completion
    # relaxes the staleness valves further toward the floor.
    app.pipeline(k=2, window=32, telemetry=telemetry,
                 autotune="latency_ceiling:target=1,window=2,"
                          "relax_floor=0.5").run(app.make_items(96),
                                                 backend="sim")
    attaches = [event for event in events if event.name == "attach"]
    assert len(attaches) == 3
    first, second = attaches[0].region, attaches[1].region
    adjusts = [event for event in events if event.name == "adjust"]
    reached = [event.data["after"] for event in adjusts
               if event.region == first][-1]
    assert reached < 0.0
    assert attaches[1].data["position"] == reached
    assert [event.data["before"] for event in adjusts
            if event.region == second][0] == reached


def _recording_host(pipeline):
    """Wrap ``pipeline._host`` to keep the host a run is given."""
    hosts = []
    make = pipeline._host

    def recording(*args):
        hosts.append(make(*args))
        return hosts[-1]

    pipeline._host = recording
    return hosts


@pytest.mark.parametrize("backend", ["sim", "thread", "process"])
class TestOneRunIsClosedOnce:
    """A ``Pipeline.run`` closes its telemetry once, at the end, on its
    one host (96 logagg items, 32-item windows).  Mutants killed: the
    first window's executor finalising the run (``run.makespan`` one
    window's), and a host whose scheduler is never folded
    (``sched.picks`` 0 on threads)."""

    def _run(self, backend):
        app = APPS["logagg"]
        telemetry = Telemetry(metrics=True, chrome=False)
        pipeline = app.pipeline(k=4, window=32, telemetry=telemetry)
        hosts = _recording_host(pipeline)
        result = pipeline.run(app.make_items(96), backend=backend,
                              slots=2, workers=2)
        assert len(result.windows) == 3 and len(hosts) == 1
        return telemetry.metrics, result, hosts[0]

    def test_run_makespan_is_the_pipeline_makespan(self, backend):
        metrics, result, _host = self._run(backend)
        assert metrics.gauges["run.makespan"] == result.makespan > 0

    def test_sched_picks_are_the_one_schedulers(self, backend):
        metrics, _result, host = self._run(backend)
        picks = host.scheduler.snapshot()["picks"]
        assert metrics.counters["sched.picks"] == picks
        if backend == "thread":
            assert picks > 0


def test_sim_windows_run_on_one_clock():
    """Window i+1's slices start no earlier than window i's end: the
    simulator's clock runs on across the run's windows."""
    from collections import defaultdict

    app = APPS["logagg"]
    telemetry = Telemetry(metrics=False, chrome=True)
    app.pipeline(k=4, window=32, telemetry=telemetry).run(
        app.make_items(96), backend="sim")
    events = telemetry.chrome_trace()["traceEvents"]
    regions = {event["pid"]: event["args"]["name"] for event in events
               if event["name"] == "process_name"}
    spans = defaultdict(list)
    for event in events:
        if event["ph"] == "X":
            spans[regions[event["pid"]]].append(
                (event["ts"], event["ts"] + event["dur"]))
    windows = [spans[f"region logagg_w{index}"] for index in range(3)]
    assert all(windows)
    for earlier, later in zip(windows, windows[1:]):
        assert min(start for start, _end in later) >= \
            max(end for _start, end in earlier)


def test_the_chrome_trace_names_each_region_process_once():
    """One ``process_name`` per pid, one ``thread_name`` per task track
    (96 logagg items in 3 windows of 4 tasks).  Mutant killed: a
    ``process_name`` per (region, task) pair, 12 of them for 3 pids."""
    app = APPS["logagg"]
    telemetry = Telemetry(metrics=False, chrome=True)
    app.pipeline(k=4, window=32, telemetry=telemetry).run(
        app.make_items(96), backend="sim")
    events = telemetry.chrome_trace()["traceEvents"]
    named = [event["pid"] for event in events
             if event["name"] == "process_name"]
    tracks = {(event["pid"], event["tid"]) for event in events
              if event["name"] == "thread_name"}
    assert sorted(named) == [1, 2, 3]
    assert len(tracks) == 12
    assert {event["pid"] for event in events} == set(named)
    assert {(event["pid"], event["tid"]) for event in events
            if event["ph"] in ("X", "i")} <= tracks


def test_thread_pipeline_utilization_is_over_one_worker():
    """``MetricsRegistry.finalize``'s rule: the GIL-bound thread
    driver's denominator is 1, whatever the pool's ``slots``."""
    app = APPS["logagg"]
    telemetry = Telemetry(metrics=True, chrome=False)
    app.pipeline(k=4, window=32, telemetry=telemetry).run(
        app.make_items(96), backend="thread", slots=2)
    gauges = telemetry.metrics.gauges
    assert gauges["run.workers"] == 1
    assert gauges["worker.utilization"] == min(
        1.0, gauges["worker.busy_time"] / gauges["run.makespan"])
