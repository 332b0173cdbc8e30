"""Parity and bounded-divergence tests for the streaming pipeline.

At ``k = 0`` the staleness valves degenerate to full-settlement
handshakes, so all three backends must reproduce the serial fold
reference *item for item* — same outputs, same end-valve verdicts.  At
``k > 0`` divergence is allowed but bounded: with one window and four
queue edges (source plus three stages) at most ``4k`` items may go
missing end-to-end, no must-deliver item may ever be lost, and no serve
may overtake more than ``k`` seqs.  The thread runs repeat under a
10 us GIL switch interval (``thread-preempted``), and the stress sweep
audits 20 such passes per app and k with the SchedLab checker.
``TestSweepConformance`` runs every
app over a (k, arrival rate) grid on the simulator: k = 0 is exact, no
must-deliver item is lost, every end verdict holds, and p50 latency
never rises as k relaxes.  The autotuner tests pin the
actuation contract: a :class:`~repro.core.valves.StalenessValve` is a
tunable ``CountValve``, and tightening it steers the attached queue's
effective drain bound toward FIFO.
"""

import asyncio
import contextlib
import sys

import pytest

from repro.core.valves import StalenessValve
from repro.schedlab import InvariantChecker
from repro.service import FluidService
from repro.stream import APPS
from repro.stream.apps import make_log_items
from repro.telemetry import Telemetry
from repro.tuning import make_autotuner

BACKENDS = ["sim", "thread", "process"]

#: The thread driver under a GIL switch every 10 us: puts, drains and
#: the producers' ``begin_produce`` recounts interleave at almost every
#: bytecode, so a tally written by two threads or read stale shows.
PREEMPTED = "thread-preempted"

#: One source edge plus one edge per stage: the per-window loss bound
#: at staleness k is EDGES * k items.
EDGES = 4


@contextlib.contextmanager
def _switch_interval(seconds):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(seconds)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _run(app_name, *, k, n, window, backend, **kwargs):
    app = APPS[app_name]
    pipeline = app.pipeline(k=k, window=window, **kwargs)
    items = app.make_items(n)
    if backend == PREEMPTED:
        with _switch_interval(1e-5):
            result = pipeline.run(items, backend="thread")
    else:
        result = pipeline.run(items, backend=backend)
    reference = pipeline.run_serial(items)
    return result, reference


class TestExactParityAtK0:
    @pytest.mark.parametrize("backend", BACKENDS + [PREEMPTED])
    def test_logagg_matches_serial_reference(self, backend):
        result, reference = _run("logagg", k=0, n=24, window=12,
                                 backend=backend)
        assert result.outputs == reference
        assert result.delivered == 24
        assert result.drops == 0
        assert result.max_displacement == 0
        assert result.end_verdicts and all(result.end_verdicts.values())

    @pytest.mark.parametrize("backend", BACKENDS + [PREEMPTED])
    def test_topk_matches_serial_reference(self, backend):
        result, reference = _run("topk", k=0, n=20, window=10,
                                 backend=backend)
        assert result.outputs == reference
        assert result.end_verdicts and all(result.end_verdicts.values())

    def test_frames_capacity_parks_instead_of_dropping_at_k0(self):
        # k=0 with a bounded queue may park (backpressure) but must not
        # shed: the output is still exact.
        for backend in ("sim", "thread", PREEMPTED):
            result, reference = _run("frames", k=0, n=12, window=12,
                                     backend=backend)
            assert result.outputs == reference, backend
            assert result.drops == 0, backend
            assert result.end_verdicts and all(result.end_verdicts.values())

    def test_backends_agree_with_each_other(self):
        outputs = [_run("logagg", k=0, n=24, window=12,
                        backend=backend)[0].outputs
                   for backend in BACKENDS]
        assert outputs[0] == outputs[1] == outputs[2]


class TestBoundedDivergence:
    @pytest.mark.parametrize("backend", BACKENDS + [PREEMPTED])
    @pytest.mark.parametrize("k", [2, 4])
    def test_losses_are_bounded_by_edges_times_k(self, backend, k):
        n = 32
        result, reference = _run("logagg", k=k, n=n, window=n,
                                 backend=backend)
        missing = [seq for seq in reference if seq not in result.outputs]
        assert len(missing) <= EDGES * k
        # Must-deliver items (every 4th) always arrive.
        assert all(seq % 4 != 0 for seq in missing)
        assert result.max_displacement <= k
        assert result.end_verdicts and all(result.end_verdicts.values())

    def test_sim_accuracy_floor_degrades_gracefully(self):
        """Deterministic on sim: the coverage error at staleness k is at
        most the missing-item fraction plus the (small) EMA divergence
        of delivered items — well above the worst-case floor."""
        app = APPS["logagg"]
        n = 40
        for k in (2, 8):
            result, reference = _run("logagg", k=k, n=n, window=n,
                                     backend="sim")
            error = app.metric(result.outputs, reference)
            floor = 1.0 - (EDGES * k + 2) / n  # +2: delivered-item drift
            assert 1.0 - error >= floor, (
                f"k={k}: accuracy {1 - error:.4f} below floor {floor:.4f}")

    def test_frames_sheds_at_most_k_per_edge_under_capacity(self):
        result, reference = _run("frames", k=3, n=16, window=16,
                                 backend="sim")
        # End-to-end losses (final-queue tombstones) obey the same bound
        # even though shedding is the *norm* for this app.
        assert result.drops <= EDGES * 3
        missing = [seq for seq in reference if seq not in result.outputs]
        assert all(seq % 4 != 0 for seq in missing)  # keyframes survive


@pytest.mark.stress
class TestPreemptedSweep:
    def test_no_drain_begins_over_its_bound_under_preemption(self):
        """20 thread passes per app and k under a 10 us GIL switch
        interval, each audited by the SchedLab checker on the pipeline
        bus: no drain begins with more than k items unsettled, no serve
        overtakes more than k seqs, no must item is shed, and k = 0 is
        exact."""
        for app_name in ("logagg", "topk", "frames"):
            app = APPS[app_name]
            items = app.make_items(64)
            reference = app.pipeline(k=0, window=32).run_serial(items)
            for k in (0, 4):
                for attempt in range(20):
                    label = f"{app_name} k={k} pass {attempt}"
                    telemetry = Telemetry(metrics=True, chrome=False)
                    checker = InvariantChecker().connect(telemetry.bus)
                    pipeline = app.pipeline(k=k, window=32,
                                            telemetry=telemetry)
                    with _switch_interval(1e-5):
                        result = pipeline.run(items, backend="thread")
                    assert checker.check_completion() == [], label
                    assert all(result.end_verdicts.values()), label
                    if k == 0:
                        assert result.outputs == reference, label


class TestSweepConformance:
    def test_sim_k_by_rate_grid(self):
        n, window = 200, 40
        for app_name in ("logagg", "topk", "frames"):
            app = APPS[app_name]
            items = app.make_items(n)
            reference = app.pipeline(k=0, window=window).run_serial(items)
            for rate in (1, 2):
                p50s = []
                for k in (0, 2, 8):
                    label = f"{app_name} k={k} rate={rate}"
                    pipeline = app.pipeline(k=k, window=window)
                    pipeline.interarrival = app.interarrival / rate
                    result = pipeline.run(items, backend="sim")
                    if k == 0:
                        assert result.outputs == reference, label
                        assert result.delivered == n, label
                    lost_must = [seq for seq in reference
                                 if seq not in result.outputs
                                 and (app.must is None or app.must(seq))]
                    assert lost_must == [], label
                    assert all(result.end_verdicts.values()), label
                    p50s.append(result.percentile_latency(0.5))
                assert p50s == sorted(p50s, reverse=True), (
                    f"{app_name} rate={rate}: p50 by k={p50s}")


class TestAutotunerActuation:
    def test_staleness_valves_are_tunable_entries(self):
        tuner = make_autotuner("accuracy_floor:target=0.9,window=8")
        pipeline = APPS["logagg"].pipeline(k=4, window=16)
        build = pipeline.build_window(0, make_log_items(16),
                                      pipeline._initial_states())
        tuner.attach_region(build.region)
        entries = tuner._regions[build.region.name]
        staleness = [entry for entry in entries
                     if isinstance(entry.valve, StalenessValve)]
        # One tunable staleness valve per stage's input queue.
        assert len(staleness) == len(pipeline.stages)

    def test_tightening_steers_the_queue_toward_fifo(self):
        tuner = make_autotuner("accuracy_floor:target=0.9,window=8")
        pipeline = APPS["logagg"].pipeline(k=4, window=16)
        build = pipeline.build_window(0, make_log_items(16),
                                      pipeline._initial_states())
        tuner.attach_region(build.region)
        queue = build.queues[0]
        assert queue.effective_bound() == 4
        entry = next(e for e in
                     tuner._regions[build.region.name]
                     if e.valve is queue.valve)
        entry.apply(1.0)   # full tighten: threshold -> expected, k -> 0
        assert queue.valve.k == 0
        assert queue.effective_bound() == 0
        entry.apply(0.0)   # back to the declared operating point
        assert queue.effective_bound() == 4

    def test_idle_autotuner_preserves_sim_outputs(self):
        app = APPS["logagg"]
        items = app.make_items(24)
        plain = app.pipeline(k=2, window=12).run(items, backend="sim")
        tuned = app.pipeline(
            k=2, window=12,
            autotune="accuracy_floor:target=0.5,window=10000",
        ).run(items, backend="sim")
        assert tuned.outputs == plain.outputs


class TestServiceStreaming:
    @staticmethod
    def _run_logagg_at_k0(**service_options):
        app = APPS["logagg"]
        items = app.make_items(24)
        pipeline = app.pipeline(k=0, window=12)
        reference = pipeline.run_serial(items)

        async def main():
            async with FluidService(slots=2, **service_options) as service:
                return await pipeline.run_service(items, service)

        result = asyncio.run(main())
        assert result.outputs == reference
        assert result.delivered == 24
        assert result.end_verdicts and all(result.end_verdicts.values())

    def test_run_service_matches_serial_at_k0(self):
        self._run_logagg_at_k0()

    def test_process_service_rebuilds_windows_from_their_factory(self):
        # Every window leases the service's shared process pool, which
        # installs a region only from its ``remote_factory``.
        self._run_logagg_at_k0(
            backend="process",
            backend_options={"workers": 2, "timeout": 30.0})

    def test_run_service_relaxed_window_reports_makespans(self):
        app = APPS["topk"]
        items = app.make_items(20)
        pipeline = app.pipeline(k=2, window=10)

        async def main():
            async with FluidService(slots=2) as service:
                return await pipeline.run_service(items, service,
                                                  latency_slo=60.0)

        result = asyncio.run(main())
        assert len(result.windows) == 2
        assert all(report.makespan > 0 for report in result.windows)
        missing = [seq for seq in range(20)
                   if seq not in result.outputs]
        assert len(missing) <= EDGES * 2
        assert all(seq % 5 != 0 for seq in missing)
