"""Closed-loop autotuner: control-law properties + tuner behaviour.

Three layers, matching docs/autotuning.md:

* **Control-law properties** (Hypothesis): deadband errors map to zero
  steps, AIMD is monotone under sustained violation/margin, and the
  clamped position keeps every actuated valve attribute within its
  declared ``[lo, hi]`` bounds for *arbitrary* error streams.
* **Tuner unit behaviour**: SLO validation, spec parsing, untunable
  valves skipped, single-run bind, position inheritance on late
  attach, ``tune.*`` metrics folding.
* **Sim integration**: a strict-quality K-means run where the
  ``accuracy_floor`` tuner must adjust at least once, hold the floor,
  and beat the static baseline it started from.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kmeans import KMeansApp
from repro.core.count import Count
from repro.core.errors import TuningError
from repro.core.region import FluidRegion
from repro.core.valves import (ConvergenceValve, CountValve, PercentValve,
                               PredicateValve, StabilityValve)
from repro.telemetry import Telemetry
from repro.telemetry.bus import TelemetryBus, TelemetryEvent
from repro.telemetry.metrics import COUNTER_CATALOGUE, MetricsRegistry
from repro.tuning import SLO, ValveAutotuner, make_autotuner
from repro.tuning.autotune import DEADBAND, _tuned_valve, aimd_step
from repro.workloads import synthetic_image

# ---------------------------------------------------------------------------
# strategies


def _clamp(value, lo, hi):
    return max(lo, min(hi, value))


errors_st = st.lists(
    st.floats(min_value=-1.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


# ---------------------------------------------------------------------------
# control-law properties (Hypothesis)


@settings(max_examples=60, deadline=None)
@given(errors=errors_st, relax=st.booleans())
def test_position_and_thresholds_stay_in_bounds(errors, relax):
    """Arbitrary error streams never push an actuated valve outside
    its [lo, hi] bounds, in either the tighten or relax direction."""
    relax_floor = 0.1 if relax else None
    valve = PercentValve(Count("progress"), 0.4, 100.0, name="gate")
    tuned = _tuned_valve(valve, relax_floor)
    floor = -1.0 if relax else 0.0
    position = 0.0
    for error in errors:
        position = _clamp(position + aimd_step(error, position),
                          floor, 1.0)
        tuned.apply(position)
        assert floor <= position <= 1.0
        assert tuned.lo - 1e-9 <= valve.threshold <= tuned.hi + 1e-9


@settings(max_examples=60, deadline=None)
@given(scales=st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                 allow_nan=False), min_size=1, max_size=20),
       position=st.floats(min_value=-1.0, max_value=1.0))
def test_deadband_errors_never_step(scales, position):
    """Errors inside the deadband map to a zero step — the
    no-oscillation guarantee."""
    for scale in scales:
        error = scale * DEADBAND        # |error| <= deadband by design
        assert aimd_step(error, position) == 0.0


@settings(max_examples=60, deadline=None)
@given(errors=st.lists(st.floats(min_value=0.05, max_value=1.0,
                                 allow_nan=False),
                       min_size=1, max_size=30))
def test_aimd_sustained_violation_is_monotone_tightening(errors):
    """All-fail feedback drives AIMD monotonically toward serialization
    (position nondecreasing, never past 1)."""
    position = 0.0
    for error in errors:
        step = aimd_step(error, position)
        assert step >= 0.0
        new_position = _clamp(position + step, 0.0, 1.0)
        assert new_position >= position
        position = new_position
    assert position <= 1.0


@settings(max_examples=60, deadline=None)
@given(errors=st.lists(st.floats(min_value=-1.0, max_value=-0.05,
                                 allow_nan=False),
                       min_size=1, max_size=30))
def test_aimd_sustained_margin_relaxes_to_floor(errors):
    """Pass-with-margin feedback relaxes additively and clamps at the
    floor instead of overshooting it."""
    floor = -1.0
    position = 0.0
    for error in errors:
        step = aimd_step(error, position)
        assert step < 0.0
        new_position = _clamp(position + step, floor, 1.0)
        assert new_position <= position
        position = new_position
    assert position >= floor


@settings(max_examples=50, deadline=None)
@given(verdicts=st.lists(st.booleans(), min_size=1, max_size=30))
def test_tuner_end_to_end_bounds_for_any_verdict_stream(verdicts):
    """Full tuner loop (bus -> window -> control law -> actuation): any
    end-valve verdict stream keeps thresholds in bounds and the
    decision log consistent with the counters."""
    bus = TelemetryBus()
    bus.bind_clock(lambda: 0.0, 1.0)
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9), window=1,
                           relax_floor=0.1)
    region = _GateRegion()
    region.finalize()
    tuner.bind(bus)
    tuner.attach_region(region)
    gate = next(valve for valve in region.valves if valve.name == "gate")
    tuned = _tuned_valve(gate, 0.1)
    for verdict in verdicts:
        bus.emit("valve", region.name, "consumer", "end",
                 data={"result": verdict})
        assert -1.0 <= tuner.position <= 1.0
        assert tuned.lo - 1e-9 <= gate.threshold <= tuned.hi + 1e-9
    assert tuner.adjustments == len(tuner.decisions)
    assert tuner.adjustments == tuner.tightenings + tuner.relaxations
    assert tuner.windows == len(verdicts)   # window=1: every verdict decides


# ---------------------------------------------------------------------------
# tuner unit behaviour


class _GateRegion(FluidRegion):
    """producer bumps a count; consumer's start is gated on 40% of it."""

    def build(self):
        progress = self.add_count("progress")
        handoff = self.add_data("handoff")
        gate = PercentValve(progress, 0.4, 100.0, name="gate")

        def producer(ctx):
            progress.add(100)
            handoff.write(1)
            yield 1.0

        def consumer(ctx):
            yield 1.0

        self.add_task("producer", producer, outputs=[handoff])
        self.add_task("consumer", consumer, start_valves=[gate],
                      inputs=[handoff])


def test_slo_validation():
    with pytest.raises(TuningError):
        SLO("accuracy_floor", 0.0)
    with pytest.raises(TuningError):
        SLO("accuracy_floor", 1.5)
    with pytest.raises(TuningError):
        SLO("latency_ceiling", 0.0)
    with pytest.raises(TuningError):
        SLO("nonsense", 0.5)
    assert SLO.accuracy_floor().target == 0.9


def test_spec_parsing():
    assert make_autotuner(None) is None
    tuner = ValveAutotuner(SLO.accuracy_floor(0.8))
    assert make_autotuner(tuner) is tuner

    parsed = make_autotuner("accuracy_floor:target=0.85,window=4,"
                            "relax_floor=0.2")
    assert parsed.slo == SLO("accuracy_floor", 0.85)
    assert parsed.window == 4
    assert parsed.relax_floor == 0.2

    default = make_autotuner("accuracy_floor")
    assert default.slo.target == 0.9
    assert default.window == 8 and default.relax_floor is None


@pytest.mark.parametrize("spec, named", [
    ("nonsense:target=0.9", "nonsense"),
    ("accuracy_floor:bogus_option=1", "bogus_option"),
    ("accuracy_floor:target", "target"),          # not key=value
    ("accuracy_floor:window=0", "window"),
    ("accuracy_floor:target=nope", "target"),
    ("accuracy_floor:window=2.5", "window"),
    ("accuracy_floor:window=nan", "window"),
    ("accuracy_floor:window=inf", "window"),
    ("accuracy_floor:target=nan", "target"),
    ("accuracy_floor:relax_floor=inf", "relax_floor"),
    ("latency_ceiling:target=1", "latency_ceiling"),
    ("accuracy_floor:controller=hysteresis", "controller"),
    ("accuracy_floor:controller=aimd", "controller"),
    ("accuracy_floor:gain=2.0", "gain"),
    ("accuracy_floor:backoff=0.5", "backoff"),
    ("accuracy_floor:relax_step=0.1", "relax_step"),
    ("accuracy_floor:deadband=0.05", "deadband"),
    (2.5, "window"),
    (math.nan, "window"),
    (math.inf, "window"),
])
def test_a_bad_spec_raises_tuning_error_naming_it(spec, named):
    """A spec string is parsed by ``make_autotuner``; a number is the
    ``window`` given to ``ValveAutotuner`` directly.  Neither truncates
    a fractional window nor lets a bare ValueError/OverflowError out."""
    with pytest.raises(TuningError, match=named):
        if isinstance(spec, str):
            make_autotuner(spec)
        else:
            ValveAutotuner(SLO.accuracy_floor(0.9), window=spec)


def test_untunable_valves_are_skipped():
    # A plain CountValve defaults max_threshold == threshold: no headroom.
    plain = CountValve(Count("ack"), 1)
    assert _tuned_valve(plain, None) is None
    assert _tuned_valve(plain, 0.1) is None
    # Opaque predicate conditions are never actuated.
    assert _tuned_valve(PredicateValve(lambda: True), 0.1) is None
    # Percent/Convergence/Stability valves all expose headroom.
    assert _tuned_valve(PercentValve(Count("c"), 0.4, 100.0), None) is not None
    assert _tuned_valve(ConvergenceValve(Count("c"), window=4),
                        None) is not None
    assert _tuned_valve(StabilityValve(Count("c"), total=10.0, rounds=2),
                        None) is not None


def test_integral_attributes_round_and_floor_at_one():
    valve = ConvergenceValve(Count("c"), window=4)
    tuned = _tuned_valve(valve, relax_floor=0.01)
    tuned.apply(-1.0)
    assert isinstance(valve.window, int) and valve.window >= 1
    tuned.apply(1.0)
    assert valve.window == valve.max_window


def test_bind_is_single_run():
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9))
    tuner.bind(TelemetryBus())
    with pytest.raises(TuningError):
        tuner.bind(TelemetryBus())


def test_rebinding_the_bus_it_holds_is_a_no_op():
    """Single-run means one bus: every window run of a ``Pipeline``
    binds the same tuner to the same bus."""
    bus = TelemetryBus()
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9))
    assert tuner.bind(bus) is tuner
    assert tuner.bind(bus) is tuner
    with pytest.raises(TuningError):
        tuner.bind(TelemetryBus())


def test_late_attach_inherits_position():
    bus = TelemetryBus()
    bus.bind_clock(lambda: 0.0, 1.0)
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9), window=1)
    first = _GateRegion()
    first.finalize()
    tuner.bind(bus)
    tuner.attach_region(first)
    gate = next(valve for valve in first.valves if valve.name == "gate")
    # One failed window tightens away from base...
    bus.emit("valve", first.name, "consumer", "end",
             data={"result": False})
    assert tuner.position > 0.0
    assert gate.threshold > gate.base_threshold
    # ...and a region attached afterwards starts at the tuned point.
    second = _GateRegion()
    second.finalize()
    tuner.attach_region(second)
    late_gate = next(valve for valve in second.valves
                     if valve.name == "gate")
    assert late_gate.threshold == pytest.approx(gate.threshold)


def test_events_from_unattached_regions_are_ignored():
    bus = TelemetryBus()
    bus.bind_clock(lambda: 0.0, 1.0)
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9), window=1)
    tuner.bind(bus)
    bus.emit("valve", "someone_else", "t", "end", data={"result": False})
    assert tuner.windows == 0 and tuner.adjustments == 0


def test_tune_metrics_folding():
    for name in ("tune.adjustments", "tune.tightenings",
                 "tune.relaxations", "tune.windows"):
        assert name in COUNTER_CATALOGUE
    registry = MetricsRegistry()
    registry.on_event(TelemetryEvent(
        0.0, "tune", "r", "", "adjust",
        {"before": 0.0, "after": 0.5}))
    registry.on_event(TelemetryEvent(
        1.0, "tune", "r", "", "adjust",
        {"before": 0.5, "after": 0.45}))
    assert registry.counters["tune.adjustments"] == 2
    assert registry.counters["tune.tightenings"] == 1
    assert registry.counters["tune.relaxations"] == 1
    assert registry.gauges["tune.position"] == 0.45
    # The end-of-run snapshot fold adds windows without double-counting
    # the live adjust events.
    registry.record_autotuner({"windows": 3, "position": 0.45})
    assert registry.counters["tune.windows"] == 3
    assert registry.counters["tune.adjustments"] == 2


# ---------------------------------------------------------------------------
# sim integration


def _strict_kmeans():
    return KMeansApp(synthetic_image(40, 40, diversity=6, seed=83),
                     num_clusters=5, epochs=5, quality_fraction=1.0)


def test_accuracy_floor_tuner_beats_static_on_strict_kmeans():
    """The acceptance behaviour: on strict-quality K-means the tuner
    adjusts at least once, holds the 0.9 floor, and reduces makespan
    versus the static aggressive baseline."""
    static = _strict_kmeans().run_fluid(threshold=0.2)
    app = _strict_kmeans()
    tuner = make_autotuner("accuracy_floor:target=0.9,window=1")
    telemetry = Telemetry(chrome=False)
    tuned = app.run_fluid(threshold=0.2, autotune=tuner,
                          telemetry=telemetry)
    assert tuner.adjustments >= 1
    assert tuner.windows >= 1
    assert tuned.accuracy >= 0.9
    assert tuned.makespan < static.makespan
    # tune.* events flowed through the live metrics...
    assert telemetry.metrics.counters["tune.adjustments"] >= 1
    assert telemetry.metrics.counters["tune.windows"] >= tuner.windows
    # ...and the decision log matches the counters.
    assert len(tuner.decisions) == tuner.adjustments


def test_autotune_spec_string_builds_fresh_tuner_per_run():
    app = _strict_kmeans()
    first = app.run_fluid(threshold=0.2,
                          autotune="accuracy_floor:target=0.9,window=1")
    second = app.run_fluid(threshold=0.2,
                           autotune="accuracy_floor:target=0.9,window=1")
    assert first.makespan == second.makespan    # sim: fully deterministic


def test_autotuner_instance_is_single_run_through_run_fluid():
    tuner = make_autotuner("accuracy_floor:target=0.9,window=1")
    app = _strict_kmeans()
    app.run_fluid(threshold=0.2, autotune=tuner)
    with pytest.raises(TuningError):
        app.run_fluid(threshold=0.2, autotune=tuner)


def test_idle_tuner_is_makespan_neutral():
    """With a lenient quality bar nothing fails, the default window
    never fills, and the tuned run's makespan is bit-identical."""
    def lenient():
        return KMeansApp(synthetic_image(40, 40, diversity=6, seed=83),
                         num_clusters=5, epochs=5, quality_fraction=0.4)

    static = lenient().run_fluid(threshold=0.2)
    tuner = make_autotuner("accuracy_floor:target=0.9")     # window=8
    tuned = lenient().run_fluid(threshold=0.2, autotune=tuner)
    assert tuner.adjustments == 0
    assert tuned.makespan == static.makespan
