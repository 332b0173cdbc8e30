"""Closed-loop autotuner: controller conformance + tuner behaviour.

Three layers, matching docs/autotuning.md:

* **Controller conformance** (Hypothesis): the control-law contract —
  deadband errors map to zero steps, AIMD is monotone under sustained
  violation/margin, hysteresis never reverses inside its band, and the
  clamped position keeps every actuated valve attribute within its
  declared ``[lo, hi]`` bounds for *arbitrary* error streams.
* **Tuner unit behaviour**: SLO validation, spec parsing, untunable
  valves skipped, single-run bind, position inheritance on late
  attach, ``tune.*`` metrics folding.
* **Sim integration**: a strict-quality K-means run where the
  ``accuracy_floor`` tuner must adjust at least once, hold the floor,
  and beat the static baseline it started from, under both the AIMD
  and the hysteresis control law.
"""

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
from repro.tuning import (SLO, AimdController, HysteresisController,
                          ValveAutotuner, make_autotuner, make_controller)
from repro.tuning.autotune import _tuned_valve
from repro.workloads import synthetic_image

# ---------------------------------------------------------------------------
# strategies


def _clamp(value, lo, hi):
    return max(lo, min(hi, value))


errors_st = st.lists(
    st.floats(min_value=-1.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)

controller_st = st.sampled_from(["aimd", "hysteresis"])


# ---------------------------------------------------------------------------
# controller conformance (Hypothesis)


@settings(max_examples=60, deadline=None)
@given(errors=errors_st, name=controller_st,
       relax=st.booleans())
def test_position_and_thresholds_stay_in_bounds(errors, name, relax):
    """Arbitrary error streams never push an actuated valve outside
    its [lo, hi] bounds, in either the tighten or relax direction."""
    controller = make_controller(name)
    relax_floor = 0.1 if relax else None
    valve = PercentValve(Count("progress"), 0.4, 100.0, name="gate")
    tuned = _tuned_valve(valve, relax_floor)
    floor = -1.0 if relax else 0.0
    position = 0.0
    for error in errors:
        position = _clamp(position + controller.step(error, position),
                          floor, 1.0)
        tuned.apply(position)
        assert floor <= position <= 1.0
        assert tuned.lo - 1e-9 <= valve.threshold <= tuned.hi + 1e-9


@settings(max_examples=60, deadline=None)
@given(deadband=st.floats(min_value=0.01, max_value=0.2),
       name=controller_st,
       scales=st.lists(st.floats(min_value=-1.0, max_value=1.0,
                                 allow_nan=False), min_size=1, max_size=20))
def test_deadband_errors_never_step(deadband, name, scales):
    """Errors inside the deadband map to a zero step — the
    no-oscillation guarantee both laws must honour."""
    controller = make_controller(name, deadband=deadband)
    position = 0.0
    for scale in scales:
        error = scale * deadband        # |error| <= deadband by design
        assert controller.step(error, position) == 0.0


@settings(max_examples=60, deadline=None)
@given(errors=st.lists(st.floats(min_value=0.05, max_value=1.0,
                                 allow_nan=False),
                       min_size=1, max_size=30),
       backoff=st.floats(min_value=0.1, max_value=1.0))
def test_aimd_sustained_violation_is_monotone_tightening(errors, backoff):
    """All-fail feedback drives AIMD monotonically toward serialization
    (position nondecreasing, never past 1)."""
    controller = AimdController(backoff=backoff, deadband=0.02)
    position = 0.0
    for error in errors:
        step = controller.step(error, position)
        assert step >= 0.0
        new_position = _clamp(position + step, 0.0, 1.0)
        assert new_position >= position
        position = new_position
    assert position <= 1.0


@settings(max_examples=60, deadline=None)
@given(errors=st.lists(st.floats(min_value=-1.0, max_value=-0.05,
                                 allow_nan=False),
                       min_size=1, max_size=30),
       relax_step=st.floats(min_value=0.01, max_value=0.5))
def test_aimd_sustained_margin_relaxes_to_floor(errors, relax_step):
    """Pass-with-margin feedback relaxes additively and clamps at the
    floor instead of overshooting it."""
    controller = AimdController(relax_step=relax_step, deadband=0.02)
    floor = -1.0
    position = 0.0
    for error in errors:
        step = controller.step(error, position)
        assert step < 0.0
        new_position = _clamp(position + step, floor, 1.0)
        assert new_position <= position
        position = new_position
    assert position >= floor


@settings(max_examples=60, deadline=None)
@given(deadband=st.floats(min_value=0.02, max_value=0.1),
       reversal=st.floats(min_value=1.5, max_value=4.0),
       fraction=st.floats(min_value=1.01, max_value=1.49))
def test_hysteresis_holds_course_inside_reversal_band(deadband, reversal,
                                                      fraction):
    """After tightening, an opposing error inside the hysteresis band
    (deadband < |e| <= reversal * deadband) must not flip direction."""
    controller = HysteresisController(deadband=deadband, reversal=reversal)
    assert controller.step(reversal * deadband * 2.0, 0.0) > 0.0
    # fraction < 1.5 <= reversal, so the opposing error sits strictly
    # inside the hysteresis band: outside the deadband, but not loud
    # enough to justify a reversal.
    opposing = -fraction * deadband
    assert controller.step(opposing, 0.5) == 0.0


@settings(max_examples=60, deadline=None)
@given(error=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       gain=st.floats(min_value=0.1, max_value=5.0),
       max_step=st.floats(min_value=0.05, max_value=0.5))
def test_hysteresis_step_clamped_to_max_step(error, gain, max_step):
    controller = HysteresisController(gain=gain, max_step=max_step)
    assert abs(controller.step(error, 0.0)) <= max_step + 1e-12


@settings(max_examples=50, deadline=None)
@given(verdicts=st.lists(st.booleans(), min_size=1, max_size=30))
def test_tuner_end_to_end_bounds_for_any_verdict_stream(verdicts):
    """Full tuner loop (bus -> window -> controller -> actuation): any
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
    assert SLO.latency_ceiling(100.0).kind == "latency_ceiling"


def test_spec_parsing():
    assert make_autotuner(None) is None
    tuner = ValveAutotuner(SLO.accuracy_floor(0.8))
    assert make_autotuner(tuner) is tuner

    parsed = make_autotuner("accuracy_floor:target=0.85,window=4,"
                            "controller=hysteresis,gain=0.8,relax_floor=0.2")
    assert parsed.slo == SLO("accuracy_floor", 0.85)
    assert parsed.window == 4
    assert parsed.relax_floor == 0.2
    assert isinstance(parsed.controller, HysteresisController)
    assert parsed.controller.gain == 0.8

    default = make_autotuner("accuracy_floor")
    assert default.slo.target == 0.9
    assert isinstance(default.controller, AimdController)

    ceiling = make_autotuner("latency_ceiling:target=50000")
    assert ceiling.slo == SLO("latency_ceiling", 50000.0)


def test_spec_parsing_errors():
    with pytest.raises(TuningError):
        make_autotuner("nonsense:target=0.9")
    with pytest.raises(TuningError):
        make_autotuner("latency_ceiling")          # needs explicit target
    with pytest.raises(TuningError):
        make_autotuner("accuracy_floor:bogus_option=1")
    with pytest.raises(TuningError):
        make_autotuner("accuracy_floor:target")    # not key=value
    with pytest.raises(TuningError):
        make_autotuner("accuracy_floor:window=0")
    with pytest.raises(TuningError):
        make_autotuner("accuracy_floor:target=nope")
    with pytest.raises(TuningError):
        # aimd does not take hysteresis options.
        make_autotuner("accuracy_floor:gain=2.0")


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


def _assert_tuner_beats_static(spec):
    static = _strict_kmeans().run_fluid(threshold=0.2)
    app = _strict_kmeans()
    tuner = make_autotuner(spec)
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


def test_accuracy_floor_tuner_beats_static_on_strict_kmeans():
    """The acceptance behaviour: on strict-quality K-means the tuner
    adjusts at least once, holds the 0.9 floor, and reduces makespan
    versus the static aggressive baseline."""
    _assert_tuner_beats_static("accuracy_floor:target=0.9,window=1")


def test_hysteresis_tuner_beats_static_on_strict_kmeans():
    """The same acceptance behaviour under the hysteresis law.  The
    strict-quality regime needs decisive steps: one failed epoch must
    tighten enough that the next producer finishes by its consumer's
    end check."""
    _assert_tuner_beats_static(
        "accuracy_floor:target=0.9,window=1,controller=hysteresis,"
        "gain=2.0,max_step=1.0")


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
