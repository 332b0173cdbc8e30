"""Unit tests for repro.core.valves."""

import pytest

from repro.core.count import Count
from repro.core.data import FluidData
from repro.core.errors import ValveError
from repro.core.task import FluidTask, TaskSpec
from repro.core.valves import (AlwaysValve, ConvergenceValve, CountValve,
                               DataFinalValve, NeverValve, PercentValve,
                               PredicateValve, StabilityValve,
                               StalenessValve)


class TestCountValve:
    def test_unsatisfied_below_threshold(self):
        ct = Count("ct")
        valve = CountValve(ct, threshold=5)
        ct.add(4)
        assert not valve.check()

    def test_satisfied_at_threshold(self):
        ct = Count("ct")
        valve = CountValve(ct, threshold=5)
        ct.add(5)
        assert valve.check()

    def test_monotone_in_count(self):
        ct = Count("ct")
        valve = CountValve(ct, threshold=3)
        seen = []
        for _ in range(6):
            ct.add()
            seen.append(valve.check())
        # once true, stays true
        assert seen == sorted(seen)

    def test_requires_count(self):
        with pytest.raises(ValveError):
            CountValve(None, threshold=1)

    def test_check_counter_increments(self):
        valve = CountValve(Count("ct"), threshold=1)
        valve.check()
        valve.check()
        assert valve.checks == 2

    def test_init_rebinds(self):
        valve = CountValve(Count("old"), threshold=1)
        ct = Count("new")
        valve.init(ct, 2)
        ct.add(2)
        assert valve.check()

    def test_watched_counts(self):
        ct = Count("ct")
        assert CountValve(ct, 1).watched_counts == (ct,)

    def test_max_threshold_below_base_rejected(self):
        with pytest.raises(ValveError):
            CountValve(Count("ct"), threshold=5, max_threshold=2)


#: (make, the setting tighten moves) for every valve with a threshold.
TIGHTENED = {
    "count": (lambda: CountValve(Count("c"), threshold=4, max_threshold=10),
              "threshold"),
    "convergence": (lambda: ConvergenceValve(Count("c"), window=2),
                    "window"),
    "stability": (lambda: StabilityValve(Count("c"), total=10, rounds=2),
                  "rounds"),
}


class TestThresholdModulation:
    """Tightening (Sections 4.4 / 6.1).  Every valve with a threshold
    takes a fraction in [0, 1]: 0 changes nothing, 1 reaches the
    fully-serialized setting."""

    def test_tighten_moves_toward_max(self):
        ct = Count("ct")
        valve = CountValve(ct, threshold=40, max_threshold=100)
        valve.tighten(0.5)
        assert valve.threshold == pytest.approx(70)
        valve.tighten(0.5)
        assert valve.threshold == pytest.approx(85)

    def test_tighten_never_exceeds_max(self):
        valve = CountValve(Count("ct"), threshold=40, max_threshold=100)
        for _ in range(50):
            valve.tighten(0.9)
        assert valve.threshold <= 100

    def test_relax_to_base(self):
        valve = CountValve(Count("ct"), threshold=40, max_threshold=100)
        valve.tighten(1.0)
        valve.relax_to_base()
        assert valve.threshold == 40

    @pytest.mark.parametrize("fraction", [-1.0, -0.1, 1.5, float("nan")])
    @pytest.mark.parametrize("kind", sorted(TIGHTENED))
    def test_tighten_rejects_bad_fraction(self, kind, fraction):
        make, setting = TIGHTENED[kind]
        valve = make()
        before = getattr(valve, setting)
        with pytest.raises(ValveError, match="outside"):
            valve.tighten(fraction)
        assert getattr(valve, setting) == before

    @pytest.mark.parametrize("kind", sorted(TIGHTENED))
    def test_zero_is_a_no_op(self, kind):
        make, setting = TIGHTENED[kind]
        valve = make()
        before = getattr(valve, setting)
        valve.tighten(0.0)
        assert getattr(valve, setting) == before

    @pytest.mark.parametrize("kind", sorted(TIGHTENED))
    def test_one_reaches_the_serialized_setting(self, kind):
        make, setting = TIGHTENED[kind]
        valve = make()
        valve.tighten(1.0)
        assert getattr(valve, setting) == getattr(valve, "max_" + setting)

    @pytest.mark.parametrize("fraction", [-0.5, 1.01, float("nan")])
    def test_modulation_policy_refuses_the_fraction_up_front(self, fraction):
        from repro.core.guard import ModulationPolicy

        with pytest.raises(ValveError, match="outside"):
            ModulationPolicy(fraction)


class TestPercentValve:
    def test_threshold_is_fraction_of_total(self):
        ct = Count("ct")
        valve = PercentValve(ct, fraction=0.4, total=100)
        ct.add(39)
        assert not valve.check()
        ct.add(1)
        assert valve.check()

    def test_full_fraction_means_completion(self):
        ct = Count("ct")
        valve = PercentValve(ct, fraction=1.0, total=10)
        ct.add(9)
        assert not valve.check()
        ct.add(1)
        assert valve.check()

    def test_fraction_bounds(self):
        with pytest.raises(ValveError):
            PercentValve(Count("ct"), fraction=1.2, total=10)

    def test_max_threshold_is_total(self):
        valve = PercentValve(Count("ct"), fraction=0.3, total=50)
        valve.tighten(1.0)
        assert valve.threshold == 50


class TestConvergenceValve:
    def test_needs_enough_history(self):
        ct = Count("energy")
        valve = ConvergenceValve(ct, window=3, tolerance=0.01)
        for value in (10.0, 10.0):
            ct.track_min(value)
        assert not valve.check()

    def test_satisfied_when_flat(self):
        ct = Count("energy")
        valve = ConvergenceValve(ct, window=3, tolerance=0.01)
        for value in (10.0, 10.0, 10.0, 10.0):
            ct.track_min(value)
        assert valve.check()

    def test_unsatisfied_while_improving(self):
        ct = Count("energy")
        valve = ConvergenceValve(ct, window=3, tolerance=0.01)
        for value in (10.0, 8.0, 6.0, 4.0):
            ct.track_min(value)
        assert not valve.check()

    def test_converges_after_plateau(self):
        ct = Count("energy")
        valve = ConvergenceValve(ct, window=2, tolerance=0.01)
        for value in (10.0, 5.0, 5.0, 5.0):
            ct.track_min(value)
        assert valve.check()

    def test_max_mode(self):
        ct = Count("score")
        valve = ConvergenceValve(ct, window=2, tolerance=0.01, mode="max")
        for value in (1.0, 9.0, 9.0, 9.0):
            ct.track_max(value)
        assert valve.check()

    def test_bad_window_rejected(self):
        with pytest.raises(ValveError):
            ConvergenceValve(Count("c"), window=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValveError):
            ConvergenceValve(Count("c"), mode="sideways")

    def test_tighten_widens_window(self):
        valve = ConvergenceValve(Count("c"), window=4)
        valve.tighten(0.5)
        assert valve.window > 4
        valve.relax_to_base()
        assert valve.window == 4


class TestStabilityValve:
    def test_satisfied_after_stable_rounds(self):
        changed = Count("changed")
        valve = StabilityValve(changed, total=100, epsilon=0.02, rounds=2)
        changed.set(50)
        changed.set(1)
        assert not valve.check()  # only one stable round
        changed.set(2)
        assert valve.check()      # two consecutive rounds <= 2%

    def test_unstable_round_resets(self):
        changed = Count("changed")
        valve = StabilityValve(changed, total=100, epsilon=0.02, rounds=2)
        changed.set(1)
        changed.set(30)
        changed.set(1)
        assert not valve.check()

    def test_validation(self):
        with pytest.raises(ValveError):
            StabilityValve(Count("c"), total=0)
        with pytest.raises(ValveError):
            StabilityValve(Count("c"), total=10, rounds=0)

    def test_tighten_requires_more_rounds(self):
        valve = StabilityValve(Count("c"), total=10, rounds=2)
        valve.tighten(0.5)
        assert valve.rounds > 2


def _converge(ct):
    # Floor 3: opens on the third update of a flat score.
    return ConvergenceValve(ct, window=2, tolerance=1.0, name="converge")


def _converge_init(valve, ct):
    valve.init(ct, window=2, tolerance=1.0)


def _stability(ct):
    return StabilityValve(ct, total=10, epsilon=1.0, rounds=3)


def _stability_init(valve, ct):
    valve.init(ct, 10, epsilon=1.0, rounds=3)


#: The valves that keep a count's history: (make, re-init), both opening
#: on the third update.
HISTORY_VALVES = {"convergence": (_converge, _converge_init),
                  "stability": (_stability, _stability_init)}


class TestHistoryValveInit:
    """``init`` re-runs construction: the valve hears its current count
    exactly once and no earlier count (each update lands in the history
    once, so the valve opens after the updates it declared)."""

    @pytest.mark.parametrize("kind", sorted(HISTORY_VALVES))
    def test_double_init_keeps_one_subscription(self, kind):
        make, init = HISTORY_VALVES[kind]
        ct = Count("ct")
        valve = make(ct)
        init(valve, ct)
        init(valve, ct)
        assert len(ct._subscribers) == 1
        ct.set(1)
        ct.set(1)
        assert len(valve._history) == 2
        assert not valve.check()
        ct.set(1)
        assert valve.check()

    @pytest.mark.parametrize("kind", sorted(HISTORY_VALVES))
    def test_reinit_onto_a_new_count_forgets_the_old_one(self, kind):
        make, init = HISTORY_VALVES[kind]
        old, new = Count("old"), Count("new")
        valve = make(old)
        old.set(1)
        init(valve, new)
        assert old._subscribers == [] and len(new._subscribers) == 1
        assert valve.watched_counts == (new,)
        for _ in range(5):
            old.set(1)
        assert valve._history == []
        for _ in range(3):
            new.set(1)
        assert valve.check()

    @pytest.mark.parametrize("kind", sorted(HISTORY_VALVES))
    def test_declared_then_init_subscribes_once(self, kind):
        make, init = HISTORY_VALVES[kind]
        ct = Count("ct")
        valve = type(make(Count("scratch"))).declared("v")
        init(valve, ct)
        assert len(ct._subscribers) == 1


class TestFloors:
    """``Valve.shut``: a necessary condition for opening, read live."""

    def test_count_valve_is_shut_below_its_live_threshold(self):
        ct = Count("ct")
        valve = PercentValve(ct, fraction=0.5, total=10)
        ct.add(4)
        assert valve.shut() and not valve.check()
        ct.add(1)
        assert not valve.shut() and valve.check()
        valve.tighten(1.0)
        assert valve.shut() and not valve.check()

    def test_convergence_floor_is_its_observation_floor(self):
        ct = Count("score")
        valve = ConvergenceValve(ct, window=2, tolerance=1.0,
                                 min_updates=5)
        for _ in range(4):
            ct.set(1.0)
            assert valve.shut() and not valve.check()
        ct.set(1.0)
        assert not valve.shut() and valve.check()
        valve.tighten(1.0)                 # window 16: floor 17
        assert valve.shut() and not valve.check()

    @pytest.mark.parametrize("valve", [
        AlwaysValve(), NeverValve(), PredicateValve(lambda: True),
        DataFinalValve(FluidData("d", 0)),
        StabilityValve(Count("c"), total=10)],
        ids=lambda valve: type(valve).__name__)
    def test_opaque_and_stability_valves_state_no_floor(self, valve):
        assert valve.shut is None


class TestOtherValves:
    def test_always(self):
        assert AlwaysValve().check()

    def test_never(self):
        assert not NeverValve().check()

    def test_predicate(self):
        flag = {"on": False}
        valve = PredicateValve(lambda: flag["on"])
        assert not valve.check()
        flag["on"] = True
        assert valve.check()

    def test_predicate_watches(self):
        ct = Count("ct")
        valve = PredicateValve(lambda: True, watches=[ct])
        assert valve.watched_counts == (ct,)

    def test_data_final_valve(self):
        d = FluidData("d", 0)
        valve = DataFinalValve(d)
        assert not valve.check()
        d.mark_final(precise=True)
        assert valve.check()


def _body(ctx):
    yield 1.0


class TestEveryCheckEvaluates:
    """A valve caches no verdict: every ``check()`` evaluates the state
    it reads now and counts one check, and a task tallies every verdict
    of a non-empty valve set."""

    @pytest.mark.parametrize("make", [
        lambda: DataFinalValve(FluidData("d", [0, 0])),
        lambda: ConvergenceValve(Count("score"), window=2),
        lambda: StabilityValve(Count("changed"), total=100, rounds=2),
    ], ids=["data_final", "convergence", "stability"])
    def test_repeat_check_on_unchanged_state_is_evaluated_and_tallied(
            self, make):
        valve = make()
        task = FluidTask(TaskSpec("t", _body, start_valves=[valve]))
        assert not task.start_valves_satisfied()
        assert not task.start_valves_satisfied()
        assert valve.checks == 2
        assert task.stats.valve_fails["start"] == 2

    def test_empty_valve_set_passes_untallied(self):
        task = FluidTask(TaskSpec("t", _body))
        assert task.start_valves_satisfied()
        assert task.stats.valve_passes["start"] == 0

    def test_count_update_changes_verdict(self):
        """Count valves read the live value and threshold on every call,
        whatever moved them: an update, modulation, ``set_k`` or a
        state installed from another process."""
        ct = Count("ct")
        valve = StalenessValve(ct, expected=10, k=4)   # threshold 6
        assert not valve.check()
        assert not valve.check()
        ct.add(6)
        assert valve.check()
        valve.tighten(1.0)                 # threshold 10
        assert not valve.check()
        valve.relax_to_base()              # threshold 6
        assert valve.check()
        valve.set_k(1)                     # threshold 9
        assert not valve.check()
        ct.install_state(9, 3)
        assert valve.check()
        ct.install_state(2, 1)
        assert not valve.check()
        assert valve.checks == 8

    def test_tighten_changes_verdict(self):
        ct = Count("ct")
        ct.add(5)
        valve = CountValve(ct, threshold=4, max_threshold=10)
        assert valve.check()
        valve.tighten(1.0)                 # threshold now 10
        assert not valve.check()
        assert valve.checks == 2

    def test_relax_changes_verdict(self):
        ct = Count("ct")
        ct.add(5)
        valve = CountValve(ct, threshold=4, max_threshold=10)
        valve.tighten(1.0)
        assert not valve.check()
        valve.relax_to_base()
        assert valve.check()

    def test_count_reset_changes_verdict(self):
        ct = Count("ct")
        valve = CountValve(ct, threshold=1)
        assert not valve.check()
        ct.add(1)
        assert valve.check()
        ct.reset()
        assert not valve.check()

    def test_predicate_evaluated_on_every_check(self):
        calls = {"n": 0}

        def pred():
            calls["n"] += 1
            return True

        valve = PredicateValve(pred)
        valve.check()
        valve.check()
        assert calls["n"] == 2
        assert valve.checks == 2

    def test_data_final_valve_follows_finality(self):
        d = FluidData("d", [0, 0])
        valve = DataFinalValve(d)
        assert not valve.check()
        d.write([1, 1])
        assert not valve.check()
        d.mark_final(precise=True)
        assert valve.check()
        assert valve.checks == 3

    def test_convergence_history_growth_changes_verdict(self):
        ct = Count("score")
        valve = ConvergenceValve(ct, window=2, min_updates=1)
        assert not valve.check()
        for value in (10.0, 10.0, 10.0):
            ct.set(value)
        assert valve.check()

    def test_stability_history_growth_changes_verdict(self):
        ct = Count("changed")
        valve = StabilityValve(ct, total=100, epsilon=0.01, rounds=2)
        assert not valve.check()
        ct.set(0)
        ct.set(0)
        assert valve.check()


class TestDeclaredFailFast:
    def test_check_before_init_raises(self):
        valve = CountValve.declared("v1")
        with pytest.raises(ValveError, match="before init"):
            valve.check()

    def test_tighten_before_init_raises(self):
        valve = CountValve.declared("v1")
        with pytest.raises(ValveError, match="before init"):
            valve.tighten(0.5)

    def test_relax_before_init_raises(self):
        valve = CountValve.declared("v1")
        with pytest.raises(ValveError, match="before init"):
            valve.relax_to_base()

    def test_data_final_declared_fail_fast(self):
        valve = DataFinalValve.declared("v2")
        with pytest.raises(ValveError, match="before init"):
            valve.check()
        valve.init(FluidData("d", 0))
        assert not valve.check()

    def test_init_enables_full_lifecycle(self):
        ct = Count("ct")
        ct.add(3)
        valve = CountValve.declared("v1").init(ct, 2, max_threshold=5)
        assert valve.check()
        valve.tighten(1.0)
        valve.relax_to_base()
        assert valve.check()
