"""SchedLab self-tests: policies, replay, shrinking, faults, mutations.

The acceptance bar for the harness itself (ISSUE): a deliberately
planted ordering bug is found by a seed sweep and shrunk to a minimal
replayable schedule; removing a guard wake-up seam (mutation testing)
is caught within 200 seeds; every fault-injection kind demonstrably
fires; and a serialized artifact replays deterministically from disk.
"""

import json

import pytest

from repro.schedlab import (ExhaustivePolicy, Fault, FaultPlan,
                            FifoPolicy, InvariantChecker, MUTATIONS,
                            PCTPolicy, RecordingPolicy, ReplayPolicy,
                            SeededRandomPolicy, run_scenario,
                            shrink_schedule, sweep)
from repro.schedlab.harness import (load_artifact, replay_artifact,
                                    shrink_outcome, write_artifact)
from repro.schedlab.scenarios import SCENARIOS, default_scenarios
from repro.telemetry import Telemetry, TelemetryEvent


def _trace_signature(trace):
    """Schedule-sensitive trace fingerprint, region names excluded
    (K-means region names embed ``id()`` and vary between runs)."""
    return [(event.time, event.task, event.event, event.detail)
            for event in trace.events]


# ---------------------------------------------------------------- policies


class TestPolicies:
    def test_fifo_policy_always_picks_zero(self):
        policy = FifoPolicy()
        assert policy.choose("event", ["a", "b", "c"]) == 0
        assert policy.order("signal", ["a", "b", "c"]) == [0, 1, 2]

    def test_seeded_random_policy_is_reproducible(self):
        first = SeededRandomPolicy(7)
        second = SeededRandomPolicy(7)
        keys = ["a", "b", "c", "d"]
        assert [first.choose("event", keys) for _ in range(20)] == \
               [second.choose("event", keys) for _ in range(20)]

    def test_seeded_random_begin_run_resets_the_stream(self):
        policy = SeededRandomPolicy(3)
        keys = ["a", "b", "c"]
        stream = [policy.choose("event", keys) for _ in range(10)]
        policy.begin_run()
        assert [policy.choose("event", keys) for _ in range(10)] == stream

    def test_order_is_a_permutation(self):
        policy = SeededRandomPolicy(11)
        keys = list("abcdef")
        permutation = policy.order("wake", keys)
        assert sorted(permutation) == list(range(len(keys)))

    def test_pct_policy_is_reproducible_and_in_range(self):
        keys = ["a", "b", "c"]
        runs = []
        for _ in range(2):
            policy = PCTPolicy(seed=5, depth=3)
            runs.append([policy.choose("event", keys) for _ in range(30)])
        assert runs[0] == runs[1]
        assert all(0 <= choice < 3 for choice in runs[0])

    def test_exhaustive_policy_enumerates_all_combinations(self):
        policy = ExhaustivePolicy(depth=3)
        seen = set()
        while True:
            policy.begin_run()
            seen.add(tuple(policy.choose("event", ["a", "b"])
                           for _ in range(3)))
            if not policy.advance():
                break
        assert seen == {(a, b, c) for a in (0, 1)
                        for b in (0, 1) for c in (0, 1)}

    def test_recording_and_replay_round_trip(self):
        recorder = RecordingPolicy(SeededRandomPolicy(9))
        recorder.begin_run()
        keys = ["a", "b", "c"]
        choices = [recorder.choose("event", keys) for _ in range(15)]
        replay = ReplayPolicy(recorder.decisions)
        assert [replay.choose("event", keys) for _ in range(15)] == choices
        assert replay.divergences == 0
        # A dry replay degrades to FIFO rather than failing.
        assert replay.choose("event", keys) == 0

    def test_replay_clamps_out_of_range_choices(self):
        replay = ReplayPolicy([("event", 5, 4)])
        assert replay.choose("event", ["a", "b"]) == 0
        assert replay.divergences >= 1


# ------------------------------------------------------ replay determinism


class TestReplayDeterminism:
    def test_same_seed_same_trace(self):
        traces = [run_scenario("pipeline", policy=SeededRandomPolicy(4),
                               trace=True).trace for _ in range(2)]
        assert _trace_signature(traces[0]) == _trace_signature(traces[1])

    def test_recorded_schedule_replays_to_identical_trace(self):
        recorded = run_scenario("diamond", policy=SeededRandomPolicy(6),
                                trace=True)
        assert recorded.ok
        replayed = run_scenario("diamond",
                                policy=ReplayPolicy(recorded.decisions),
                                trace=True)
        assert replayed.ok
        assert _trace_signature(replayed.trace) == \
            _trace_signature(recorded.trace)
        assert replayed.makespan == recorded.makespan

    @pytest.mark.parametrize("backend", ["sim", "thread", "process"])
    def test_every_backend_returns_its_trace(self, backend):
        """``replay --trace`` prints the run's trace on the wall-clock
        drivers too: it is the run's telemetry trace, not a field only
        the simulator's result carries."""
        outcome = run_scenario("diamond", backend=backend, trace=True)
        assert outcome.ok
        names = [event.event for event in outcome.trace.events]
        assert "run" in names and "region-done" in names

    def test_replay_reproduces_a_failure(self):
        # Seed 1 is a known racy-scenario failure (see RacyScenario).
        failing = run_scenario("racy", policy=SeededRandomPolicy(1), seed=1)
        assert failing.failure == "task-body-error:RacyOrderingBug"
        replayed = run_scenario("racy",
                                policy=ReplayPolicy(failing.decisions))
        assert replayed.failure == failing.failure
        assert replayed.divergences == 0


# ------------------------------------------------------------- the shrinker


class TestShrinker:
    def test_shrinker_converges_on_the_racy_ordering_bug(self):
        failing = run_scenario("racy", policy=SeededRandomPolicy(1), seed=1)
        assert failing.failure == "task-body-error:RacyOrderingBug"
        minimized, checks = shrink_outcome(failing)
        # The planted bug needs only a couple of ordering constraints;
        # the shrunk schedule must be strictly smaller and still fail.
        assert 0 < len(minimized) < len(failing.decisions)
        assert sum(1 for _p, _n, choice in minimized if choice != 0) <= 2
        assert checks <= 64
        replayed = run_scenario("racy", policy=ReplayPolicy(minimized))
        assert replayed.failure == failing.failure

    def test_shrink_schedule_prefers_prefixes_and_zeros(self):
        decisions = [("event", 2, 1)] * 8

        def still_fails(candidate):
            # "Fails" iff the 3rd decision is non-default: everything
            # after it and every other non-default entry is noise.
            candidate = list(candidate)
            return len(candidate) >= 3 and candidate[2][2] == 1

        minimized, _checks = shrink_schedule(decisions, still_fails)
        assert minimized == [("event", 2, 0), ("event", 2, 0),
                             ("event", 2, 1)]

    def test_shrink_schedule_keeps_original_when_nothing_shrinks(self):
        decisions = [("event", 2, 1), ("event", 2, 1)]

        def still_fails(candidate):
            return list(candidate) == decisions

        minimized, _checks = shrink_schedule(decisions, still_fails)
        assert minimized == decisions


# ------------------------------------------------------------ fault plans


class TestFaultPlans:
    def test_raise_fault_fires_and_classifies(self):
        outcome = run_scenario("pipeline", faults=[
            {"kind": "raise", "task": "consume", "at_chunk": 3}])
        assert outcome.failure == "fault-injected"
        assert outcome.fault_kinds == ["raise"]

    @pytest.mark.parametrize("backend", ["sim", "thread"])
    def test_a_failed_run_keeps_its_trace(self, backend):
        """The run a replay exists to explain is the failing one."""
        outcome = run_scenario("pipeline", backend=backend, trace=True,
                               faults=[{"kind": "raise", "task": "consume",
                                        "count": 1}])
        assert outcome.failure == "fault-injected"
        assert len(outcome.trace) > 0
        assert outcome.trace.count("failed", task="consume") == 1

    def test_delay_fault_stretches_virtual_time(self):
        baseline = run_scenario("pipeline")
        delayed = run_scenario("pipeline", faults=[
            {"kind": "delay", "task": "produce", "cost": 50.0,
             "at_chunk": 2}])
        assert delayed.ok
        assert delayed.fault_kinds == ["delay"]
        assert delayed.makespan > baseline.makespan

    def test_valve_faults_fire_and_stay_transient(self):
        for kind, valve in (("valve_true", "start"),
                            ("valve_false", "end")):
            outcome = run_scenario("pipeline", faults=[
                {"kind": kind, "task": "consume", "valve": valve,
                 "count": 1}])
            assert outcome.ok, outcome.message
            assert outcome.fault_kinds == [kind]

    def test_kill_worker_fault_is_detected_by_the_parent(self):
        # Detected, respawned, reinstalled from the scenario's factory
        # and re-dispatched: the run still completes.
        telemetry = Telemetry()
        outcome = run_scenario(
            "pipeline", backend="process", timeout=20.0,
            telemetry=telemetry,
            faults=[{"kind": "kill_worker", "task": "produce"}])
        assert outcome.ok, outcome.message
        assert outcome.fault_kinds == ["kill_worker"]
        assert telemetry.metrics.counters["process.worker_respawns"] >= 1

    def test_body_faults_fire_in_process_workers(self):
        # The worker's copy of the region carries the run's fault plan.
        outcome = run_scenario("pipeline", backend="process", timeout=20.0,
                               faults=[{"kind": "raise", "task": "consume",
                                        "at_chunk": 3}])
        assert outcome.failure.startswith("task-body-error")
        assert "FaultInjected" in outcome.message
        delayed = run_scenario("pipeline", backend="process", timeout=20.0,
                               faults=[{"kind": "delay", "task": "produce",
                                        "wall": 0.3, "at_chunk": 2}])
        assert delayed.ok, delayed.message
        assert delayed.makespan >= 0.3

    def test_a_workers_installs_share_one_scenario_build(self, monkeypatch):
        # The R region factories of one run rebuild the scenario once;
        # asking for an index again (the next install) builds anew.
        from repro.schedlab import harness

        scenario = SCENARIOS["kmeans"]
        builds = []

        class Counting:
            def fresh(self, strict=False):
                builds.append(strict)
                return scenario.fresh(strict=strict)

        monkeypatch.setitem(SCENARIOS, "kmeans", Counting())
        first = [harness.rebuild("kmeans", False, index, [])
                 for index in range(2)]
        assert len(builds) == 1 and first[0] is not first[1]
        again = harness.rebuild("kmeans", False, 0, [])
        assert len(builds) == 2 and again is not first[0]

    def test_every_fault_kind_has_coverage_above(self):
        # Guard against KINDS growing without a firing test: the four
        # sim-visible kinds plus kill_worker are each exercised by a
        # test in this class.
        from repro.schedlab.faults import KINDS

        assert set(KINDS) == {"raise", "delay", "valve_false",
                              "valve_true", "kill_worker"}

    def test_fault_plan_serialization_round_trip(self):
        plan = FaultPlan([Fault("raise", task="consume", at_chunk=3),
                          Fault("delay", cost=2.5, wall=0.0)])
        rebuilt = FaultPlan.from_list(plan.to_list())
        assert rebuilt.to_list() == plan.to_list()

    def test_every_chunk_fault_round_trips_through_json(self):
        plan = FaultPlan([Fault("delay", task="work", at_chunk=None,
                                count=4, cost=1.5)])
        rebuilt = FaultPlan.from_list(json.loads(json.dumps(plan.to_list())))
        assert rebuilt.faults[0].at_chunk is None
        assert rebuilt.to_list() == plan.to_list()

    def test_every_chunk_cli_shorthand(self):
        from repro.schedlab.__main__ import _parse_fault

        assert _parse_fault("delay:work:*:4") == {
            "kind": "delay", "task": "work", "at_chunk": None, "count": 4,
            "cost": 5.0}
        assert _parse_fault("raise:work:2")["at_chunk"] == 2

    @pytest.mark.parametrize("at_chunk, count, fired", [
        (None, 8, 6), (None, 2, 2), (0, 1, 1), (2, 1, 1), (9, 1, 1)])
    def test_delay_at_every_chunk_adds_its_cost_per_chunk(
            self, at_chunk, count, fired):
        """A delay of cost c fires at every chunk boundary of a
        six-chunk body (bounded by ``count``) and adds fired x c to its
        RUNNING residence; a fixed ``at_chunk`` fires once, and one
        past the last chunk fires at the body's end, adding nothing."""
        from repro.core.region import FluidRegion
        from repro.core.states import TaskState
        from repro.runtime import SimExecutor
        from repro.runtime.simulator import Overheads

        def running(plan):
            region = FluidRegion("chunks")
            out = region.add_data("out")

            def body(ctx):
                for _chunk in range(6):
                    yield 1.0
                out.write(1)

            region.add_task("work", body, outputs=[out])
            region.fault_plan = plan
            executor = SimExecutor(cores=1, overheads=Overheads.zero())
            executor.submit(region)
            executor.run()
            return region.tasks[0].stats.time[TaskState.RUNNING]

        plan = FaultPlan([Fault("delay", task="work", at_chunk=at_chunk,
                                count=count, cost=2.5)])
        added = running(plan) - running(None)
        assert len(plan.fired) == fired
        assert added == (0.0 if at_chunk == 9 else fired * 2.5)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(Exception, match="unknown fault kind"):
            Fault("explode")

    def test_fault_budget_is_per_run(self):
        # The same serialized plan fires in two consecutive runs: each
        # run_scenario call rebuilds a fresh FaultPlan.
        records = [{"kind": "raise", "task": "consume", "count": 1}]
        for _ in range(2):
            outcome = run_scenario("pipeline", faults=records)
            assert outcome.failure == "fault-injected"


# -------------------------------------------------------- mutation testing


class TestMutationAcceptance:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_caught_within_200_seeds(self, mutation, tmp_path):
        report = sweep(seeds=200, policy_name="random", backend="sim",
                       mutation=mutation, stop_first=True,
                       artifact_dir=str(tmp_path))
        assert report.failures, \
            f"mutation {mutation} survived 200 seeds undetected"
        assert report.runs <= 200 * len(default_scenarios("sim"))
        # The minimized schedule replays deterministically from its
        # serialized artifact file.
        assert report.artifacts
        artifact = load_artifact(report.artifacts[0])
        first = replay_artifact(report.artifacts[0])
        second = replay_artifact(report.artifacts[0])
        assert first.failure == artifact["failure"]
        assert second.failure == first.failure
        assert second.message == first.message

    def test_forced_staleness_violation_caught_within_200_seeds(self):
        """Mutation-style acceptance for the streaming audits: force the
        staleness start valve of the aggregate stage open (a
        ``valve_true`` fault — the stage drains before its input queue
        has settled to within k) and the invariant checker must record a
        staleness violation within the 200-seed budget."""
        report = sweep(["stream"], seeds=200, policy_name="random",
                       backend="sim", stop_first=True, shrink=False,
                       faults=[{"kind": "valve_true", "task": "aggregate",
                                "valve": "start", "count": 3}])
        assert report.failures, \
            "forced-open staleness valve survived 200 seeds undetected"
        caught = report.failures[0]
        assert caught.failure == "invariant"
        assert "staleness" in caught.message
        assert report.runs <= 200

    def test_stream_must_catch_cli_fails_within_5_seeds(self, capsys):
        """The CI must-catch step at 5 seeds: a forced-open staleness
        valve must fail the sweep.  Only ``stream`` events carry the
        staleness audit, so this fails if the checker stops hearing
        them (say, subscribed without ``stream``)."""
        from repro.schedlab.__main__ import main

        code = main(["sweep", "--seeds", "5", "--backend", "sim",
                     "--scenarios", "stream", "--fault", "valve_true",
                     "--no-shrink"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[staleness]" in out

    def test_stream_scenario_is_clean_without_faults(self):
        # The converse of the acceptance test above: with honest valves
        # the streaming audits stay silent, relaxed and strict alike.
        for strict in (False, True):
            outcome = run_scenario("stream", backend="sim", strict=strict,
                                   seed=0)
            assert outcome.ok, outcome.message

    def test_mutations_patch_and_restore_the_coordinator(self):
        from repro.core.guard import Coordinator
        from repro.schedlab.harness import apply_mutation

        originals = {name: getattr(Coordinator, attr)
                     for name, attr in MUTATIONS.items()}
        for name, attr in MUTATIONS.items():
            with apply_mutation(name):
                assert getattr(Coordinator, attr) is not originals[name]
            assert getattr(Coordinator, attr) is originals[name]


# ------------------------------------------- the checker is a subscriber


def _audited_run(scenario, **options):
    """Run ``scenario`` with a recording subscriber and a second live
    checker beside the one ``run_scenario`` connects itself."""
    telemetry = Telemetry(metrics=False, chrome=False)
    recorded = []
    telemetry.bus.subscribe(recorded.append)
    live = InvariantChecker().connect(telemetry.bus)
    subscribers = list(telemetry.bus._subscribers)
    outcome = run_scenario(scenario, telemetry=telemetry, **options)
    # The caller's Telemetry outlives the run; the run's checker left.
    assert telemetry.bus._subscribers == subscribers
    return outcome, live, recorded


def _offline(recorded):
    checker = InvariantChecker()
    for event in recorded:
        checker.on_event(event)
    checker.check_completion()
    return checker


class TestCheckerOverEvents:
    def test_a_recorded_faulty_trace_audits_like_the_live_run(self):
        outcome, live, recorded = _audited_run(
            "stream", seed=0,
            faults=[{"kind": "valve_true", "task": "aggregate",
                     "valve": "start", "count": 3}])
        assert outcome.failure == "invariant"
        offline = _offline(recorded)
        live.check_completion()
        assert any(v.kind == "staleness" for v in offline.violations)
        assert [str(v) for v in offline.violations] == outcome.violations
        assert [str(v) for v in live.violations] == outcome.violations

    def test_a_recorded_clean_trace_audits_clean(self):
        outcome, live, recorded = _audited_run(
            "pipeline", policy=SeededRandomPolicy(5), seed=5)
        assert outcome.ok, outcome.message
        offline = _offline(recorded)
        assert offline.ok and offline.transitions
        assert offline.transitions == live.transitions
        assert offline.summary() == live.summary()

    def test_two_live_checkers_hear_only_their_own_run(self):
        first_bus, second_bus = Telemetry(metrics=False, chrome=False), \
            Telemetry(metrics=False, chrome=False)
        first = InvariantChecker().connect(first_bus.bus)
        assert run_scenario("pipeline", telemetry=first_bus).ok
        heard = list(first.transitions)
        # ``first`` is still connected while a second run is audited.
        second = InvariantChecker().connect(second_bus.bus)
        assert run_scenario("diamond", telemetry=second_bus).ok
        assert first.transitions == heard
        assert {name for name, _s, _d in first.transitions} == \
            {"produce", "consume"}
        assert {name for name, _s, _d in second.transitions} == \
            {"root", "left", "right", "join"}

    def test_a_double_completion_is_reported_once(self):
        checker = InvariantChecker()
        complete = TelemetryEvent(1.0, "transition", "r", "t", "COMPLETE",
                                  {"src": "END_CHECK", "run": 0})
        checker.on_event(complete)
        checker.on_event(complete._replace(ts=2.0))
        checker.check_completion()
        assert [v.kind for v in checker.violations] == \
            ["multiple-completion"]

    def test_identity_is_region_and_task(self):
        """Same task name in two regions: two tasks, one completion
        each; a task that never completes is still reported."""
        checker = InvariantChecker()
        for region in ("a", "b"):
            checker.on_event(TelemetryEvent(
                0.0, "transition", region, "t", "COMPLETE",
                {"src": "INIT", "run": 0}))
        checker.on_event(TelemetryEvent(
            0.0, "transition", "b", "u", "START_CHECK",
            {"src": "INIT", "run": 0}))
        assert [(v.kind, v.task) for v in checker.check_completion()] == \
            [("incomplete-task", "u")]


# ----------------------------------------------------- sweeps + artifacts


class TestSweepAndArtifacts:
    def test_default_sim_sweep_is_clean(self):
        report = sweep(seeds=3, policy_name="random", backend="sim",
                       strict=True)
        assert report.ok
        assert report.runs == 3 * len(default_scenarios("sim"))

    def test_sweep_finds_and_shrinks_the_racy_bug(self, tmp_path):
        report = sweep(["racy"], seeds=20, policy_name="random",
                       backend="sim", artifact_dir=str(tmp_path),
                       stop_first=True)
        assert report.failures
        assert report.artifacts
        record = load_artifact(report.artifacts[0])
        assert record["failure"] == "task-body-error:RacyOrderingBug"
        replayed = replay_artifact(report.artifacts[0])
        assert replayed.failure == record["failure"]

    def test_replay_cli_writes_telemetry_artifacts(self, tmp_path, capsys):
        from repro.schedlab.__main__ import main as schedlab_main
        report = sweep(["racy"], seeds=20, policy_name="random",
                       backend="sim", artifact_dir=str(tmp_path),
                       stop_first=True)
        assert report.artifacts
        trace = tmp_path / "replay.perfetto.json"
        metrics = tmp_path / "replay.metrics.json"
        assert schedlab_main(["replay", report.artifacts[0],
                              "--trace-out", str(trace),
                              "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out and "wrote metrics" in out
        doc = json.loads(trace.read_text())
        assert "traceEvents" in doc
        dump = json.loads(metrics.read_text())
        assert dump["counters"]["tasks.runs"] > 0

    def test_artifact_file_shape(self, tmp_path):
        failing = run_scenario("racy", policy=SeededRandomPolicy(1),
                               seed=1)
        path = write_artifact(str(tmp_path), failing)
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["version"] == 1
        assert record["scenario"] == "racy"
        assert record["backend"] == "sim"
        assert record["seed"] == 1
        assert "scheduler" not in record
        assert all(len(decision) == 3 for decision in record["decisions"])

    @pytest.mark.parametrize("scheduler", [None, "fcfs", "edf",
                                           "work-stealing"])
    def test_replay_refuses_an_artifact_of_another_discipline(
            self, tmp_path, capsys, scheduler):
        """An artifact written when the drivers could run other
        disciplines replays only if it ran FCFS; any other ``scheduler``
        is a one-line error naming the field, not a silent FCFS run."""
        from repro.schedlab.__main__ import main

        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "version": 1, "scenario": "pipeline", "backend": "sim",
            "strict": False, "mutation": None, "seed": 0,
            "scheduler": scheduler, "autotune": None,
            "policy": {"policy": "fifo"}, "failure": None, "message": "",
            "faults": [], "decisions": []}), encoding="utf-8")
        code = main(["replay", str(path)])
        out, err = capsys.readouterr()
        if scheduler in (None, "fcfs"):
            assert code == 0 and "reproduced: clean run" in out
            return
        assert code == 3
        assert err.count("\n") == 1
        assert "'scheduler'" in err and repr(scheduler) in err

    def test_thread_backend_sweep_smoke(self):
        report = sweep(["pipeline", "diamond"], seeds=2,
                       policy_name="random", backend="thread",
                       jitter_scale=0.001, timeout=30.0)
        assert report.ok, [o.message for o in report.failures]

    def test_racy_scenario_is_not_in_default_sweeps(self):
        assert "racy" not in default_scenarios("sim")
        assert SCENARIOS["racy"].backends == ("sim",)

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.schedlab.__main__ import main

        assert main(["list"]) == 0
        assert main(["sweep", "--scenarios", "pipeline", "--seeds", "2"]) \
            == 0
        code = main(["sweep", "--scenarios", "racy", "--seeds", "8",
                     "--stop-first", "--artifact-dir", str(tmp_path)])
        assert code == 1
        artifacts = list(tmp_path.glob("*.json"))
        assert artifacts
        assert main(["replay", str(artifacts[0])]) == 0
        capsys.readouterr()
