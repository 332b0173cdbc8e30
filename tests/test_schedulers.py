"""Unit tests for the pluggable scheduler seam (repro.sched).

Covers spec parsing, every discipline's ordering contract, the
work-stealing and bounded-admission decision telemetry (including the
shed-must-be-observable regression test), and the end-of-run metrics
fold via Telemetry.record_scheduler.
"""

import json
import pathlib
import random

import pytest

from repro.core.errors import SchedulerError
from repro.sched import (BoundedScheduler, EdfScheduler, FcfsScheduler,
                         PriorityScheduler, SCHEDULER_NAMES,
                         ShortestWorkScheduler, WorkStealingScheduler,
                         make_scheduler)
from repro.telemetry import Telemetry


class Synth:
    """Minimal task duck: its own spec, like a service request."""

    def __init__(self, name, priority=None, deadline=None,
                 cost_estimate=None):
        self.name = name
        self.priority = priority
        self.deadline = deadline
        self.cost_estimate = cost_estimate

    def __repr__(self):
        return f"Synth({self.name})"


def drain(scheduler, now=0.0):
    order = []
    while scheduler.pending():
        task = scheduler.pick(now=now)
        if task is None:
            break
        order.append(task.name)
    return order


def instrumented():
    """A Telemetry plus a raw capture of every bus event."""
    telemetry = Telemetry(chrome=False)
    events = []
    telemetry.bus.subscribe(events.append)
    return telemetry, events


# ------------------------------------------------------------- make_scheduler


def test_make_scheduler_default_is_fcfs():
    assert isinstance(make_scheduler(None), FcfsScheduler)


def test_make_scheduler_passes_instances_through():
    scheduler = EdfScheduler()
    assert make_scheduler(scheduler) is scheduler


def test_make_scheduler_by_name():
    assert isinstance(make_scheduler("fcfs"), FcfsScheduler)
    assert isinstance(make_scheduler("priority"), PriorityScheduler)
    assert isinstance(make_scheduler("edf"), EdfScheduler)
    assert isinstance(make_scheduler("sew"), ShortestWorkScheduler)
    assert isinstance(make_scheduler("shortest-work"), ShortestWorkScheduler)
    assert isinstance(make_scheduler("work-stealing"), WorkStealingScheduler)
    assert isinstance(make_scheduler("bounded"), BoundedScheduler)


def test_make_scheduler_options():
    bounded = make_scheduler("bounded:capacity=3,inner=edf")
    assert bounded.capacity == 3
    assert isinstance(bounded.inner, EdfScheduler)
    stealing = make_scheduler("work-stealing:workers=5").bind()
    assert len(stealing._queues) == 5


def test_make_scheduler_rejects_unknown():
    with pytest.raises(SchedulerError, match="unknown scheduler"):
        make_scheduler("lottery")
    with pytest.raises(SchedulerError):
        make_scheduler("fcfs:capacity=2")
    with pytest.raises(SchedulerError):
        make_scheduler("bounded:capacity=nope")
    with pytest.raises(SchedulerError):
        make_scheduler("bounded:capacity=0")
    with pytest.raises(SchedulerError):
        make_scheduler("bounded:bogus=1")


def test_scheduler_names_all_constructible():
    for name in SCHEDULER_NAMES:
        scheduler = make_scheduler(name).bind(workers=2)
        task = Synth("x", priority=1.0, deadline=5.0, cost_estimate=2.0)
        assert scheduler.submit(task, now=0.0)
        assert scheduler.pick(now=1.0) is task


# ------------------------------------------------------------------ ordering


def test_fcfs_is_fifo():
    scheduler = FcfsScheduler().bind()
    for name in "abc":
        scheduler.submit(Synth(name))
    assert drain(scheduler) == ["a", "b", "c"]


def test_priority_highest_first_fifo_ties():
    scheduler = PriorityScheduler().bind()
    scheduler.submit(Synth("low", priority=1.0))
    scheduler.submit(Synth("hi", priority=9.0))
    scheduler.submit(Synth("mid1", priority=5.0))
    scheduler.submit(Synth("mid2", priority=5.0))
    scheduler.submit(Synth("none"))  # default priority 0.0, runs last
    assert drain(scheduler) == ["hi", "mid1", "mid2", "low", "none"]


def test_edf_earliest_deadline_first_missing_deadlines_last():
    scheduler = EdfScheduler().bind()
    scheduler.submit(Synth("late", deadline=50.0))
    scheduler.submit(Synth("urgent", deadline=3.0))
    scheduler.submit(Synth("nodeadline"))
    scheduler.submit(Synth("soon", deadline=10.0))
    assert drain(scheduler) == ["urgent", "soon", "late", "nodeadline"]


def test_sew_shortest_estimate_first():
    scheduler = ShortestWorkScheduler().bind()
    scheduler.submit(Synth("big", cost_estimate=100.0))
    scheduler.submit(Synth("tiny", cost_estimate=1.0))
    scheduler.submit(Synth("unknown"))
    scheduler.submit(Synth("mid", cost_estimate=10.0))
    assert drain(scheduler) == ["tiny", "mid", "big", "unknown"]


def test_fluid_task_specs_carry_hints():
    from repro.core.region import FluidRegion

    region = FluidRegion("hints")

    def body(ctx):
        yield 1.0

    task = region.add_task("t", body, priority=2.0, deadline=7.5,
                           cost_estimate=3.0)
    assert task.spec.priority == 2.0
    scheduler = EdfScheduler().bind()
    scheduler.submit(task)
    scheduler.submit(Synth("later", deadline=9.0))
    assert drain(scheduler) == ["t", "later"]


# ------------------------------------------------------------- work stealing


def test_work_stealing_home_queue_then_steal():
    telemetry, events = instrumented()
    scheduler = WorkStealingScheduler().bind(workers=2, bus=telemetry.bus)
    # Round-robin admission: a,c -> worker 0; b,d -> worker 1.
    for name in "abcd":
        scheduler.submit(Synth(name))
    assert scheduler.pick(worker=0).name == "a"
    assert scheduler.pick(worker=1).name == "b"
    assert scheduler.pick(worker=1).name == "d"
    # Worker 1's deque is empty: it must steal worker 0's "c".
    stolen = scheduler.pick(worker=1)
    assert stolen.name == "c"
    assert scheduler.steals == 1
    steal_events = [e for e in events if e.name == "steal"]
    assert len(steal_events) == 1
    assert steal_events[0].task == "c"
    assert steal_events[0].data == {"victim": 0, "thief": 1}
    assert telemetry.metrics.counters["sched.steals"] == 1
    assert scheduler.pick(worker=0) is None


def test_work_stealing_anonymous_drain_counts_no_steals():
    scheduler = WorkStealingScheduler().bind(workers=3)
    for name in "abcde":
        scheduler.submit(Synth(name))
    drained = drain(scheduler)
    assert sorted(drained) == list("abcde")
    assert scheduler.steals == 0


# ---------------------------------------------------------- bounded admission


def test_bounded_sheds_sheddable_overflow_observably():
    """Regression: shedding must be visible — a False return, a counter,
    and a telemetry event — never a silent drop."""
    telemetry, events = instrumented()
    scheduler = make_scheduler("bounded:capacity=2").bind(bus=telemetry.bus)
    assert scheduler.submit(Synth("a"), now=0.0, sheddable=True)
    assert scheduler.submit(Synth("b"), now=0.0, sheddable=True)
    assert not scheduler.submit(Synth("c"), now=1.0, sheddable=True)
    assert scheduler.counters()["sheds"] == 1
    shed_events = [e for e in events if e.name == "shed"]
    assert len(shed_events) == 1
    assert shed_events[0].task == "c"
    assert shed_events[0].data == {"capacity": 2, "queued": 2}
    # The bus event lands in the metrics catalogue too.
    assert telemetry.metrics.counters["sched.tasks_shed"] == 1
    # Only a and b are ever served.
    assert drain(scheduler) == ["a", "b"]


def test_bounded_parks_mustrun_overflow_and_promotes():
    telemetry, events = instrumented()
    scheduler = make_scheduler("bounded:capacity=1").bind(bus=telemetry.bus)
    assert scheduler.submit(Synth("a"), now=0.0)
    assert scheduler.submit(Synth("b"), now=0.0)  # parked, not dropped
    assert scheduler.submit(Synth("c"), now=0.0)  # parked, not dropped
    assert scheduler.counters()["sheds"] == 0
    assert scheduler.counters()["deferrals"] == 2
    assert scheduler.pending() == 3
    assert drain(scheduler) == ["a", "b", "c"]
    defer_events = [e for e in events if e.name == "defer"]
    assert [e.task for e in defer_events] == ["b", "c"]
    assert telemetry.metrics.counters["sched.tasks_deferred"] == 2


def test_bounded_counters_merge_inner_picks():
    scheduler = make_scheduler("bounded:capacity=8,inner=priority").bind()
    for index in range(3):
        scheduler.submit(Synth(f"t{index}", priority=float(index)))
    assert drain(scheduler) == ["t2", "t1", "t0"]
    counters = scheduler.counters()
    assert counters["picks"] == 3
    assert counters["sheds"] == 0
    snapshot = scheduler.snapshot()
    assert snapshot["scheduler"] == "bounded"
    assert snapshot["inner"] == "priority"
    assert snapshot["capacity"] == 8


# ------------------------------------------------------- residence + metrics


def test_queue_residence_histogram_records_wait():
    scheduler = FcfsScheduler().bind()
    scheduler.submit(Synth("a"), now=0.0)
    scheduler.submit(Synth("b"), now=1.0)
    scheduler.pick(now=5.0)
    scheduler.pick(now=5.0)
    assert scheduler.residence.count == 2
    assert scheduler.residence.total == pytest.approx(9.0)  # 5.0 + 4.0
    assert scheduler.picks == 2


def test_record_scheduler_folds_into_metrics():
    telemetry = Telemetry(chrome=False)
    scheduler = FcfsScheduler().bind()
    for index in range(4):
        scheduler.submit(Synth(f"t{index}"), now=float(index))
    while scheduler.pending():
        scheduler.pick(now=10.0)
    telemetry.record_scheduler(scheduler)
    assert telemetry.metrics.counters["sched.picks"] == 4
    histogram = telemetry.metrics.histograms["sched.queue_residence"]
    assert histogram.count == 4
    assert histogram.total == pytest.approx(10.0 + 9.0 + 8.0 + 7.0)
    # No scheduler (the default executors pass None): a clean no-op.
    telemetry.record_scheduler(None)
    assert telemetry.metrics.counters["sched.picks"] == 4


def test_schedulers_compose_with_schedlab_policies():
    """A bound SchedulePolicy resolves FCFS's pick among the whole
    queue (the historical behaviour) and keyed ties only."""
    from repro.schedlab.policy import SeededRandomPolicy

    policy = SeededRandomPolicy(0)
    with_policy = FcfsScheduler().bind(policy=policy, point="core")
    for name in "abcd":
        with_policy.submit(Synth(name))
    chosen = drain(with_policy)
    assert sorted(chosen) == list("abcd")

    tie_policy = SeededRandomPolicy(0)
    keyed = PriorityScheduler().bind(policy=tie_policy, point="core")
    keyed.submit(Synth("hi", priority=9.0))
    keyed.submit(Synth("tie1", priority=1.0))
    keyed.submit(Synth("tie2", priority=1.0))
    order = drain(keyed)
    assert order[0] == "hi"  # the discipline itself is never perturbed
    assert sorted(order[1:]) == ["tie1", "tie2"]


KEYED_PICKS_PATH = (pathlib.Path(__file__).parent / "golden"
                    / "keyed_picks.json")


def synthesize(tasks, cores, rate, seed):
    """A deterministic open-arrival stream of hinted tasks: Poisson
    arrivals at ``rate * cores``, unit-mean exponential service, a
    random priority and a deadline 2-10 service times after arrival."""
    rng = random.Random(f"capacity:{seed}:{tasks}:{cores}:{rate!r}")
    stream = []
    now = 0.0
    for index in range(tasks):
        now += rng.expovariate(rate * cores)
        service = rng.expovariate(1.0)
        task = Synth(f"t{index}", priority=rng.random(),
                     deadline=now + service * rng.uniform(2.0, 10.0),
                     cost_estimate=service)
        task.arrival = now
        stream.append(task)
    return stream


def test_keyed_stream_is_deterministic():
    """The stream behind the keyed-picks golden depends only on its
    arguments, so the golden can only move with a scheduler change."""
    def fields(stream):
        return [(task.name, task.arrival, task.priority, task.deadline,
                 task.cost_estimate) for task in stream]

    first = synthesize(200, 4, 0.8, 7)
    assert fields(first) == fields(synthesize(200, 4, 0.8, 7))
    assert [task.arrival for task in first] != \
        [task.arrival for task in synthesize(200, 4, 0.8, 8)]
    assert all(task.deadline > task.arrival for task in first)


def test_bounded_sheds_under_sustained_overload():
    """Arrivals at twice the pick rate overflow a bounded queue: the
    sheddable excess is shed, and every offered task is either picked
    or shed, none lost."""
    stream = synthesize(2000, 2, 2.0, 0)
    scheduler = make_scheduler("bounded:capacity=8,inner=fcfs").bind()
    assert scheduler.describe() == {
        "scheduler": "bounded", "capacity": 8,
        "inner": {"scheduler": "fcfs"}}
    picked = []
    for index, task in enumerate(stream):
        scheduler.submit(task, now=task.arrival, sheddable=True)
        if index % 2 == 1:
            picked.append(scheduler.pick(now=task.arrival).name)
    picked.extend(drain(scheduler, now=stream[-1].arrival))
    counters = scheduler.counters()
    assert counters["sheds"] > 0
    assert counters["deferrals"] == 0
    assert counters["picks"] == len(picked)
    assert len(picked) + counters["sheds"] == len(stream)
    assert picked == sorted(picked, key=lambda name: int(name[1:]))


def keyed_trace(spec, seed=5):
    """Pick order and policy decisions of ``spec`` over a seeded stream
    whose hints are rounded, so many tasks tie on their key."""
    from repro.schedlab.policy import RecordingPolicy, SeededRandomPolicy

    stream = synthesize(120, 2, 1.5, seed)
    for task in stream:
        task.priority = round(task.priority, 1)
        task.deadline = float(round(task.deadline))
        task.cost_estimate = round(task.cost_estimate * 2) / 2
    policy = RecordingPolicy(SeededRandomPolicy(seed))
    scheduler = make_scheduler(spec).bind(policy=policy, point="core")
    picks = []
    for index, task in enumerate(stream):
        scheduler.submit(task, now=task.arrival)
        if index % 3 == 2:
            picks.append(scheduler.pick(now=task.arrival).name)
    picks.extend(drain(scheduler, now=stream[-1].arrival))
    return {"picks": [int(name[1:]) for name in picks],
            "decisions": [[size, index]
                          for _point, size, index in policy.decisions]}


@pytest.mark.parametrize("spec", ["priority", "edf", "sew",
                                  "bounded:inner=edf,capacity=8"])
def test_policy_bound_keyed_picks_are_pinned(spec):
    """With a policy bound, a keyed pick offers the policy exactly the
    entries tied on the minimum key, in admission order; the pick order
    and every decision match the golden."""
    golden = json.loads(KEYED_PICKS_PATH.read_text(encoding="utf-8"))
    assert keyed_trace(spec) == golden[spec]


# ----------------------------------------------------------- end-to-end runs


@pytest.mark.parametrize("spec", ["fcfs", "priority", "edf", "sew",
                                  "work-stealing", "bounded:capacity=2"])
def test_sim_backend_correct_under_every_discipline(spec):
    from repro.runtime.simulator import SimExecutor
    from util import make_pipeline, pipeline_expected

    region = make_pipeline(n=24, exact_quality=True)
    executor = SimExecutor(cores=2, scheduler=spec)
    executor.submit(region)
    executor.run()
    assert region.output("out") == pipeline_expected(24)
    assert executor.scheduler.counters()["sheds"] == 0


def test_thread_backend_slot_gating_serializes_bodies():
    from repro.runtime.thread_backend import ThreadExecutor
    from util import make_diamond, diamond_expected

    region = make_diamond(n=16, exact_quality=True)
    executor = ThreadExecutor(timeout=30, scheduler="fcfs", slots=1)
    executor.submit(region)
    executor.run()
    assert region.output("out") == diamond_expected(16)
    assert executor.scheduler.picks >= 4  # every body entry was a pick


def test_run_fluid_scheduler_flag():
    from repro.apps.edge_detection import EdgeDetectionApp
    from repro.workloads import synthetic_image

    app = EdgeDetectionApp(synthetic_image(24, 24, noise=8.0, seed=1))
    telemetry = Telemetry(chrome=False)
    # One core forces queueing, so the discipline actually decides.
    run = app.run_fluid(scheduler="edf", cores=1, telemetry=telemetry)
    assert run.error >= 0.0
    assert telemetry.metrics.counters["sched.picks"] > 0
