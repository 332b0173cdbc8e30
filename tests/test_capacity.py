"""Tests for the cluster-scale capacity simulator (repro.sched.capacity)."""

import json

import pytest

from repro.sched.capacity import (SCHEMA, capacity_document, check_monotone,
                                  main, run_sweep, simulate, synthesize)
from repro.sched.schedulers import make_scheduler
from repro.service import load_capacity_document

REQUIRED_FIELDS = (
    "throughput", "latency_p50", "latency_p95", "latency_p99",
    "tasks_completed", "tasks_shed", "deadline_misses", "picks", "steals",
)


def test_synthesize_is_deterministic():
    first = synthesize(tasks=200, cores=4, rate=0.8, seed=7)
    second = synthesize(tasks=200, cores=4, rate=0.8, seed=7)
    assert [(t.name, t.arrival, t.service) for t in first] == \
        [(t.name, t.arrival, t.service) for t in second]
    other = synthesize(tasks=200, cores=4, rate=0.8, seed=8)
    assert [t.arrival for t in first] != [t.arrival for t in other]


def test_synthesize_workload_is_scheduler_independent():
    """The stream depends only on (tasks, cores, rate, seed): every
    scheduler in a sweep cell sees the identical offered load."""
    stream = synthesize(tasks=500, cores=2, rate=1.0, seed=3)
    fcfs = simulate(list(stream), make_scheduler("fcfs"), cores=2)
    edf = simulate(list(stream), make_scheduler("edf"), cores=2)
    assert fcfs["tasks_offered"] == edf["tasks_offered"] == 500


def test_simulate_reports_required_fields():
    stream = synthesize(tasks=300, cores=2, rate=0.8, seed=0)
    row = simulate(stream, make_scheduler("fcfs"), cores=2)
    for field in REQUIRED_FIELDS:
        assert field in row, field
    assert row["tasks_completed"] == 300
    assert row["tasks_shed"] == 0
    assert row["picks"] == 300
    assert row["throughput"] > 0
    assert row["latency_p50"] <= row["latency_p95"] <= row["latency_p99"]


def test_fcfs_throughput_monotone_in_cores():
    results = run_sweep(tasks=2000, schedulers=["fcfs"], cores=[1, 2, 4],
                        rates=[0.8, 1.5], seed=0)
    violations = check_monotone(results, ["fcfs"], [1, 2, 4], [0.8, 1.5])
    assert violations == []


def test_check_monotone_flags_regressions():
    results = {
        "fcfs/cores1/rate1": {"throughput": 10.0},
        "fcfs/cores4/rate1": {"throughput": 5.0},
    }
    violations = check_monotone(results, ["fcfs"], [1, 4], [1.0])
    assert len(violations) == 1
    assert "fell" in violations[0]
    assert check_monotone(results, ["edf"], [1, 4], [1.0]) == []


def test_bounded_queue_sheds_under_overload():
    results = run_sweep(tasks=2000, schedulers=["fcfs"], cores=[2],
                        rates=[2.0], seed=0, queue_capacity=8)
    (row,) = results.values()
    assert row["scheduler"] == {
        "scheduler": "bounded", "capacity": 8,
        "inner": {"scheduler": "fcfs"}}
    assert row["tasks_shed"] > 0
    assert row["tasks_completed"] + row["tasks_shed"] == row["tasks_offered"]


def test_run_sweep_is_deterministic():
    kwargs = dict(tasks=1000, schedulers=["fcfs", "edf"], cores=[1, 2],
                  rates=[0.8, 1.2], seed=5)
    assert run_sweep(**kwargs) == run_sweep(**kwargs)


def test_capacity_document_matches_baseline_schema(tmp_path):
    results = run_sweep(tasks=500, schedulers=["fcfs", "edf"], cores=[1, 2],
                        rates=[0.8], seed=0)
    document = capacity_document(
        results, tasks=500, seed=0, schedulers=["fcfs", "edf"],
        cores=[1, 2], rates=[0.8], queue_capacity=None)
    path = tmp_path / "capacity.json"
    path.write_text(json.dumps(document))
    loaded = load_capacity_document(str(path))
    # The tag predates the capacity module; existing curve files carry it.
    assert SCHEMA == "repro-bench-baseline/1"
    assert loaded["schema"] == SCHEMA
    assert set(loaded["workloads"]) == set(results)
    assert loaded["config"]["backend"] == "capacity"
    assert loaded["config"]["quick"] is True
    assert loaded["rev"]


def test_cli_writes_curves_and_asserts_monotone(tmp_path):
    schedulers, cores, rates = ["fcfs", "edf"], [1, 2, 4], [0.8, 1.5]
    out = tmp_path / "curves.json"
    code = main(["--tasks", "500", "--schedulers", ",".join(schedulers),
                 "--cores", "1,2,4", "--rates", "0.8,1.5",
                 "--out", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["schema"] == SCHEMA
    assert len(document["workloads"]) == 2 * 3 * 2
    assert check_monotone(document["workloads"], schedulers, cores,
                          rates) == []


def test_cli_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        main(["--tasks", "100", "--schedulers", "no-such-discipline"])
