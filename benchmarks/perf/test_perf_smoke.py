"""Smoke test of the performance benchmark.

Run as ``pytest benchmarks/perf -q`` (not part of the tier-1
``testpaths``): it runs the whole benchmark with ``--smoke`` (one-second
phases, tiny inputs) and checks the contract between ``run.py``,
``catalog.py`` and ``BENCHMARK.json`` — not the numbers.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(tmp_path, *flags):
    out = tmp_path / "results.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seed", "7", "--out", str(out), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    last = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(out, encoding="utf-8") as handle:
        return last, json.load(handle)


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("perf-full"))


@pytest.fixture(scope="module")
def again(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("perf-again"), "--no-trace")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalogue():
    assert _benchmark_json() == catalog.benchmark_json()


def test_benchmark_json_meets_the_contract_limits():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_catalogued_name_is_emitted_and_no_other(full):
    last, results = full
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    expected = set()
    for workload in catalog.WORKLOADS:
        expected |= {f"{workload}/{name}"
                     for name in catalog.E2E_NAMES + catalog.LAYER_NAMES}
    assert set(last["metrics"]) == expected
    for name, entry in last["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
        assert math.isfinite(entry["value"]), name
    assert {(run["workload"], run["trace"]) for run in results["runs"]} == {
        (workload, mode) for workload in catalog.WORKLOADS
        for mode in (0, 1)}


def test_runs_verify_outputs_and_leave_nothing_behind(full):
    _last, results = full
    for run in results["runs"]:
        assert run["leftovers"] == [], run["workload"]
        if run["trace"] == 0:
            assert run["metrics"]["ok_share"] == 1.0
            assert run["metrics"]["on_time_share"] > 0.0
        else:
            assert run["failed"] == 0
            assert run["metrics"]["process.worker_respawns"] == 0
            assert run["metrics"]["service.shed_share"] == 0
            assert os.path.isfile(os.path.join(ROOT, run["trace_file"]))


def test_same_seed_gives_the_same_inputs(full, again):
    first = {run["workload"]: run["input_digest"]
             for run in full[1]["runs"] if run["trace"] == 0}
    second = {run["workload"]: run["input_digest"]
              for run in again[1]["runs"]}
    assert first == second and all(first.values())


def test_apps_sim_virtual_numbers_repeat_exactly(full, again):
    for name in ("norm_latency", "accuracy"):
        key = f"apps-sim/{name}"
        assert full[0]["metrics"][key]["value"] == \
            again[0]["metrics"][key]["value"]


def test_bare_directory_fails_without_a_result(tmp_path):
    """With only BENCHMARK.json and this directory present there is no
    program to measure: a non-zero exit and no result line."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "perf"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "apps-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    completed = subprocess.run([ruff, "check", "benchmarks"], cwd=ROOT,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stdout
