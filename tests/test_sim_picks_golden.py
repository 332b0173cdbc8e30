"""Golden file for the simulator's ready-queue picks.

One core and four concurrent regions (two each of ``tests/util``'s
diamond and pipeline), so most task starts go through the ready queue:
queued while the core is busy, picked when it frees.  Each row pins,
with and without a seeded SchedLab policy, the order tasks entered
RUNNING (task, attempt, virtual time), the FCFS queue's end-of-run
counters (picks, sheds, deferrals, queue-residence count and sum) and
every policy decision.  A change to how a driver queues, picks or drops
a task must leave this file passing unchanged.

The rows are keyed ``fcfs/<policy>`` and keep a ``steals`` counter of
0: they were recorded when the drivers could run other disciplines, and
are kept byte for byte.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_sim_picks_golden.py --update

which prints, per row, each field that changed (old -> new).
"""

import json
import pathlib

import pytest

from repro.runtime.simulator import SimExecutor
from repro.schedlab.policy import RecordingPolicy, SeededRandomPolicy
from repro.telemetry import Telemetry

from util import make_diamond, make_pipeline

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "sim_picks.json"
POLICIES = ("none", "seeded:3")
N = 16


def _record(policy_name: str) -> dict:
    policy = None if policy_name == "none" \
        else RecordingPolicy(SeededRandomPolicy(3))
    telemetry = Telemetry(metrics=False, chrome=False)
    started = []

    def on_sched(event):
        if event.name == "run":
            started.append([event.task, event.data["detail"], event.ts])

    telemetry.bus.subscribe(on_sched, kinds=("sched",))
    regions = [make_diamond(n=N, name="d0"), make_pipeline(n=N, name="p0"),
               make_diamond(n=N, name="d1"), make_pipeline(n=N, name="p1")]
    executor = SimExecutor(cores=1, max_active_regions=len(regions),
                           policy=policy, telemetry=telemetry)
    for region in regions:
        executor.submit(region)
    result = executor.run()
    assert all(region.complete for region in regions)
    snapshot = executor.scheduler.snapshot()
    record = {
        "key": f"fcfs/{policy_name}",
        "running": started,
        "makespan": result.makespan,
        "scheduler": {"picks": snapshot["picks"], "steals": 0,
                      "sheds": snapshot["sheds"],
                      "deferrals": snapshot["deferrals"]},
        "residence": [snapshot["residence"]["count"],
                      snapshot["residence"]["sum"]],
        "decisions": [] if policy is None else
        [list(decision) for decision in policy.decisions],
    }
    # Through JSON once, so tuples compare as the lists the file holds.
    return json.loads(json.dumps(record))


def _rows():
    return [_record(policy) for policy in POLICIES]


def _golden_rows():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rows"]


@pytest.mark.parametrize("policy", POLICIES)
def test_sim_picks_match_golden(policy):
    key = f"fcfs/{policy}"
    want = {row["key"]: row for row in _golden_rows()}[key]
    got = _record(policy)
    for field in want:
        assert got[field] == want[field], (
            f"{key}: {field} diverged from {GOLDEN_PATH.name}; if the "
            "change is intentional, regenerate with PYTHONPATH=src "
            "python tests/test_sim_picks_golden.py --update")
    assert set(got) == set(want)


def test_every_row_queues():
    """The file pins the pick path only if tasks really queued."""
    for row in _golden_rows():
        assert row["scheduler"]["picks"] > 0, row["key"]


def _changes(path: str, old, new, out: list) -> None:
    """Append ``path old -> new`` for every leaf that differs."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new), key=str):
            _changes(f"{path}.{key}", old.get(key), new.get(key), out)
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for index, (before, after) in enumerate(zip(old, new)):
            _changes(f"{path}[{index}]", before, after, out)
    elif old != new:
        out.append(f"{path} {old} -> {new}")


def _update():
    """Rewrite the golden file, printing per row each field that
    changed (old -> new), so the diff can be reviewed and recorded."""
    old = {row["key"]: row for row in _golden_rows()} \
        if GOLDEN_PATH.exists() else {}
    rows = _rows()
    for row in rows:
        changes = []
        _changes("", old.pop(row["key"], {}), row, changes)
        for change in changes:
            print(f"{row['key']}: {change.lstrip('.')}")
    for key in old:
        print(f"{key}: removed")
    body = ",\n".join(
        "{" + ",\n ".join(f"{json.dumps(field)}: {json.dumps(value)}"
                          for field, value in row.items()) + "}"
        for row in rows)
    GOLDEN_PATH.write_text(
        f'{{"n": {N}, "cores": 1, "rows": [\n{body}]}}\n', encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
