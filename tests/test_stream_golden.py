"""Golden file for the streaming pipeline on the simulator.

Every window of a ``sim`` pipeline run runs on one :class:`SimExecutor`
in virtual time, so everything a run reports is a deterministic function
of the stage folds, the queue discipline and the runtime's decisions.
This test pins that function for logagg, topk and frames at
k in {0, 2, 4} (96 items, 32-item windows): outputs, per-item
latencies, window reports, re-executions, every ``stream.*`` counter
and the ``stream.occupancy`` histogram.  A change to how a window is
built, re-armed, harvested, folded into the metrics or released must
leave this file passing unchanged.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_stream_golden.py --update

which prints, per row, each field that changed (old -> new).
"""

import json
import pathlib

import pytest

from repro.stream.apps import APPS

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "stream_sim.json"
APP_NAMES = ("logagg", "topk", "frames")
KS = (0, 2, 4)
ITEMS = 96
WINDOW = 32


def _record(name: str, k: int) -> dict:
    app = APPS[name]
    pipeline = app.pipeline(k=k, window=WINDOW)
    result = pipeline.run(app.make_items(ITEMS), backend="sim")
    metrics = pipeline.telemetry.metrics.to_dict()
    record = {
        "key": f"{name}/k={k}",
        "outputs": sorted(result.outputs.items()),
        "latencies": sorted(result.latencies.items()),
        "windows": [window._asdict() for window in result.windows],
        "reexecutions": result.reexecutions,
        "counters": {key: value for key, value
                     in sorted(metrics["counters"].items())
                     if key.startswith("stream.")},
        "occupancy": metrics["histograms"].get("stream.occupancy"),
    }
    # Through JSON once, so tuples compare as the lists the file holds.
    return json.loads(json.dumps(record))


def _rows():
    return [_record(name, k) for name in APP_NAMES for k in KS]


def _golden_rows():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["rows"]


@pytest.mark.parametrize("name", APP_NAMES)
@pytest.mark.parametrize("k", KS)
def test_stream_sim_run_matches_golden(name, k):
    key = f"{name}/k={k}"
    want = {row["key"]: row for row in _golden_rows()}[key]
    got = _record(name, k)
    for field in want:
        assert got[field] == want[field], (
            f"{key}: {field} diverged from {GOLDEN_PATH.name}; if the "
            "change is intentional, regenerate with PYTHONPATH=src "
            "python tests/test_stream_golden.py --update")
    assert set(got) == set(want)


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
    # One line per field: long, but a changed field is one diff line.
    body = ",\n".join(
        "{" + ",\n ".join(f"{json.dumps(field)}: {json.dumps(value)}"
                          for field, value in row.items()) + "}"
        for row in rows)
    GOLDEN_PATH.write_text(
        f'{{"items": {ITEMS}, "window": {WINDOW}, "rows": [\n{body}]}}\n',
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
