"""Golden file for the Figure-6 matrix on the simulator.

The simulator runs in virtual time, so every cell of the matrix that
``collect_figure6_rows()`` produces is a deterministic function of the
app bodies' yielded costs, their count publishes and the runtime's
decisions.  This test pins that function for all 21 app/input rows:
fluid and precise makespans, valve checks, memoized checks and
re-executions exactly, and the normalized accuracy to 12 significant
digits (its last ulp depends on summation order elsewhere).

An app body may be rewritten (docs/reproduction-notes.md, "Kernel
contract") only if this file still passes unchanged.  Regenerate after
an *intentional* behaviour change with::

    PYTHONPATH=src python tests/test_fig6_golden.py --update
"""

import json
import pathlib

from repro.bench.__main__ import collect_figure6_rows

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "fig6_matrix.json"
ACCURACY_DIGITS = 12


def _record(row):
    return {
        "key": row.key,
        "precise_makespan": row.precise_makespan,
        "fluid_makespan": row.fluid_makespan,
        "valve_checks": row.valve_checks,
        "valve_checks_skipped": row.valve_checks_skipped,
        "reexecutions": row.reexecutions,
        "normalized_accuracy": float(
            f"{row.normalized_accuracy:.{ACCURACY_DIGITS}g}"),
    }


def _matrix():
    return [_record(row) for row in collect_figure6_rows()]


def test_figure6_matrix_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    observed = _matrix()
    assert [row["key"] for row in observed] == \
        [row["key"] for row in golden["rows"]]
    for got, want in zip(observed, golden["rows"]):
        assert got == want, (
            f"{got['key']} diverged from {GOLDEN_PATH.name}; if the change "
            "is intentional, regenerate with PYTHONPATH=src python "
            "tests/test_fig6_golden.py --update")


def _update():
    rows = _matrix()
    GOLDEN_PATH.write_text(
        json.dumps({"accuracy_digits": ACCURACY_DIGITS, "rows": rows},
                   indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH} ({len(rows)} rows)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
