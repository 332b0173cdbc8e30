"""Golden renderings of one run's trace views, compared byte for byte.

A telemetry run is read three ways: the Chrome trace-event JSON, the
ASCII Gantt of a :class:`~repro.TimelineRecorder` and the structural
``Trace.render()``.  These tests pin all three, exactly, for two
deterministic simulator runs: the re-executing pipeline of
``TestPerfettoExport`` and one window of SchedLab's streaming
log-aggregation scenario under the golden seed.  A diff means a view
now reads the run differently.

Regenerate after an *intentional* rendering change with::

    PYTHONPATH=src python tests/test_trace_views_golden.py --update
"""

import json
import pathlib

import pytest

from repro import SimExecutor, Telemetry, TimelineRecorder
from repro.schedlab import SeededRandomPolicy, run_scenario

from util import make_pipeline

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "trace_views"
GOLDEN_SEED = 0


def _pipeline(telemetry):
    region = make_pipeline(n=40, producer_cost=2.0, consumer_cost=0.1,
                           start_fraction=0.3, exact_quality=True,
                           name="chrome-golden")
    executor = SimExecutor(cores=4, telemetry=telemetry)
    executor.submit(region)
    executor.run()


def _stream(telemetry):
    outcome = run_scenario("stream", backend="sim",
                           policy=SeededRandomPolicy(GOLDEN_SEED),
                           seed=GOLDEN_SEED, telemetry=telemetry)
    assert outcome.ok, outcome.message


CASES = {"pipeline": _pipeline, "stream": _stream}


def render(case):
    """file suffix -> rendered text, for one fresh run of ``case``."""
    telemetry = Telemetry()
    recorder = TimelineRecorder().connect(telemetry.bus)
    CASES[case](telemetry)
    return {
        "chrome.json": json.dumps(telemetry.chrome_trace(), indent=1) + "\n",
        "gantt.txt": recorder.render(width=80) + "\n",
        "trace.txt": telemetry.trace.render() + "\n",
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_views_match_golden_byte_for_byte(case):
    for suffix, text in render(case).items():
        golden = (GOLDEN_DIR / f"{case}.{suffix}").read_text(encoding="utf-8")
        assert text == golden, (
            f"{case}.{suffix} differs from its golden; if intentional, "
            "regenerate with PYTHONPATH=src python "
            "tests/test_trace_views_golden.py --update")


def _update():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        for suffix, text in render(case).items():
            path = GOLDEN_DIR / f"{case}.{suffix}"
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path} ({len(text)} bytes)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
