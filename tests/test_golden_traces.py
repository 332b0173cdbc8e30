"""Golden-trace regression tests for the simulator's scheduling.

A fixed-seed schedule policy makes a whole simulated execution — every
admission, run, wake-up and completion — a deterministic function of
the runtime's decision logic.  These tests pin that function for the
two paper apps by comparing the *structure* of the trace (the sequence
of event kinds and the task each lands on) against checked-in golden
files.

Structure only, on purpose: virtual timestamps shift with any overhead
retuning and K-means region names embed ``id()``-derived suffixes that
differ between interpreter runs, so times / regions / details are not
compared.  A structural diff means the scheduler now takes different
decisions — exactly the regression this guards against.

Regenerate after an *intentional* scheduling change with::

    PYTHONPATH=src python tests/test_golden_traces.py --update
"""

import json
import pathlib

import pytest

from repro.schedlab import SeededRandomPolicy, run_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_SEED = 0

#: scenario name -> golden file
CASES = {
    "kmeans": "kmeans_trace.json",
    "bellman_ford": "bellman_ford_trace.json",
    # One window of the streaming log-aggregation pipeline (3 stages
    # linked by staleness-bounded StageQueues); pins the source/stage
    # admission order under the relaxed valves.
    "stream": "stream_logagg_trace.json",
}


def _signature(trace):
    """(event kind, task) sequence — the structural trace."""
    return [[event.event, event.task] for event in trace.events]


def _run(scenario):
    outcome = run_scenario(scenario, backend="sim",
                           policy=SeededRandomPolicy(GOLDEN_SEED),
                           seed=GOLDEN_SEED, trace=True)
    assert outcome.ok, outcome.message
    return outcome


class TestGoldenTraces:
    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_trace_structure_matches_golden(self, scenario):
        golden_path = GOLDEN_DIR / CASES[scenario]
        golden = json.loads(golden_path.read_text(encoding="utf-8"))
        observed = _signature(_run(scenario).trace)
        assert observed == golden["events"], (
            f"{scenario}: simulator scheduling diverged from "
            f"{golden_path.name}; if the change is intentional, "
            "regenerate with PYTHONPATH=src python "
            "tests/test_golden_traces.py --update")

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_trace_structure_is_run_to_run_stable(self, scenario):
        assert _signature(_run(scenario).trace) == \
            _signature(_run(scenario).trace)

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_autotune_none_preserves_golden(self, scenario):
        """``autotune=None`` is the default everywhere; threading the
        parameter through the harness must not perturb a single
        scheduling decision or publish a single extra structural
        event."""
        golden = json.loads(
            (GOLDEN_DIR / CASES[scenario]).read_text(encoding="utf-8"))
        outcome = run_scenario(scenario, backend="sim",
                               policy=SeededRandomPolicy(GOLDEN_SEED),
                               seed=GOLDEN_SEED, trace=True,
                               autotune=None)
        assert outcome.ok, outcome.message
        assert _signature(outcome.trace) == golden["events"]

    @pytest.mark.parametrize("scenario", sorted(CASES))
    def test_idle_autotuner_preserves_golden_structure(self, scenario):
        """Even a *bound* tuner whose window never fills must leave the
        structural trace untouched: ``tune`` events are not recorded by
        Trace, and an idle controller actuates nothing."""
        golden = json.loads(
            (GOLDEN_DIR / CASES[scenario]).read_text(encoding="utf-8"))
        outcome = run_scenario(scenario, backend="sim",
                               policy=SeededRandomPolicy(GOLDEN_SEED),
                               seed=GOLDEN_SEED, trace=True,
                               autotune="accuracy_floor:target=0.9,"
                                        "window=10000")
        assert outcome.ok, outcome.message
        assert _signature(outcome.trace) == golden["events"]


def _update():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario, filename in CASES.items():
        outcome = _run(scenario)
        record = {
            "scenario": scenario,
            "seed": GOLDEN_SEED,
            "policy": "random",
            "makespan": outcome.makespan,
            "events": _signature(outcome.trace),
        }
        path = GOLDEN_DIR / filename
        path.write_text(json.dumps(record, indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path} ({len(record['events'])} events)")


if __name__ == "__main__":
    import sys

    if "--update" in sys.argv:
        _update()
    else:
        print(__doc__)
