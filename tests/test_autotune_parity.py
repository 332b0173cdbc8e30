"""Cross-backend parity of autotuning decisions.

The ``accuracy_floor`` feedback loop is event-count-cadenced and its
window pass rate is order-invariant, so on a schedule whose *verdict
stream* is deterministic all three backends must take identical tuning
decisions (docs/autotuning.md).  The handshake region below constructs
such a stream without relying on timing:

* ``p1`` drives the count behind ``c``'s tunable percent gate;
* ``c``'s body bumps an ``ack`` count that ``p2``'s (untunable,
  plain-count) start valve waits on, so ``p2`` cannot produce ``mid``
  before ``c`` has started — whatever the backend's real-time
  interleaving, ``c``'s first run sees ``mid`` either still non-final
  or version-advanced since its start snapshot, and therefore
  *evaluates* its end valves (neither precision path can skip them);
* the end valve is an always-true ``PredicateValve``: the evaluation
  contributes exactly one passing verdict and completes the task, so
  the re-execution machinery — whose wake-ups race producer
  finalization on the real-time backends — is never engaged.

Each triple hence emits exactly one passing verdict; only the order of
triples varies across backends, which the windowed pass rate cannot
observe.  With a ``relax_floor`` the all-pass stream drives
deterministic AIMD relaxation probes, compared across backends as
``(metric, before, after)`` decision tuples.
"""

import pytest

from repro import ProcessExecutor, SimExecutor, ThreadExecutor
from repro.core.region import FluidRegion
from repro.core.valves import CountValve, PercentValve, PredicateValve
from repro.tuning import SLO, ValveAutotuner


class HandshakeRegion(FluidRegion):
    """TRIPLES independent (p1, p2, c) handshakes under one header."""

    TRIPLES = 4

    def build(self):
        go = self.add_data("go")

        def header(ctx):
            go.write(1)
            yield 1.0

        self.add_task("header", header, outputs=[go])
        for index in range(self.TRIPLES):
            progress = self.add_count(f"progress_{index}")
            ack = self.add_count(f"ack_{index}")
            mid = self.add_data(f"mid_{index}")
            gate = PercentValve(progress, 0.4, 100.0,
                                name=f"gate_{index}")

            def p1(ctx, progress=progress):
                for _ in range(10):
                    progress.add(10)
                    yield 2.0

            def p2(ctx, mid=mid):
                # The write bumps mid's version, so even a p2 that
                # finishes while c's body is still running denies c
                # retroactive precision — the end valve is evaluated.
                mid.write("mid")
                yield 1.0

            def c(ctx, ack=ack):
                ack.add(1)
                yield 1.0

            self.add_task(f"p1_{index}", p1, inputs=[go])
            # Plain CountValve: base == max, so the tuner must leave it
            # alone — relaxing a handshake would start p2 early and
            # tightening it could deadlock the region.
            self.add_task(f"p2_{index}", p2, inputs=[go], outputs=[mid],
                          start_valves=[CountValve(ack, 1,
                                                   name=f"hs_{index}")])
            self.add_task(f"c_{index}", c, inputs=[mid],
                          start_valves=[gate],
                          end_valves=[PredicateValve(
                              lambda: True, name=f"q_{index}")])


def _run_backend(backend: str, window: int):
    tuner = ValveAutotuner(SLO.accuracy_floor(0.9), window=window,
                           relax_floor=0.1)
    if backend == "sim":
        executor = SimExecutor(cores=4, autotune=tuner)
    elif backend == "thread":
        executor = ThreadExecutor(timeout=30, autotune=tuner)
    else:
        executor = ProcessExecutor(workers=2, timeout=60, autotune=tuner)
    region = HandshakeRegion()
    region.remote_factory = (HandshakeRegion, (region.name,), {})
    executor.submit(region)
    executor.run()
    return tuner, region


BACKENDS = ("sim", "thread", "process")


def _decision_log(tuner):
    return [(round(decision.metric, 9), round(decision.before, 9),
             round(decision.after, 9)) for decision in tuner.decisions]


def test_identical_decisions_across_backends():
    results = {backend: _run_backend(backend, window=2)
               for backend in BACKENDS}
    logs = {backend: _decision_log(tuner)
            for backend, (tuner, _) in results.items()}
    # Sanity on the sim log before comparing: two all-pass windows of
    # two verdicts each, AIMD probing one relax_step past the floor
    # margin each time.
    assert logs["sim"] == [(1.0, 0.0, -0.05), (1.0, -0.05, -0.1)]
    assert logs["thread"] == logs["sim"]
    assert logs["process"] == logs["sim"]
    for backend, (tuner, region) in results.items():
        assert tuner.windows == 2, backend
        assert tuner.adjustments == 2, backend
        assert tuner.relaxations == 2, backend
        # Every tunable gate landed on the same operating point:
        # base 40, floor 0.1 * 100 = 10, position -0.1.
        for valve in region.valves:
            if valve.name.startswith("gate_"):
                assert valve.threshold == pytest.approx(
                    40.0 - 0.1 * (40.0 - 10.0)), (backend, valve.name)
            # ...and the handshake valves were never touched.
            if valve.name.startswith("hs_"):
                assert valve.threshold == 1, (backend, valve.name)


def test_no_decision_parity_when_window_never_fills():
    for backend in BACKENDS:
        tuner, region = _run_backend(backend, window=8)
        assert tuner.windows == 0, backend
        assert tuner.adjustments == 0 and tuner.decisions == [], backend
        for valve in region.valves:
            if valve.name.startswith("gate_"):
                assert valve.threshold == 40.0, (backend, valve.name)


def test_verdict_stream_is_one_evaluation_per_triple():
    """The construction the module docstring promises: each consumer's
    quality valve is evaluated exactly once, passes, and never re-runs
    — on every backend."""
    for backend in BACKENDS:
        _, region = _run_backend(backend, window=2)
        for valve in region.valves:
            if valve.name.startswith("q_"):
                assert valve.checks == 1, (backend, valve.name)
        for task in region.tasks:
            if task.name.startswith("c_"):
                assert task.stats.quality_failures == 0, (backend,
                                                          task.name)
                assert task.stats.runs == 1, (backend, task.name)
