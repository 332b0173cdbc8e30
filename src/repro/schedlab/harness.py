"""The SchedLab harness: run scenarios under controlled schedules.

One :func:`run_scenario` call executes one scenario on one backend under
one schedule policy (+ optional fault plan and runtime mutation), with
the :class:`~repro.schedlab.invariants.InvariantChecker` subscribed to
the run's telemetry bus, and classifies what happened into an
:class:`Outcome`.  :func:`sweep` drives many such runs (seed sweeps or
exhaustive enumeration), shrinks every simulator failure to a minimal
decision list, and serializes each one as a replayable JSON artifact.

Mutation testing: the :data:`MUTATIONS` registry names guard wake-up
seams that can be disabled for the duration of a run (e.g. dropping the
producer-completion update signal).  A healthy SchedLab setup must catch
every mutation within a modest seed budget — that is the harness's own
acceptance test.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import guard as guard_module
from ..core.errors import (FluidError, SchedulerError, StateError,
                           TaskBodyError)
from ..runtime.executor import make_executor
from ..runtime.simulator import Overheads
from ..telemetry import Telemetry
from .faults import FaultInjected, FaultPlan
from .invariants import InvariantChecker, check_equivalence
from .policy import (Decision, ExhaustivePolicy, FifoPolicy, RecordingPolicy,
                     ReplayPolicy, SchedulePolicy, make_policy)
from .scenarios import SCENARIOS, default_scenarios
from .shrink import shrink_schedule

ARTIFACT_VERSION = 1

#: Guard wake-up seams that mutation testing may disable: mutation name
#: -> Coordinator method replaced by a no-op for the run.  Each of these
#: is load-bearing — dropping it must deadlock some default scenario.
MUTATIONS: Dict[str, str] = {
    # Producer completion no longer wakes children waiting in W/D.
    "drop-update-signals": "_deliver_update_signals",
    # A task entering W never re-runs on already-advanced inputs and
    # never requests more precise data from idle producers.
    "drop-wait-poke": "_poke_waiting",
}


@contextmanager
def apply_mutation(name: Optional[str]):
    """Temporarily replace a Coordinator seam with a no-op."""
    if not name:
        yield
        return
    if name not in MUTATIONS:
        raise SchedulerError(
            f"unknown mutation {name!r}; expected one of "
            + ", ".join(sorted(MUTATIONS)))
    attribute = MUTATIONS[name]
    original = getattr(guard_module.Coordinator, attribute)

    def disabled(self, *args, **kwargs):
        return None

    setattr(guard_module.Coordinator, attribute, disabled)
    try:
        yield
    finally:
        setattr(guard_module.Coordinator, attribute, original)


@dataclass
class Outcome:
    """What one controlled run did."""

    scenario: str
    backend: str
    strict: bool = False
    mutation: Optional[str] = None
    seed: Optional[int] = None
    #: repro.sched discipline spec the run used (None = default FCFS).
    scheduler: Optional[str] = None
    #: repro.tuning autotune spec the run used (None = static valves).
    autotune: Optional[str] = None
    policy: Dict = field(default_factory=dict)
    #: None = the run passed every check; otherwise a failure kind such
    #: as "scheduler-error", "task-body-error:RacyOrderingBug",
    #: "invariant" or "equivalence".
    failure: Optional[str] = None
    message: str = ""
    decisions: List[Decision] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    faults: List[dict] = field(default_factory=list)
    fault_kinds: List[str] = field(default_factory=list)
    makespan: Optional[float] = None
    divergences: int = 0
    trace: Any = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_artifact(self) -> Dict:
        """The JSON-serializable replay record for this run."""
        return {
            "version": ARTIFACT_VERSION,
            "scenario": self.scenario,
            "backend": self.backend,
            "strict": self.strict,
            "mutation": self.mutation,
            "seed": self.seed,
            "scheduler": self.scheduler,
            "autotune": self.autotune,
            "policy": self.policy,
            "failure": self.failure,
            "message": self.message,
            "faults": self.faults,
            "decisions": [list(d) for d in self.decisions],
        }

    def describe(self) -> str:
        status = "ok" if self.ok else f"FAIL[{self.failure}]"
        extras = []
        if self.seed is not None:
            extras.append(f"seed={self.seed}")
        if self.mutation:
            extras.append(f"mutation={self.mutation}")
        if self.scheduler:
            extras.append(f"scheduler={self.scheduler}")
        if self.autotune:
            extras.append(f"autotune={self.autotune}")
        if self.strict:
            extras.append("strict")
        suffix = (" " + " ".join(extras)) if extras else ""
        return f"{self.scenario}/{self.backend}{suffix}: {status}"


def classify_failure(error: Exception) -> Tuple[str, str]:
    """Map an exception from a run to a stable failure kind.

    The kind is what the shrinker preserves while minimizing, so it must
    be deterministic for a replayed schedule: body errors carry the
    causing exception's class name, fault injections get their own kind.
    """
    if isinstance(error, TaskBodyError):
        cause = error.__cause__
        if isinstance(cause, FaultInjected):
            return "fault-injected", str(error)
        if cause is not None:
            return f"task-body-error:{type(cause).__name__}", str(error)
        return "task-body-error", str(error)
    if isinstance(error, StateError):
        return "state-error", str(error)
    if isinstance(error, SchedulerError):
        return "scheduler-error", str(error)
    if isinstance(error, FluidError):
        return "fluid-error", str(error)
    return "unexpected-error", repr(error)


def _normalize_faults(faults) -> List[dict]:
    if faults is None:
        return []
    if isinstance(faults, FaultPlan):
        return faults.to_list()
    return [dict(record) for record in faults]


def _build_executor(backend: str, policy: SchedulePolicy, *, cores: int,
                    timeout: float, workers: int, telemetry,
                    scheduler=None, autotune=None):
    options = {"sim": {"cores": cores, "overheads": Overheads.zero()},
               "thread": {"timeout": timeout},
               "process": {"workers": workers, "timeout": timeout}}
    return make_executor(backend, policy=policy, telemetry=telemetry,
                         scheduler=scheduler, autotune=autotune,
                         **options.get(backend, {}))


#: This process's last scenario build for :func:`rebuild`: its key and
#: the regions not yet handed out.  A worker installs a run's R regions
#: together, so they share one ``fresh()`` and one fault plan, as the
#: parent's build does; asking for an index again builds anew.
_REBUILT: Dict[str, Any] = {"key": None, "regions": {}}


def rebuild(scenario_name: str, strict: bool, index: int,
            fault_records: List[dict]):
    """The ``remote_factory`` of a scenario's ``index``-th region: a
    fresh build carrying the run's fault plan, so ``raise``/``delay``
    faults fire in process-backend workers too."""
    key = (os.getpid(), scenario_name, strict, json.dumps(fault_records))
    if _REBUILT["key"] != key or index not in _REBUILT["regions"]:
        run = SCENARIOS[scenario_name].fresh(strict=strict)
        if fault_records:
            FaultPlan.from_list(fault_records).attach(run.regions)
        _REBUILT["key"] = key
        _REBUILT["regions"] = dict(enumerate(run.regions))
    return _REBUILT["regions"].pop(index)


def run_scenario(scenario_name: str, *,
                 backend: str = "sim",
                 policy: Optional[SchedulePolicy] = None,
                 seed: Optional[int] = None,
                 faults=None,
                 strict: bool = False,
                 mutation: Optional[str] = None,
                 trace: bool = False,
                 cores: int = 4,
                 timeout: float = 15.0,
                 workers: int = 2,
                 telemetry=None,
                 scheduler: Optional[str] = None,
                 autotune: Optional[str] = None) -> Outcome:
    """Execute one scenario under full SchedLab control.

    Every fault plan is rebuilt fresh from its serialized form, so a
    run never observes another run's consumed fault budgets.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) instruments the
    run with structured metrics and a Perfetto-exportable trace.  The
    invariant checker audits the run's own event stream, so a run given
    none gets a lightweight one (bus and trace only).

    ``scheduler`` (a :mod:`repro.sched` spec string such as ``"edf"`` or
    ``"bounded:capacity=4"``) selects the ready-queue discipline the
    backend runs under; SchedLab policies compose with it — the policy
    resolves whatever tie-break freedom the discipline leaves open.  It
    is recorded in the outcome and its replay artifact.

    ``autotune`` (a :mod:`repro.tuning` spec string such as
    ``"accuracy_floor:target=0.9"``) enables closed-loop valve
    autotuning for the run; its ``tune.*`` adjustment events ride the
    same bus as everything else, so adjustments are visible in replays.
    Recorded in the outcome and its replay artifact like ``scheduler``.
    """
    try:
        scenario = SCENARIOS[scenario_name]
    except KeyError:
        raise SchedulerError(
            f"unknown scenario {scenario_name!r}; expected one of "
            + ", ".join(sorted(SCENARIOS))) from None
    if backend not in scenario.backends:
        raise SchedulerError(
            f"scenario {scenario_name!r} does not support the {backend!r} "
            f"backend (supported: {', '.join(scenario.backends)})")
    if strict and not scenario.supports_strict:
        raise SchedulerError(
            f"scenario {scenario_name!r} has no strict build")

    inner = policy if policy is not None else FifoPolicy()
    recorder = inner if isinstance(inner, RecordingPolicy) \
        else RecordingPolicy(inner)
    recorder.begin_run()

    fault_records = _normalize_faults(faults)
    plan = FaultPlan.from_list(fault_records) if fault_records else None

    outcome = Outcome(scenario=scenario_name, backend=backend, strict=strict,
                      mutation=mutation, seed=seed,
                      scheduler=(scheduler if scheduler is None
                                 else str(scheduler)),
                      autotune=(autotune if autotune is None
                                else str(autotune)),
                      policy=inner.describe(), faults=fault_records)
    if telemetry is None:
        telemetry = Telemetry(metrics=False, chrome=False)
    run = scenario.fresh(strict=strict)
    if plan is not None:
        plan.attach(run.regions)
    for index, region in enumerate(run.regions):
        region.remote_factory = (
            rebuild, (scenario_name, strict, index, fault_records), {})
    with apply_mutation(mutation):
        checker = InvariantChecker().connect(telemetry.bus)
        try:
            executor = _build_executor(backend, recorder, cores=cores,
                                       timeout=timeout, workers=workers,
                                       telemetry=telemetry,
                                       scheduler=scheduler,
                                       autotune=autotune)
            run.submit(executor)
            outcome.makespan = executor.run().makespan
        except Exception as error:  # noqa: BLE001 - classified below
            outcome.failure, outcome.message = classify_failure(error)
        finally:
            # A caller's Telemetry outlives the run; the checker must not.
            telemetry.bus.unsubscribe(checker.on_event)
    if trace:
        # A failed run keeps its trace too: it is what a replay explains.
        outcome.trace = telemetry.trace
    outcome.decisions = list(recorder.decisions)
    outcome.divergences = getattr(inner, "divergences", 0)
    if plan is not None:
        outcome.fault_kinds = sorted(plan.kinds_fired())
    if outcome.failure is None:
        checker.check_completion()
        if not checker.ok:
            outcome.failure = "invariant"
            outcome.message = checker.summary()
            outcome.violations = [str(v) for v in checker.violations]
        elif strict:
            mismatches = check_equivalence(run.extract(),
                                           scenario.precise_output())
            if mismatches:
                outcome.failure = "equivalence"
                outcome.message = "; ".join(mismatches[:5])
    return outcome


# ---------------------------------------------------------------- artifacts


def write_artifact(directory: str, outcome: Outcome,
                   minimized: Optional[Sequence[Decision]] = None) -> str:
    """Serialize a failing outcome (and its shrunk schedule) to JSON."""
    os.makedirs(directory, exist_ok=True)
    record = outcome.to_artifact()
    if minimized is not None:
        record["decisions"] = [list(d) for d in minimized]
        record["policy"] = {"policy": "replay",
                            "decisions": len(record["decisions"])}
    parts = [outcome.scenario, outcome.backend]
    if outcome.mutation:
        parts.append(outcome.mutation)
    if outcome.seed is not None:
        parts.append(f"seed{outcome.seed}")
    path = os.path.join(directory, "-".join(parts) + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> Dict:
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if record.get("version") != ARTIFACT_VERSION:
        raise SchedulerError(
            f"artifact {path!r} has version {record.get('version')!r}; "
            f"this harness reads version {ARTIFACT_VERSION}")
    return record


def replay_artifact(artifact, *, trace: bool = False,
                    cores: int = 4, telemetry=None) -> Outcome:
    """Re-run a serialized failing schedule on the simulator.

    Replay always targets ``sim`` regardless of the backend that found
    the failure: decision lists are only deterministic under virtual
    time (real backends contribute seeded jitter, not a total order).
    """
    if isinstance(artifact, str):
        artifact = load_artifact(artifact)
    return run_scenario(
        artifact["scenario"], backend="sim",
        policy=ReplayPolicy([tuple(d) for d in artifact["decisions"]]),
        seed=artifact.get("seed"),
        faults=artifact.get("faults") or None,
        strict=bool(artifact.get("strict")),
        mutation=artifact.get("mutation"),
        scheduler=artifact.get("scheduler"),
        trace=trace, cores=cores, telemetry=telemetry)


# -------------------------------------------------------------------- sweep


@dataclass
class SweepReport:
    """Aggregate result of a :func:`sweep`."""

    runs: int = 0
    failures: List[Outcome] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    shrink_checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def shrink_outcome(outcome: Outcome, *, cores: int = 4,
                   budget: int = 256) -> Tuple[List[Decision], int]:
    """Minimize a failing sim outcome's decision list.

    Returns the smallest decision list found that still produces the
    same failure kind, plus the number of verification runs spent.
    """
    target = outcome.failure

    def still_fails(decisions: Sequence[Decision]) -> bool:
        replayed = run_scenario(
            outcome.scenario, backend="sim",
            policy=ReplayPolicy(decisions), faults=outcome.faults or None,
            strict=outcome.strict, mutation=outcome.mutation,
            scheduler=outcome.scheduler, cores=cores)
        return replayed.failure == target

    return shrink_schedule(outcome.decisions, still_fails, budget=budget)


def sweep(scenario_names: Optional[Sequence[str]] = None, *,
          seeds: int = 25,
          policy_name: str = "random",
          backend: str = "sim",
          strict: bool = False,
          mutation: Optional[str] = None,
          faults=None,
          depth: int = 3,
          jitter_scale: float = 0.0,
          artifact_dir: Optional[str] = None,
          shrink: bool = True,
          stop_first: bool = False,
          cores: int = 4,
          timeout: float = 15.0,
          workers: int = 2,
          scheduler: Optional[str] = None,
          log: Optional[Callable[[str], None]] = None) -> SweepReport:
    """Run many controlled schedules and harvest failures.

    ``policy_name == "exhaustive"`` enumerates tie-break combinations up
    to ``depth`` (``seeds`` caps the number of schedules); every other
    policy is rebuilt per seed in ``range(seeds)``.  Simulator failures
    are shrunk and written to ``artifact_dir`` as replayable artifacts.
    """
    names = list(scenario_names) if scenario_names \
        else default_scenarios(backend)
    fault_records = _normalize_faults(faults)
    report = SweepReport()

    def emit(text: str) -> None:
        if log is not None:
            log(text)

    def handle(outcome: Outcome) -> bool:
        """Record one outcome; True = the sweep should stop."""
        report.runs += 1
        if outcome.ok:
            return False
        report.failures.append(outcome)
        emit(outcome.describe() + f" — {outcome.message[:120]}")
        minimized = None
        if shrink and backend == "sim" and outcome.decisions:
            minimized, checks = shrink_outcome(outcome, cores=cores)
            report.shrink_checks += checks
            emit(f"  shrunk {len(outcome.decisions)} -> "
                 f"{len(minimized)} decisions ({checks} checks)")
        if artifact_dir:
            path = write_artifact(artifact_dir, outcome, minimized)
            report.artifacts.append(path)
            emit(f"  artifact: {path}")
        return stop_first

    for name in names:
        scenario = SCENARIOS[name]
        if backend not in scenario.backends:
            emit(f"{name}: skipped (no {backend} backend support)")
            continue
        effective_strict = strict and scenario.supports_strict
        common = dict(backend=backend, faults=fault_records or None,
                      strict=effective_strict, mutation=mutation,
                      cores=cores, timeout=timeout, workers=workers,
                      scheduler=scheduler)
        if policy_name == "exhaustive":
            policy = ExhaustivePolicy(depth=depth)
            while policy.schedules_run < seeds:
                outcome = run_scenario(name, policy=policy, **common)
                if handle(outcome):
                    return report
                if not policy.advance():
                    break
            emit(f"{name}: explored {policy.schedules_run} schedules")
        else:
            for seed in range(seeds):
                policy = make_policy(policy_name, seed=seed, depth=depth,
                                     jitter_scale=jitter_scale
                                     if backend != "sim" else 0.0)
                outcome = run_scenario(name, policy=policy, seed=seed,
                                       **common)
                if handle(outcome):
                    return report
    return report
