"""Common scaffolding for the eight evaluation applications.

Every app module implements the same protocol so the benchmark harness
can treat them uniformly:

* the app object is constructed with its input configuration;
* :meth:`FluidApp.run_precise` executes the original program (serial,
  no framework) and caches its outputs;
* :meth:`FluidApp.run_fluid` builds fresh fluid regions, runs them on a
  :class:`~repro.runtime.simulator.SimExecutor` (or the thread/process
  backend via ``backend=``), and reports the makespan plus the app's
  error metric against the precise output.

Accuracy convention: every app maps its paper metric to an *error* in
``[0, 1]`` where 0 means "identical to precise"; Figure-6-style
"normalized accuracy" is ``1 - error``.  The per-app benchmark prints
the paper's native metric (PSNR, path error, colors, ...) as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.guard import ModulationPolicy
from ..core.region import FluidRegion
from ..core.scheduler import submit_stages
from ..runtime.executor import RunResult, make_executor, run_serial
from ..runtime.simulator import Overheads, SimExecutor

#: The paper's evaluation platform: a 20-core Xeon.
PAPER_CORES = 20

#: Framework overheads in cost units (one unit ~ one elementary scalar
#: op).  ``task_init`` models guard/thread launch; it is what makes the
#: many-small-regions apps (K-means, Graph Coloring, MedusaDock) show
#: visible overhead in Figure 11 while the heavy-kernel apps do not.
DEFAULT_OVERHEADS = Overheads(task_init=400.0, end_check=80.0,
                              region_setup=300.0, valve_check=0.5,
                              signal=1.0)


@dataclass
class AppRun:
    """Result of one application execution (precise or fluid)."""

    makespan: float
    output: Any
    error: float = 0.0            # 0 for the precise run by definition
    metric: float = 0.0           # the app's native quality metric
    metric_name: str = ""
    result: Optional[RunResult] = None
    regions: List[FluidRegion] = field(default_factory=list)

    @property
    def accuracy(self) -> float:
        return max(0.0, 1.0 - self.error)


class FluidApp:
    """Base class for the eight applications."""

    name = "app"
    #: Default start-valve threshold used in Figure 6 ("default values of
    #: our fluidization parameters").
    default_threshold = 0.4
    #: Whether early termination may kill still-running *first* runs
    #: (the paper's NN layer-1 / GC selection-tail behaviour).
    cancel_first_runs = False

    def __init__(self):
        self._precise: Optional[AppRun] = None
        #: the ModulationPolicy of the in-flight run_fluid call, if any.
        self.active_modulation: Optional[ModulationPolicy] = None

    # ---- to implement per app -------------------------------------------

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> "SubmitPlan":
        """Construct fresh regions plus their submission topology."""
        raise NotImplementedError

    def extract_output(self, plan: "SubmitPlan") -> Any:
        """Pull the app-level output out of the completed regions."""
        raise NotImplementedError

    def compute_error(self, output: Any, precise_output: Any) -> float:
        """App error in [0, 1]; 0 when identical to precise."""
        raise NotImplementedError

    def compute_metric(self, output: Any) -> "tuple[str, float]":
        """The paper's native metric for this app (name, value)."""
        return ("", 0.0)

    # ---- protocol ---------------------------------------------------------

    def run_precise(self) -> AppRun:
        """The original program: serial topological execution, cached."""
        if self._precise is None:
            self.active_modulation = None
            plan = self.build_regions(threshold=1.0, valve="percent",
                                      parallelism=1)
            result = run_serial(*plan.ordered_regions())
            output = self.extract_output(plan)
            name, value = self.compute_metric(output)
            self._precise = AppRun(result.makespan, output, 0.0, value,
                                   name, result, plan.ordered_regions())
        return self._precise

    def run_fluid(self, threshold: Optional[float] = None,
                  valve: str = "percent",
                  cores: int = PAPER_CORES,
                  overheads: Optional[Overheads] = None,
                  modulation: Optional[ModulationPolicy] = None,
                  parallelism: int = 1,
                  backend: str = "sim",
                  telemetry: Optional[Any] = None,
                  backend_options: Optional[Dict[str, Any]] = None,
                  scheduler: Optional[Any] = None,
                  autotune: Optional[Any] = None) -> AppRun:
        """Execute the fluidized app on the chosen backend.

        ``backend="sim"`` (the default) reports makespans in virtual
        cost units; ``"thread"`` and ``"process"`` report wall-clock
        seconds, so those makespans are only comparable to other
        real-time runs.  The process backend additionally requires the
        app's regions to honour the process-backend contract (honest
        input/output declarations, no aliased payload buffers, a
        picklable ``remote_factory``; see docs/runtime-semantics.md).
        No app's regions carry a factory yet, so ``"process"`` raises
        :class:`~repro.core.errors.SchedulerError` before any body
        runs.

        Pass a :class:`repro.telemetry.Telemetry` via ``telemetry=`` to
        collect structured metrics and a Perfetto-loadable trace from
        any backend (see docs/telemetry.md).  ``backend_options``
        forwards extra constructor knobs to the real-time executors
        (e.g. ``{"slots": 2}``); it is ignored on the simulator, whose
        knobs are explicit parameters here.

        ``scheduler`` selects a :mod:`repro.sched` ready-queue
        discipline — a spec string (``"edf"``,
        ``"bounded:capacity=8,inner=priority"``), a
        :class:`~repro.sched.Scheduler` instance, or ``None`` for the
        paper-faithful FCFS default (see docs/schedulers.md).

        ``autotune`` enables closed-loop SLO autotuning
        (:mod:`repro.tuning`) — a spec string such as
        ``"accuracy_floor:target=0.9"``, a
        :class:`~repro.tuning.ValveAutotuner` instance (single-run), or
        ``None`` to keep thresholds static (see docs/autotuning.md).
        """
        if threshold is None:
            threshold = self.default_threshold
        precise = self.run_precise()
        # Regions are finalized lazily at launch, so apps that build
        # repeated regions may consult this policy's accumulated failure
        # pressure (ModulationPolicy.adjust) while constructing later
        # epochs.
        self.active_modulation = modulation
        plan = self.build_regions(threshold=threshold, valve=valve,
                                  parallelism=parallelism)
        options = backend_options or {}
        if backend == "sim":
            options = {"cores": cores,
                       "overheads": (overheads if overheads is not None
                                     else DEFAULT_OVERHEADS)}
        executor = make_executor(
            backend, modulation=modulation,
            cancel_first_runs=self.cancel_first_runs, telemetry=telemetry,
            scheduler=scheduler, autotune=autotune, **options)
        plan.submit_to(executor)
        result = executor.run()
        output = self.extract_output(plan)
        error = self.compute_error(output, precise.output)
        name, value = self.compute_metric(output)
        return AppRun(result.makespan, output, error, value, name, result,
                      plan.ordered_regions())

    def run_multithreaded_baseline(self, parallelism: int,
                                   cores: int = PAPER_CORES) -> AppRun:
        """The conventional multithreaded (non-fluid) version: the same
        task decomposition with completion valves (Figure 12 baseline).

        The baseline pays the same thread-launch and setup costs as the
        fluid version — a pthread program also forks its workers — but
        none of the fluid-specific costs (valve checks, end checks)."""
        self.active_modulation = None
        plan = self.build_regions(threshold=1.0, valve="percent",
                                  parallelism=parallelism)
        baseline_overheads = Overheads(
            task_init=DEFAULT_OVERHEADS.task_init,
            region_setup=DEFAULT_OVERHEADS.region_setup,
            end_check=0.0, valve_check=0.0, signal=0.0)
        executor = SimExecutor(cores=cores, overheads=baseline_overheads)
        plan.submit_to(executor)
        result = executor.run()
        output = self.extract_output(plan)
        precise = self.run_precise()
        error = self.compute_error(output, precise.output)
        return AppRun(result.makespan, output, error,
                      result=result, regions=plan.ordered_regions())


class SubmitPlan:
    """Regions plus their inter-region dependency topology."""

    def __init__(self):
        self.stages: List[List[FluidRegion]] = []
        self.extras: Dict[str, Any] = {}

    def add_stage(self, regions: Sequence[FluidRegion]) -> None:
        self.stages.append(list(regions))

    def add_region(self, region: FluidRegion) -> FluidRegion:
        self.stages.append([region])
        return region

    def ordered_regions(self) -> List[FluidRegion]:
        return [region for stage in self.stages for region in stage]

    def submit_to(self, executor) -> None:
        submit_stages(executor, self.stages)
