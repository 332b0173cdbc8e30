"""Standard benchmark workloads and comparison runners.

``standard_suite`` builds the application/input matrix of the paper's
Figure 6 at repository scale (inputs sized so the whole benchmark run
finishes in minutes on a laptop while preserving every sensitivity axis:
graph density, image noise, vector size, network width, protein count).
``run_comparison`` executes precise-vs-fluid for one app and returns a
:class:`BenchRow` with the normalized numbers the figures plot.

``run_backend_bench`` is the real-core counterpart of Figure 12: it
times the same CPU-bound fan-out region on the thread backend and on a
requested backend, reporting wall-clock seconds and the speedup.  The
workload is pure Python (no numpy kernels) so the thread backend is
genuinely GIL-bound and the process backend's parallelism is visible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..apps.base import DEFAULT_OVERHEADS, FluidApp
from ..core.region import FluidRegion
from ..runtime.executor import make_executor
from ..apps.bellman_ford import BellmanFordApp
from ..apps.dct import DCTApp
from ..apps.edge_detection import EdgeDetectionApp
from ..apps.fft import FFTApp
from ..apps.graph_coloring import GraphColoringApp
from ..apps.kmeans import KMeansApp
from ..apps.medusadock import MedusaDockApp
from ..apps.neural_network import NeuralNetworkApp
from ..workloads import (image_classes, random_graph, random_tensor,
                         random_vector, synthetic_digits, synthetic_image,
                         synthetic_poses)

#: Per-app valve used for the headline Figure-6 numbers; MedusaDock's
#: preferred valve is convergence (Section 7.3).
HEADLINE_VALVE: Dict[str, str] = {"medusadock": "convergence"}


@dataclass
class BenchRow:
    """One normalized latency/accuracy data point.

    Besides the Figure-6 numbers the row carries the runtime-efficiency
    counters the baseline machinery (:mod:`repro.bench.baseline`)
    tracks across revisions: how many valve evaluations the fluid run
    paid for, how many ``check()`` calls memoization answered without
    recomputing, and how many task re-executions the valves triggered.
    """

    app: str
    input_name: str
    normalized_latency: float
    normalized_accuracy: float
    native_metric: str
    native_value: float
    precise_makespan: float
    fluid_makespan: float
    valve_checks: int = 0
    valve_checks_skipped: int = 0
    reexecutions: int = 0
    #: Best-of-``repeat`` makespan; the wall-clock latency gate uses it
    #: because scheduler noise is additive, so the minimum converges to
    #: the true runtime while the mean tracks transient load.  ``None``
    #: for single runs (the mean IS the single measurement).
    fluid_makespan_min: Optional[float] = None

    @property
    def gate_makespan(self) -> float:
        """The makespan the latency gate compares (min when repeated)."""
        if self.fluid_makespan_min is not None:
            return self.fluid_makespan_min
        return self.fluid_makespan

    @property
    def key(self) -> str:
        """Stable workload identifier used by baseline files."""
        return f"{self.app}/{self.input_name}"

    def as_list(self) -> List:
        return [self.app, self.input_name,
                self.normalized_latency, self.normalized_accuracy,
                f"{self.native_metric}={self.native_value:.4g}"]


def collect_region_counters(regions) -> "tuple[int, int, int]":
    """Sum (valve checks, memo-skipped checks, re-executions) over regions.

    A re-execution is any completed run of a task beyond its first —
    the work the approximate-concurrency gamble pays when an end check
    fails, and one of the quantities baselines guard across revisions.
    """
    checks = skipped = reexecutions = 0
    for region in regions:
        for valve in region.valves:
            checks += valve.checks
            skipped += valve.checks_skipped
        for task in region.tasks:
            reexecutions += max(0, task.stats.runs - 1)
    return checks, skipped, reexecutions


def run_comparison(app: FluidApp, input_name: str,
                   threshold: Optional[float] = None,
                   valve: Optional[str] = None,
                   repeat: int = 1,
                   **fluid_kwargs) -> BenchRow:
    """Run precise once and fluid ``repeat`` times; return the mean row.

    ``repeat > 1`` reports per-workload *means* of latency and the
    runtime counters — essential for wall-clock backends, whose
    single-run times on these repository-scale inputs are milliseconds
    and dominated by scheduler noise.  A telemetry object in
    ``fluid_kwargs`` instruments only the first fluid run (one bus, one
    clock).
    """
    if valve is None:
        valve = HEADLINE_VALVE.get(app.name, "percent")
    precise = app.run_precise()
    repeat = max(1, repeat)
    runs = []
    for index in range(repeat):
        kwargs = dict(fluid_kwargs)
        if index > 0:
            kwargs.pop("telemetry", None)
        fluid = app.run_fluid(threshold=threshold, valve=valve, **kwargs)
        runs.append((fluid, collect_region_counters(fluid.regions)))
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    first = runs[0][0]
    return BenchRow(
        app=app.name,
        input_name=input_name,
        normalized_latency=mean([f.makespan for f, _c in runs])
        / precise.makespan,
        normalized_accuracy=mean([f.accuracy for f, _c in runs]),
        native_metric=first.metric_name,
        native_value=mean([f.metric for f, _c in runs]),
        precise_makespan=precise.makespan,
        fluid_makespan=mean([f.makespan for f, _c in runs]),
        valve_checks=round(mean([c[0] for _f, c in runs])),
        valve_checks_skipped=round(mean([c[1] for _f, c in runs])),
        reexecutions=round(mean([c[2] for _f, c in runs])),
        fluid_makespan_min=(min(f.makespan for f, _c in runs)
                            if repeat > 1 else None))


# --------------------------------------------------------------- factories

def kmeans_inputs() -> Dict[str, Callable[[], FluidApp]]:
    """Three pixel-diversity classes (the paper's three input images)."""
    return {
        f"div{diversity}": (lambda diversity=diversity: KMeansApp(
            synthetic_image(40, 40, diversity=diversity, noise=6.0,
                            seed=diversity),
            num_clusters=max(3, diversity), epochs=6))
        for diversity in (3, 6, 9)
    }


def bellman_ford_inputs() -> Dict[str, Callable[[], FluidApp]]:
    """Size x density grid (the paper's 1K_200K ... 5K_2M axis)."""
    shapes = {"1K_4K": (1000, 4000), "1K_16K": (1000, 16000),
              "2K_8K": (2000, 8000), "2K_32K": (2000, 32000)}
    return {name: (lambda n=n, m=m, name=name: BellmanFordApp(
        random_graph(n, m, seed=13, name=name), iterations=8))
        for name, (n, m) in shapes.items()}


def graph_coloring_inputs() -> Dict[str, Callable[[], FluidApp]]:
    shapes = {"1K_4K": (1000, 4000), "1K_12K": (1000, 12000),
              "2K_8K": (2000, 8000), "2K_24K": (2000, 24000)}
    return {name: (lambda n=n, m=m, name=name: GraphColoringApp(
        random_graph(n, m, seed=17, name=name)))
        for name, (n, m) in shapes.items()}


def edge_detection_inputs() -> Dict[str, Callable[[], FluidApp]]:
    classes = image_classes(48, 48, seed=23)
    return {name: (lambda image=image: EdgeDetectionApp(image))
            for name, image in classes.items()}


def fft_inputs() -> Dict[str, Callable[[], FluidApp]]:
    return {
        "N1K": lambda: FFTApp([random_vector(1024, seed=29)]),
        "N4K": lambda: FFTApp([random_vector(4096, seed=29)]),
    }


def dct_inputs() -> Dict[str, Callable[[], FluidApp]]:
    return {
        "64x64": lambda: DCTApp(random_tensor(64, 64, seed=31)),
        "128x128": lambda: DCTApp(random_tensor(128, 128, seed=31)),
    }


def neural_network_inputs() -> Dict[str, Callable[[], FluidApp]]:
    dataset = synthetic_digits(samples=256, features=196, seed=37)
    return {
        "lenet": lambda: NeuralNetworkApp(dataset, architecture="lenet"),
        "vgg": lambda: NeuralNetworkApp(dataset, architecture="vgg"),
    }


def medusadock_inputs() -> Dict[str, Callable[[], FluidApp]]:
    def build(placement):
        dockings = [synthetic_poses(num_poses=64, seed=s,
                                    placement=placement, name=f"p{s}")
                    for s in range(6)]
        return MedusaDockApp(dockings)

    return {"pdb-early": lambda: build("early")}


def standard_suite() -> Dict[str, Dict[str, Callable[[], FluidApp]]]:
    """The full Figure-6 application/input matrix."""
    return {
        "kmeans": kmeans_inputs(),
        "bellman_ford": bellman_ford_inputs(),
        "graph_coloring": graph_coloring_inputs(),
        "edge_detection": edge_detection_inputs(),
        "fft": fft_inputs(),
        "dct": dct_inputs(),
        "neural_network": neural_network_inputs(),
        "medusadock": medusadock_inputs(),
    }


def bench_overheads():
    """The overhead model used by all benchmarks (see apps.base)."""
    return DEFAULT_OVERHEADS


# ------------------------------------------------- real-core backend bench

def _lcg_kernel(seed: int, iterations: int) -> int:
    """A pure-Python 64-bit LCG loop: CPU-bound, GIL-bound, deterministic."""
    acc = seed
    for _ in range(iterations):
        acc = (acc * 6364136223846793005 + 1442695040888963407) % (1 << 64)
    return acc


def make_cpu_bound_region(name: str = "cpu_bound", tasks: int = 4,
                          iterations: int = 200_000,
                          chunks: int = 16) -> FluidRegion:
    """An embarrassingly parallel fan-out of pure-Python crunch tasks.

    A trivial header task distributes one seed per crunch task; each
    crunch task is gated on its own seed cell being final, runs exactly
    once, and writes its own output cell.  The region is therefore
    deterministic on every backend and honours the process-backend
    contract (honest declarations, one payload object per cell, no
    aliasing).
    """
    from ..core.valves import DataFinalValve

    class _CpuBound(FluidRegion):
        def build(self):
            seeds = self.input_data(
                "seeds", [7 + 13 * index for index in range(tasks)])
            cells = [self.add_data(f"seed_{index}", 0)
                     for index in range(tasks)]

            def distribute(ctx):
                values = seeds.read()
                for index in range(tasks):
                    cells[index].write(values[index])
                    yield 1.0

            self.add_task("distribute", distribute,
                          inputs=[seeds], outputs=list(cells))
            for index in range(tasks):
                out = self.add_data(f"out_{index}", 0)
                cell = cells[index]

                def body(ctx, cell=cell, out=out):
                    acc = cell.read()
                    step = max(1, iterations // chunks)
                    done = 0
                    while done < iterations:
                        count = min(step, iterations - done)
                        acc = _lcg_kernel(acc, count)
                        done += count
                        yield float(count)
                    out.write(acc)
                    yield 1.0

                self.add_task(f"crunch_{index}", body,
                              start_valves=[DataFinalValve(cell)],
                              inputs=[cell], outputs=[out])

    region = _CpuBound(name)
    # The factory is this module-level function itself, so the region
    # can ride a PersistentProcessPool (workers rebuild it from the
    # shape parameters instead of inheriting closures by fork).
    region.remote_factory = (make_cpu_bound_region,
                             (name, tasks, iterations, chunks), {})
    return region


def cpu_bound_shapes(quick: bool = False) -> Dict[str, "tuple[int, int]"]:
    """The (tasks, iterations) grid for the real-backend baseline suite."""
    if quick:
        return {"t4_i20k": (4, 20_000)}
    return {"t4_i80k": (4, 80_000), "t8_i80k": (8, 80_000)}


def run_region_comparison(input_name: str, tasks: int, iterations: int,
                          backend: str, workers: Optional[int] = None,
                          chunks: int = 16, repeat: int = 1,
                          telemetry=None) -> BenchRow:
    """Precise-vs-fluid :class:`BenchRow` for the CPU-bound fan-out region.

    The Figure-6 applications mostly violate the process-backend payload
    contract (aliased buffers), so real-backend baselines use this
    contract-honouring workload instead.  The precise reference is the
    same computation as a plain serial Python loop; both sides are
    wall-clock seconds, so rows are comparable to other runs of the same
    backend (and to their own recorded baseline), not to sim rows.
    """
    if backend not in ("thread", "process"):
        raise ValueError(
            f"run_region_comparison needs a real-time backend, not "
            f"{backend!r}")
    start = time.perf_counter()
    expected = [_lcg_kernel(7 + 13 * index, iterations)
                for index in range(tasks)]
    precise_seconds = time.perf_counter() - start

    runs = []
    for index in range(max(1, repeat)):
        region = make_cpu_bound_region(tasks=tasks, iterations=iterations,
                                       chunks=chunks)
        kwargs = {"timeout": 600.0}
        if backend == "process" and workers:
            kwargs["workers"] = workers
        if telemetry is not None and index == 0:
            kwargs["telemetry"] = telemetry
        executor = make_executor(backend, **kwargs)
        executor.submit(region)
        start = time.perf_counter()
        executor.run()
        fluid_seconds = time.perf_counter() - start
        outputs = [region.output(f"out_{i}") for i in range(tasks)]
        runs.append((fluid_seconds, outputs == expected,
                     collect_region_counters([region])))
    mean = lambda values: sum(values) / len(values)  # noqa: E731
    fluid_mean = mean([seconds for seconds, _ok, _c in runs])
    exact = all(ok for _seconds, ok, _c in runs)
    precise_floor = max(precise_seconds, 1e-9)
    return BenchRow(
        app="cpu_bound",
        input_name=input_name,
        normalized_latency=fluid_mean / precise_floor,
        normalized_accuracy=1.0 if exact else 0.0,
        native_metric="exact",
        native_value=1.0 if exact else 0.0,
        precise_makespan=precise_seconds,
        fluid_makespan=fluid_mean,
        valve_checks=round(mean([c[0] for _s, _ok, c in runs])),
        valve_checks_skipped=round(mean([c[1] for _s, _ok, c in runs])),
        reexecutions=round(mean([c[2] for _s, _ok, c in runs])),
        fluid_makespan_min=(min(s for s, _ok, _c in runs)
                            if repeat > 1 else None))


@dataclass
class BackendBenchRow:
    """Wall-clock comparison of one backend against the thread baseline."""

    backend: str
    workers: int
    tasks: int
    iterations: int
    thread_seconds: float
    backend_seconds: float
    outputs_match: bool

    @property
    def speedup(self) -> float:
        if self.backend_seconds <= 0:
            return float("inf")
        return self.thread_seconds / self.backend_seconds


def run_backend_bench(backend: str = "process",
                      workers: Optional[int] = None,
                      tasks: Optional[int] = None,
                      scale: float = 1.0,
                      chunks: int = 16,
                      telemetry=None) -> BackendBenchRow:
    """Time a CPU-bound fan-out on ``backend`` against the thread backend.

    ``scale`` multiplies the per-task iteration count (tests pass a tiny
    value; the CLI default is sized for a seconds-long measurement).
    Outputs of both timed runs are checked against the serially computed
    expected values.  ``backend`` must be a real-time backend ("thread"
    or "process"); the simulator has no wall clock to compare.

    ``telemetry``, when given, instruments the *measured* backend run
    only — the thread baseline stays uninstrumented.
    """
    if backend not in ("thread", "process"):
        raise ValueError(
            f"run_backend_bench compares wall clocks; backend {backend!r} "
            "is not a real-time backend (use 'thread' or 'process')")
    workers = workers if workers else (os.cpu_count() or 1)
    tasks = tasks if tasks else max(2, workers)
    iterations = max(1, int(200_000 * scale))
    expected = [_lcg_kernel(7 + 13 * index, iterations)
                for index in range(tasks)]

    def timed(which: str, telemetry=None):
        region = make_cpu_bound_region(tasks=tasks, iterations=iterations,
                                       chunks=chunks)
        kwargs = {"timeout": 600.0}
        if which == "process":
            kwargs["workers"] = workers
        if telemetry is not None:
            kwargs["telemetry"] = telemetry
        executor = make_executor(which, **kwargs)
        executor.submit(region)
        start = time.perf_counter()
        executor.run()
        elapsed = time.perf_counter() - start
        outputs = [region.output(f"out_{index}") for index in range(tasks)]
        return elapsed, outputs

    thread_seconds, thread_outputs = timed("thread")
    backend_seconds, backend_outputs = timed(backend, telemetry=telemetry)
    return BackendBenchRow(
        backend=backend, workers=workers, tasks=tasks, iterations=iterations,
        thread_seconds=thread_seconds, backend_seconds=backend_seconds,
        outputs_match=(thread_outputs == expected
                       and backend_outputs == expected))
