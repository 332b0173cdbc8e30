"""Offline valve-threshold tuning (the paper's Section 4.4).

The paper leaves two auto-tuning mechanisms to future work:

1. *runtime modulation* — tighten thresholds toward full serialization
   after quality failures.  That part ships in the core as
   :class:`repro.core.guard.ModulationPolicy`, and the *closed-loop*
   generalization — an online controller steering thresholds against a
   declared SLO — lives next door in :mod:`repro.tuning.autotune`.
2. *offline auto-tuning* — "ML-based policies could be deployed to
   auto-tune both the types of valves and the thresholds ... safe to
   automate for task chains that end in user-specified quality
   functions".  This module implements that search.

:class:`ThresholdTuner` finds the smallest start-valve threshold whose
measured error stays within a budget.  Because a task's output quality
is monotone in how much of its input had been produced (a higher
threshold can only yield more precise input — the same argument as the
paper's "any effective threshold value between the specified value and
full serialization is valid"), the error-vs-threshold curve is
*approximately* monotone and a bisection converges quickly; the tuner
still verifies the returned operating point by direct measurement, so a
non-monotone pocket can cost extra probes but never an invalid result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..apps.base import FluidApp


@dataclass
class TuningProbe:
    """One measured operating point."""
    threshold: float
    valve: str
    normalized_latency: float
    error: float

    @property
    def feasible(self) -> bool:
        return self.error <= self._budget

    _budget: float = field(default=0.0, repr=False)


@dataclass
class TuningResult:
    """Outcome of a tuning run."""
    threshold: float
    valve: str
    normalized_latency: float
    error: float
    probes: List[TuningProbe]

    @property
    def num_probes(self) -> int:
        return len(self.probes)


class ThresholdTuner:
    """Bisection search for the cheapest threshold within an error budget.

    Parameters
    ----------
    error_budget:
        Maximum tolerated app error (0 = exact, 1 = worthless).
    resolution:
        Stop once the bracket is narrower than this.
    """

    def __init__(self, error_budget: float = 0.02,
                 resolution: float = 0.05,
                 low: float = 0.0, high: float = 1.0):
        if not 0.0 <= error_budget <= 1.0:
            raise ValueError("error budget must be within [0, 1]")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.error_budget = error_budget
        self.resolution = resolution
        self.low = low
        self.high = high

    def probe(self, app: FluidApp, threshold: float,
              valve: str = "percent", **fluid_kwargs) -> TuningProbe:
        precise = app.run_precise()
        fluid = app.run_fluid(threshold=threshold, valve=valve,
                              **fluid_kwargs)
        return TuningProbe(threshold, valve,
                           fluid.makespan / precise.makespan,
                           fluid.error, _budget=self.error_budget)

    def tune(self, app: FluidApp, valve: str = "percent",
             **fluid_kwargs) -> TuningResult:
        """Return the lowest feasible threshold (and its latency)."""
        probes: List[TuningProbe] = []

        def measure(threshold: float) -> TuningProbe:
            probe = self.probe(app, threshold, valve, **fluid_kwargs)
            probes.append(probe)
            return probe

        high_probe = measure(self.high)
        if not high_probe.feasible:
            # Full serialization itself violates the budget only if the
            # budget is stricter than the app's intrinsic noise; report
            # the serialized point rather than failing.
            return TuningResult(self.high, valve,
                                high_probe.normalized_latency,
                                high_probe.error, probes)
        low_probe = measure(self.low)
        if low_probe.feasible:
            return TuningResult(self.low, valve,
                                low_probe.normalized_latency,
                                low_probe.error, probes)

        low, high = self.low, self.high
        best = high_probe
        best_threshold = self.high
        while high - low > self.resolution:
            mid = (low + high) / 2.0
            probe = measure(mid)
            if probe.feasible:
                high = mid
                if probe.normalized_latency <= best.normalized_latency:
                    best, best_threshold = probe, mid
            else:
                low = mid
        if not best.feasible:  # pragma: no cover - defensive
            best, best_threshold = high_probe, self.high
        return TuningResult(best_threshold, valve,
                            best.normalized_latency, best.error, probes)
