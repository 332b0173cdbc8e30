"""Valve tuning: offline threshold search and online SLO autotuning.

Two generations of the paper's "future work" auto-tuning live here:

* :mod:`repro.tuning.offline` — the original bisection search for the
  cheapest feasible static threshold (:class:`ThresholdTuner`).
  Re-exported at the package root so historic
  ``from repro.tuning import ThresholdTuner`` imports keep working.
* :mod:`repro.tuning.autotune` — the closed-loop
  :class:`ValveAutotuner`, which steers start-valve thresholds at
  runtime against an ``accuracy_floor`` :class:`SLO` with one AIMD
  control law.

Executors accept ``autotune=`` specs via :func:`make_autotuner`;
misconfiguration raises :class:`~repro.core.errors.TuningError`.
"""

from ..core.errors import TuningError
from .autotune import (SLO, SLO_KINDS, TuneDecision, ValveAutotuner,
                       make_autotuner)
from .offline import ThresholdTuner, TuningProbe, TuningResult

__all__ = [
    "SLO",
    "SLO_KINDS",
    "TuneDecision",
    "ValveAutotuner",
    "make_autotuner",
    "ThresholdTuner",
    "TuningProbe",
    "TuningResult",
    "TuningError",
]
