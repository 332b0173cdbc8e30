"""Valves: the condition functions that gate Fluid task start and end.

A valve (``#pragma valve``) is a boolean condition over counts and data.
Start valves decide when a consumer may begin eating a partially-produced
input; end valves on leaf tasks collectively form the region's *quality
function* (Section 3.1).

The stock valves below cover the paper's experiments:

* :class:`CountValve` — the paper's ``ValveCT``: satisfied once a count
  exceeds a threshold.
* :class:`PercentValve` — a count valve whose threshold is a fraction of
  a known payload size; the default start valve in Section 7.2.
* :class:`ConvergenceValve` — satisfied when a tracked statistic stopped
  improving over a window of updates (used for MedusaDock in Figure 8).
* :class:`StabilityValve` — satisfied when the fraction of elements that
  changed in recent rounds drops below a bound (K-means in Figure 8).
* :class:`PredicateValve` — an arbitrary user condition, the hook for
  "application-specific" valves promised in Section 3.3.
* :class:`StalenessValve` — the streaming form of ``ValveCT``: satisfied
  once at most ``k`` of an expected item population are still missing
  ("consume input no staler than k"); the valve behind
  :mod:`repro.stream` stage queues (see docs/streaming.md).

Threshold modulation (Sections 4.4 and 6.1): a user threshold is a
*minimum*; the runtime may tighten the effective threshold toward full
serialization after quality failures.  :meth:`Valve.tighten` implements
one tightening step (a fraction in [0, 1]; 0 changes nothing) and
:meth:`Valve.relax_to_base` undoes it for a fresh region instance.

Floors: :meth:`Valve.shut` is a necessary condition for opening, read
live over the valve's one count.  A count valve is shut below its
threshold, a convergence valve below ``max(min_updates, window + 1)``
observations; the wake rule (``RunContext.woken``) does not check a
parked task whose start valve over a published count is shut.  The
other valves state no floor (``shut`` is None).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from .count import Count
from .data import FluidData
from .errors import ValveError


class Valve:
    """Base class: a named boolean condition over counts/data."""

    def __init__(self, name: str = "valve"):
        self.name = name
        self.checks = 0

    #: set by :meth:`declared` until ``init(...)`` is called (the paper's
    #: two-phase ``#pragma valve {ValveCT v1;}`` ... ``v1.init(ct, t)``).
    _uninitialized = False

    #: The floor: a method True while the valve cannot open, or None
    #: for a valve that states none (subclasses define it).
    shut: Optional[Callable[[], bool]] = None

    @classmethod
    def declared(cls, name: str) -> "Valve":
        """Create an uninitialized valve of this type (FluidPy pragma
        declaration); it must be ``init(...)``-ed before first check."""
        valve = object.__new__(cls)
        Valve.__init__(valve, name)
        valve._uninitialized = True
        return valve

    def _require_initialized(self, operation: str) -> None:
        if self._uninitialized:
            raise ValveError(
                f"valve {self.name!r} {operation} before init(...) was called")

    def check(self) -> bool:
        """Return True when the condition is satisfied.  Never blocks;
        every call evaluates and counts one check."""
        self._require_initialized("checked")
        self.checks += 1
        return self._satisfied()

    def peek(self) -> bool:
        """The verdict :meth:`check` would return now, for diagnostics:
        counts no check."""
        self._require_initialized("checked")
        return self._satisfied()

    def invalidate_memo(self) -> None:
        """No-op: valves cache no verdict.  Kept because
        ``benchmarks/perf/probes.py`` calls it."""

    def _satisfied(self) -> bool:
        raise NotImplementedError

    @property
    def watched_counts(self) -> Sequence[Count]:
        """Counts whose updates may flip this valve; used for wakeups."""
        return ()

    # -- runtime threshold modulation ------------------------------------

    def tighten(self, fraction: float) -> None:
        """Move the effective threshold ``fraction`` (in [0, 1]) of the
        way toward the fully-serialized setting.  No-op for valves
        without thresholds."""
        self._require_initialized("tightened")
        if not 0.0 <= fraction <= 1.0:
            raise ValveError(f"tighten fraction {fraction} outside [0, 1]")

    def relax_to_base(self) -> None:
        """Restore the user-specified threshold."""
        self._require_initialized("relaxed")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name})"


class AlwaysValve(Valve):
    """Unconditionally satisfied (useful default and test double)."""

    def _satisfied(self) -> bool:
        return True


class NeverValve(Valve):
    """Never satisfied; as a start valve it serializes on re-execution
    signals only, as an end valve it forces full re-execution chains."""

    def _satisfied(self) -> bool:
        return False


class CountValve(Valve):
    """The paper's ``ValveCT``: satisfied once ``count > threshold``.

    ``max_threshold`` is the fully-serialized setting (all updates done);
    :meth:`tighten` moves the effective threshold toward it.
    """

    def __init__(self, count: Count, threshold: float,
                 max_threshold: Optional[float] = None,
                 name: str = "valveCT"):
        super().__init__(name)
        if count is None:
            raise ValveError(f"{name}: a CountValve needs a count to watch")
        self.count = count
        self.base_threshold = float(threshold)
        self.threshold = float(threshold)
        self.max_threshold = (float(max_threshold)
                              if max_threshold is not None else float(threshold))
        if self.max_threshold < self.base_threshold:
            raise ValveError(
                f"{name}: max_threshold {self.max_threshold} below base "
                f"threshold {self.base_threshold}")

    def init(self, count: Count, threshold: float,
             max_threshold: Optional[float] = None) -> "CountValve":
        """Mirror of ``v.init(ct, t)`` from the paper's Figure 3."""
        self.count = count
        self.base_threshold = float(threshold)
        self.threshold = float(threshold)
        if max_threshold is not None:
            self.max_threshold = float(max_threshold)
        elif self._uninitialized or self.max_threshold < self.threshold:
            self.max_threshold = self.threshold
        self._uninitialized = False
        return self

    def check(self) -> bool:
        """Every call evaluates: one compare of the count's raw value
        against the live threshold."""
        if self._uninitialized:
            self._require_initialized("checked")
        self.checks += 1
        return self.count._value >= self.threshold

    def _satisfied(self) -> bool:
        return self.count._value >= self.threshold

    def shut(self) -> bool:
        """Below the live threshold: :meth:`check`'s compare, negated."""
        return self.count._value < self.threshold

    @property
    def watched_counts(self) -> Sequence[Count]:
        return (self.count,)

    def tighten(self, fraction: float) -> None:
        super().tighten(fraction)
        self.threshold += (self.max_threshold - self.threshold) * fraction

    def relax_to_base(self) -> None:
        self._require_initialized("relaxed")
        self.threshold = self.base_threshold


class PercentValve(CountValve):
    """Satisfied once ``count >= fraction * total``.

    This is the default start valve of the evaluation: "the dependent
    tasks start their executions when a certain fraction of the payload
    of the producer task has completed" (Section 7.2).
    """

    def __init__(self, count: Count, fraction: float, total: float,
                 name: str = "percent"):
        if not 0.0 <= fraction <= 1.0:
            raise ValveError(f"{name}: fraction {fraction} outside [0, 1]")
        self.fraction = fraction
        self.total = float(total)
        super().__init__(count, threshold=fraction * total,
                         max_threshold=total, name=name)

    def init(self, count: Count, fraction: float,  # type: ignore[override]
             total: float) -> "PercentValve":
        """FluidPy two-phase construction: ``v.init(ct, 0.4, n)``."""
        if not 0.0 <= fraction <= 1.0:
            raise ValveError(f"{self.name}: fraction {fraction} outside [0, 1]")
        self.fraction = fraction
        self.total = float(total)
        return super().init(count, fraction * total, max_threshold=total)


class StalenessValve(CountValve):
    """Satisfied once at most ``k`` of ``expected`` items are missing.

    The continuous-operation reading of the paper's ``ValveCT``: a
    stage queue settles items one by one (delivered or deliberately
    shed), and a consumer may proceed while up to ``k`` items are still
    outstanding — "consume input no staler than k".  As a start valve it
    admits a pipeline stage early; as an end valve it is the quality
    bound "the committed output misses at most k items".

    Implemented as a :class:`CountValve` with ``threshold = expected -
    k`` and ``max_threshold = expected``, so everything count valves
    already have works unchanged: the one-compare check, threshold
    modulation (:meth:`tighten` moves *k* toward 0, i.e. toward full
    serialization), and closed-loop autotuning — the
    :class:`~repro.tuning.ValveAutotuner` actuates the inherited
    threshold, steering ``k`` between the declared bound and 0.
    ``k = 0`` is the lossless FIFO setting: all ``expected`` items must
    be settled, which reproduces precise execution.
    """

    def __init__(self, count: Count, expected: float, k: float = 0,
                 name: str = "staleness"):
        expected = float(expected)
        k = float(k)
        if expected < 0:
            raise ValveError(f"{name}: expected {expected} must be >= 0")
        if not 0.0 <= k <= expected:
            raise ValveError(
                f"{name}: staleness bound k={k} outside [0, {expected:g}]")
        self.expected = expected
        super().__init__(count, threshold=expected - k,
                         max_threshold=expected, name=name)

    def init(self, count: Count, expected: float,  # type: ignore[override]
             k: float = 0) -> "StalenessValve":
        """FluidPy two-phase construction: ``v.init(settled, n, k)``."""
        expected = float(expected)
        k = float(k)
        if not 0.0 <= k <= expected:
            raise ValveError(
                f"{self.name}: staleness bound k={k} outside "
                f"[0, {expected:g}]")
        self.expected = expected
        return super().init(count, expected - k, max_threshold=expected)

    @property
    def k(self) -> float:
        """The *effective* staleness bound under the current threshold.

        Modulation and autotuning move :attr:`threshold` toward
        ``expected`` (k -> 0); consumers that scale their tolerance with
        the valve (stage-queue drains) read this, not the constructor
        argument.
        """
        return max(0.0, self.expected - self.threshold)

    @property
    def base_k(self) -> float:
        """The user-declared staleness bound (before modulation)."""
        return max(0.0, self.expected - self.base_threshold)

    def set_k(self, k: float) -> None:
        """Directly re-point the effective bound (keeps base intact)."""
        if not 0.0 <= k <= self.expected:
            raise ValveError(
                f"{self.name}: staleness bound k={k} outside "
                f"[0, {self.expected:g}]")
        self.threshold = self.expected - float(k)


class _HistoryValve(Valve):
    """A valve that keeps every visible update of one count."""

    count: Optional[Count] = None

    def _watch(self, count: Count) -> None:
        """Record ``count``'s updates from an empty history, dropping
        the subscription to any earlier count (``init`` re-watches)."""
        if self.count is not None:
            self.count.unsubscribe(self._observe)
        self.count = count
        self._history: List[Any] = []
        count.subscribe(self._observe)

    def _observe(self, count: Count, value: Any) -> None:
        self._history.append(value)

    @property
    def watched_counts(self) -> Sequence[Count]:
        return (self.count,)


class ConvergenceValve(_HistoryValve):
    """Satisfied when a tracked statistic stops improving.

    Watches a count that records a score (e.g. the current minimum pose
    energy) and is satisfied once the best value observed has not improved
    by more than ``tolerance`` (relative) over the last ``window`` visible
    updates, with at least ``min_updates`` observations seen.  Below
    that observation floor the valve is :meth:`shut`.
    """

    def __init__(self, count: Count, window: int = 8,
                 tolerance: float = 1e-3, min_updates: int = 1,
                 mode: str = "min", name: str = "converge"):
        super().__init__(name)
        if window < 1:
            raise ValveError(f"{name}: window must be >= 1")
        if mode not in ("min", "max"):
            raise ValveError(f"{name}: mode must be 'min' or 'max'")
        self.window = window
        self.base_window = window
        self.max_window = window * 8
        self.tolerance = tolerance
        self.min_updates = min_updates
        self.mode = mode
        self._watch(count)

    def init(self, count: Count, window: int = 8, tolerance: float = 1e-3,
             min_updates: int = 1, mode: str = "min") -> "ConvergenceValve":
        """FluidPy two-phase construction."""
        self.__init__(count, window=window, tolerance=tolerance,
                      min_updates=min_updates, mode=mode, name=self.name)
        self._uninitialized = False
        return self

    def shut(self) -> bool:
        """Too few observations for a verdict (the observation floor)."""
        return len(self._history) < max(self.min_updates, self.window + 1)

    def _satisfied(self) -> bool:
        if self.shut():
            return False
        recent = self._history[-(self.window + 1):]
        old, new = recent[0], recent[-1]
        if self.mode == "min":
            improvement = old - new
        else:
            improvement = new - old
        scale = max(abs(old), abs(new), 1e-12)
        return improvement / scale <= self.tolerance

    def tighten(self, fraction: float) -> None:
        super().tighten(fraction)
        self.window = int(round(self.window +
                                (self.max_window - self.window) * fraction))

    def relax_to_base(self) -> None:
        self._require_initialized("relaxed")
        self.window = self.base_window


class StabilityValve(_HistoryValve):
    """Satisfied when recent rounds changed few enough elements.

    The producer publishes, once per round, the number of elements that
    changed (e.g. pixels that switched cluster) into ``changed_count``.
    The valve is satisfied when ``changed / total <= epsilon`` for the
    last ``rounds`` consecutive published rounds.
    """

    def __init__(self, changed_count: Count, total: float,
                 epsilon: float = 0.01, rounds: int = 2,
                 name: str = "stability"):
        super().__init__(name)
        if total <= 0:
            raise ValveError(f"{name}: total must be positive")
        if rounds < 1:
            raise ValveError(f"{name}: rounds must be >= 1")
        self.total = float(total)
        self.epsilon = epsilon
        self.rounds = rounds
        self.base_rounds = rounds
        self.max_rounds = rounds * 8
        self._watch(changed_count)

    def init(self, changed_count: Count, total: float, epsilon: float = 0.01,
             rounds: int = 2) -> "StabilityValve":
        """FluidPy two-phase construction."""
        self.__init__(changed_count, total, epsilon=epsilon, rounds=rounds,
                      name=self.name)
        self._uninitialized = False
        return self

    def _observe(self, count: Count, value: Any) -> None:
        self._history.append(float(value))

    def _satisfied(self) -> bool:
        if len(self._history) < self.rounds:
            return False
        recent = self._history[-self.rounds:]
        return all(changed / self.total <= self.epsilon for changed in recent)

    def tighten(self, fraction: float) -> None:
        super().tighten(fraction)
        if fraction:
            self.rounds = min(self.max_rounds, self.rounds + max(
                1, int((self.max_rounds - self.rounds) * fraction)))

    def relax_to_base(self) -> None:
        self._require_initialized("relaxed")
        self.rounds = self.base_rounds


class PredicateValve(Valve):
    """An arbitrary application-specific condition.

    ``predicate`` is re-evaluated on every check; ``watches`` lists the
    counts whose updates should trigger re-checks.
    """

    def __init__(self, predicate: Callable[[], bool],
                 watches: Sequence[Count] = (), name: str = "predicate"):
        super().__init__(name)
        self.predicate = predicate
        self._watches = tuple(watches)

    def _satisfied(self) -> bool:
        return bool(self.predicate())

    @property
    def watched_counts(self) -> Sequence[Count]:
        return self._watches


class DataFinalValve(Valve):
    """Satisfied once a data cell is final: the fully-serialized valve.

    Attaching these to every edge reproduces precise execution, which is
    exactly the paper's observation that "setting all valves to require
    the completion of antecedents ... will result in a precise execution".
    """

    def __init__(self, data: FluidData, name: str = "final"):
        super().__init__(name)
        self.data = data

    def init(self, data: FluidData) -> "DataFinalValve":
        """FluidPy two-phase construction: ``v.init(d_ready)``."""
        self.data = data
        self._uninitialized = False
        return self

    def _satisfied(self) -> bool:
        return self.data.final
