"""Closed-loop valve autotuning against an accuracy-floor SLO.

The paper's threshold modulation (Sections 4.4 and 6.1) tightens valves
after quality failures; :class:`ValveAutotuner` generalizes it into an
online feedback controller in the spirit of significance-aware runtimes
(Vassiliadis et al.): subscribe to the telemetry bus, fold the run's
end-valve verdicts into an SLO error, and steer start-valve thresholds
at runtime with one AIMD control law.

The SLO is ``accuracy_floor`` (minimize makespan s.t. quality >= floor).
Feedback is the *end-valve verdict stream*: each evaluated quality check
in any attached region contributes one pass/fail sample, and every
``window`` samples the tuner compares the window pass rate against the
floor.  The cadence is event-count-based, not clock-based, and the pass
rate is order-invariant within a window, so on a deterministic schedule
all three backends take *identical* tuning decisions (the parity suite
pins this).  The window is run-global rather than per-region because
the SLO is a run property and per-region feedback is sparse: an
epoch-structured app like K-means emits only one quality verdict per
epoch region.

Control law
-----------

AIMD, TCP style, on the window's signed error ``target - pass rate``
(positive means tighten).  The *rate* being controlled is relaxation
(``1 - position``): on a violation beyond :data:`DEADBAND` the tuner
backs off multiplicatively, jumping :data:`BACKOFF` of the remaining
distance toward full serialization; while the floor is met with margin
it relaxes additively by :data:`RELAX_STEP`, probing for concurrency.
Errors inside the deadband hold the position.

Positions and bounds
--------------------

The tuner state is one scalar *position* in ``[-1, 1]``: ``0`` is every
valve at its declared base threshold, ``1`` is full serialization, and
negative values relax below base — reachable only when the tuner was
built with ``relax_floor=`` (the paper treats user thresholds as
minimums, so under-relaxation is opt-in).  A decision moves the
position and actuates the tunable start valves of *every* attached
region; regions attached later inherit the current position on
attach — the carry-over that lets epoch-structured apps (K-means)
start later regions at the operating point earlier epochs learned,
exactly like ``ModulationPolicy``'s failure pressure.

Only valves with tightening headroom are actuated: ``CountValve`` /
``PercentValve`` move ``threshold`` within ``[base, max_threshold]``
(this includes :class:`~repro.core.valves.StalenessValve`, whose
threshold *is* ``expected - k`` — tightening steers the staleness
bound of an attached :class:`~repro.stream.StageQueue` toward FIFO),
``ConvergenceValve`` moves ``window``, ``StabilityValve`` moves
``rounds``.  Valves whose ceiling equals their base (plain counts,
handshake valves) and opaque :class:`~repro.core.valves.PredicateValve`
conditions are left alone.

Every adjustment is published as a ``tune``-kind bus event (observable
in SchedLab replays and the Perfetto export) and counted in the
``tune.*`` metrics; structural traces only record ``sched``/``guard``
events, so ``autotune=None`` (and even an idle tuner) leaves golden
traces bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.errors import TuningError
from ..core.valves import ConvergenceValve, CountValve, StabilityValve, Valve

SLO_KINDS = ("accuracy_floor",)

#: Additive relaxation per window that meets the floor with margin.
RELAX_STEP = 0.05
#: Share of the remaining distance to serialization taken on a violation.
BACKOFF = 0.5
#: Errors within this band of the floor hold the position.
DEADBAND = 0.02

#: The options an ``accuracy_floor:key=value,...`` spec accepts.
SPEC_OPTIONS = ("target", "window", "relax_floor")


@dataclass(frozen=True)
class SLO:
    """A declared service-level objective for one fluid run."""

    kind: str
    target: float

    def __post_init__(self):
        if self.kind not in SLO_KINDS:
            raise TuningError(
                f"unknown SLO kind {self.kind!r}; expected one of "
                + ", ".join(SLO_KINDS))
        if not 0.0 < self.target <= 1.0:
            raise TuningError(
                f"accuracy_floor target {self.target} outside (0, 1]")

    @classmethod
    def accuracy_floor(cls, target: float = 0.9) -> "SLO":
        """Quality floor: window end-valve pass rate must stay >= target."""
        return cls("accuracy_floor", float(target))


@dataclass(frozen=True)
class TuneDecision:
    """One applied adjustment (the unit the parity suite compares)."""

    index: int
    region: str
    metric: float   # window pass rate
    error: float    # signed; positive = tighten
    before: float   # position before
    after: float    # position after


def aimd_step(error: float, position: float) -> float:
    """The signed position delta for a window's ``error`` at
    ``position`` (see the module doc's control law)."""
    if error > DEADBAND:
        return BACKOFF * (1.0 - position)
    if error < -DEADBAND:
        return -RELAX_STEP
    return 0.0


class _TunedValve:
    """One actuatable valve: bounds plus the attribute the tuner moves."""

    __slots__ = ("valve", "attr", "lo", "base", "hi", "integral")

    def __init__(self, valve: Valve, attr: str, lo: float, base: float,
                 hi: float, integral: bool):
        self.valve = valve
        self.attr = attr
        self.lo = lo
        self.base = base
        self.hi = hi
        self.integral = integral

    def apply(self, position: float) -> None:
        if position >= 0:
            value = self.base + position * (self.hi - self.base)
        else:
            value = self.base + position * (self.base - self.lo)
        if self.integral:
            value = max(1, int(round(value)))
        setattr(self.valve, self.attr, value)


def _tuned_valve(valve: Valve,
                 relax_floor: Optional[float]) -> Optional[_TunedValve]:
    """Bounds for one valve, or None when it has no tuning headroom.

    A valve whose ceiling equals its base declared no fluidization
    range — a plain handshake ``CountValve``, say — and is left alone
    entirely: ``relax_floor`` must not push such a valve below the only
    threshold its author ever asked for.
    """
    if isinstance(valve, CountValve):      # PercentValve included
        base, hi = valve.base_threshold, valve.max_threshold
        if hi <= base:
            return None
        lo = base if relax_floor is None else min(base, relax_floor * hi)
        return _TunedValve(valve, "threshold", lo, base, hi, integral=False)
    if isinstance(valve, ConvergenceValve):
        base, hi = valve.base_window, valve.max_window
        if hi <= base:
            return None
        lo = base if relax_floor is None else min(
            base, max(1, int(round(relax_floor * hi))))
        return _TunedValve(valve, "window", lo, base, hi, integral=True)
    if isinstance(valve, StabilityValve):
        base, hi = valve.base_rounds, valve.max_rounds
        if hi <= base:
            return None
        lo = base if relax_floor is None else min(
            base, max(1, int(round(relax_floor * hi))))
        return _TunedValve(valve, "rounds", lo, base, hi, integral=True)
    return None   # Always/Never/Predicate/DataFinal: not actuatable


def _check_window(window: Any) -> int:
    """``window`` as a whole number of samples >= 1, or TuningError."""
    try:
        whole = float(window).is_integer() and window >= 1
    except (TypeError, ValueError):
        whole = False
    if not whole:
        raise TuningError(
            f"autotuner option 'window' needs a whole number >= 1, "
            f"got {window!r}")
    return int(window)


class ValveAutotuner:
    """Online valve-threshold controller (see module doc).

    Like :class:`repro.sched.Scheduler`, a tuner instance is a
    *single-run* object: a run binds it to its telemetry bus and it
    accumulates that run's decisions (a ``Pipeline.run`` is one run over
    one bus, however many windows it has).  Pass a spec *string* through
    harnesses that execute many runs — each run then builds its own
    tuner via :func:`make_autotuner`.
    """

    def __init__(self, slo: SLO, window: int = 8,
                 relax_floor: Optional[float] = None):
        if not isinstance(slo, SLO):
            raise TuningError(f"slo must be an SLO, got {slo!r}")
        self.slo = slo
        self.window = _check_window(window)
        if relax_floor is not None and not 0.0 <= relax_floor < 1.0:
            raise TuningError(
                f"autotuner option 'relax_floor' {relax_floor} outside "
                "[0, 1)")
        self.relax_floor = relax_floor
        self.floor_position = -1.0 if relax_floor is not None else 0.0
        #: current operating point; regions attached later inherit it.
        self.position = 0.0
        self.decisions: List[TuneDecision] = []
        self.windows = 0
        self.adjustments = 0
        self.tightenings = 0
        self.relaxations = 0
        #: region name -> its tunable start valves.
        self._regions: Dict[str, List[_TunedValve]] = {}
        # Run-global feedback window (see module doc for why it is not
        # per-region).
        self._samples = 0
        self._passes = 0
        self._bus: Optional[Any] = None
        self._bound = False

    # ------------------------------------------------------ executor API

    def bind(self, bus: Optional[Any]) -> "ValveAutotuner":
        """Subscribe to a run's bus.  Single-run means one bus: binding
        to the bus already held is a no-op (every window run of a
        ``Pipeline`` shares one), binding to another raises."""
        if self._bound:
            if bus is self._bus:
                return self
            raise TuningError(
                "autotuners are single-run objects; build a fresh one per "
                "executor (spec strings re-build automatically)")
        self._bound = True
        self._bus = bus
        if bus is not None:
            bus.subscribe(self.on_event, kinds=("valve",))
        return self

    def attach_region(self, region: Any) -> None:
        """Adopt a launched (finalized) region: collect its tunable
        start valves and apply the inherited position."""
        entries: List[_TunedValve] = []
        seen: set = set()
        for task in region.tasks:
            for valve in task.spec.start_valves:
                if id(valve) in seen:
                    continue
                seen.add(id(valve))
                tuned = _tuned_valve(valve, self.relax_floor)
                if tuned is not None:
                    entries.append(tuned)
        self._regions[region.name] = entries
        if self.position != 0.0:
            # Inherit the operating point earlier regions reached.
            for entry in entries:
                entry.apply(self.position)
        if self._bus is not None:
            self._bus.emit("tune", region.name, "", "attach", data={
                "slo": self.slo.kind, "target": self.slo.target,
                "position": self.position, "valves": len(entries)})

    def on_event(self, event: Any) -> None:
        """Bus subscriber: fold end-valve verdicts into window samples."""
        if event.name != "end" or event.region not in self._regions:
            return
        self._samples += 1
        if event.data.get("result"):
            self._passes += 1
        if self._samples >= self.window:
            metric = self._passes / self._samples
            self._passes = self._samples = 0
            self._decide(event.region, metric, self.slo.target - metric,
                         event.ts)

    # --------------------------------------------------------- decisions

    def _decide(self, region: str, metric: float, error: float,
                ts: float) -> None:
        self.windows += 1
        before = self.position
        after = max(self.floor_position,
                    min(1.0, before + aimd_step(error, before)))
        if after == before:
            return
        self.position = after
        changed = 0
        for entries in self._regions.values():
            for entry in entries:
                entry.apply(after)
                changed += 1
        self.adjustments += 1
        if after > before:
            self.tightenings += 1
        else:
            self.relaxations += 1
        self.decisions.append(TuneDecision(
            len(self.decisions), region, metric, error, before, after))
        if self._bus is not None:
            self._bus.emit("tune", region, "", "adjust", ts=ts, data={
                "slo": self.slo.kind, "target": self.slo.target,
                "metric": metric, "error": error,
                "before": before, "after": after, "valves": changed})

    # --------------------------------------------------------- reporting

    def snapshot(self) -> Dict[str, Any]:
        """End-of-run summary folded into the metrics
        (:meth:`repro.telemetry.Telemetry.record_autotuner`)."""
        return {"slo": self.slo.kind, "target": self.slo.target,
                "window": self.window, "relax_floor": self.relax_floor,
                "position": self.position, "windows": self.windows,
                "adjustments": self.adjustments,
                "tightenings": self.tightenings,
                "relaxations": self.relaxations}


# ------------------------------------------------------------ spec parsing


def _number(name: str, value: str) -> float:
    """A finite spec option value, or TuningError naming the option."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise TuningError(
            f"autotuner option {name!r} needs a finite number, "
            f"got {value!r}")
    return number


def make_autotuner(spec: Any = None) -> Optional[ValveAutotuner]:
    """Build an autotuner from a spec.

    ``None`` passes through (autotuning off); a :class:`ValveAutotuner`
    instance passes through; a string declares the SLO with
    ``kind:key=value,...`` options::

        make_autotuner("accuracy_floor:target=0.9")
        make_autotuner("accuracy_floor:target=0.85,window=4,"
                       "relax_floor=0.1")

    The options are :data:`SPEC_OPTIONS`; anything else raises
    :class:`~repro.core.errors.TuningError` naming it.
    """
    if spec is None:
        return None
    if isinstance(spec, ValveAutotuner):
        return spec
    text = str(spec).strip()
    kind, _, option_text = text.partition(":")
    kind = kind.strip().lower()
    if kind not in SLO_KINDS:
        raise TuningError(
            f"unknown SLO kind {kind!r}; expected one of "
            + ", ".join(SLO_KINDS))
    options: Dict[str, float] = {}
    for item in (token.strip() for token in option_text.split(",")):
        if not item:
            continue
        key, separator, value = item.partition("=")
        key = key.strip()
        if not separator or not key:
            raise TuningError(
                f"autotuner option {item!r} is not key=value")
        if key not in SPEC_OPTIONS:
            raise TuningError(
                f"unknown autotuner option {key!r} in {text!r}; expected "
                + ", ".join(SPEC_OPTIONS))
        options[key] = _number(key, value.strip())
    return ValveAutotuner(SLO.accuracy_floor(options.get("target", 0.9)),
                          window=options.get("window", 8),
                          relax_floor=options.get("relax_floor"))
