"""Closed-loop valve autotuning against latency/accuracy SLOs.

The paper's threshold modulation (Sections 4.4 and 6.1) tightens valves
after quality failures; :class:`ValveAutotuner` generalizes it into an
online feedback controller in the spirit of significance-aware runtimes
(Vassiliadis et al.): subscribe to the telemetry bus, fold the run's
own quality/latency signals into an SLO error, and steer start-valve
thresholds at runtime through a pluggable control law
(:mod:`repro.tuning.controllers`).

Two SLOs are supported:

``accuracy_floor`` (minimize makespan s.t. quality >= floor)
    Feedback is the *end-valve verdict stream* — each evaluated quality
    check in any attached region contributes one pass/fail sample, and
    every ``window`` samples the controller compares the window pass
    rate against the floor.  The cadence is event-count-based, not
    clock-based, and the pass rate is order-invariant within a window,
    so on a deterministic schedule all three backends take *identical*
    tuning decisions (the parity suite pins this).  The window is
    run-global rather than per-region because the SLO is a run
    property and per-region feedback is sparse: an epoch-structured
    app like K-means emits only one quality verdict per epoch region.

``latency_ceiling`` (maximize accuracy s.t. makespan <= ceiling)
    Feedback is projected run makespan (elapsed time since the first
    region attach, scaled by the completed-task fraction) against the
    ceiling, sampled every ``window`` task completions.  Projections
    read the executor clock, so decisions are deterministic only under
    the simulator.

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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..core.errors import TuningError
from ..core.valves import ConvergenceValve, CountValve, StabilityValve, Valve
from .controllers import controller_option_names, make_controller, parse_float

SLO_KINDS = ("accuracy_floor", "latency_ceiling")


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
        if self.kind == "accuracy_floor" and not 0.0 < self.target <= 1.0:
            raise TuningError(
                f"accuracy_floor target {self.target} outside (0, 1]")
        if self.kind == "latency_ceiling" and self.target <= 0:
            raise TuningError(
                f"latency_ceiling target {self.target} must be positive")

    @classmethod
    def accuracy_floor(cls, target: float = 0.9) -> "SLO":
        """Quality floor: window end-valve pass rate must stay >= target."""
        return cls("accuracy_floor", float(target))

    @classmethod
    def latency_ceiling(cls, target: float) -> "SLO":
        """Latency ceiling: projected makespan must stay <= target."""
        return cls("latency_ceiling", float(target))

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "target": self.target}


@dataclass(frozen=True)
class TuneDecision:
    """One applied adjustment (the unit the parity suite compares)."""

    index: int
    region: str
    metric: float   # window pass rate / projected makespan
    error: float    # signed; positive = tighten
    before: float   # position before
    after: float    # position after


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


class _RegionState:
    """One attached region: its tunable valves and task count."""

    __slots__ = ("name", "entries", "total_tasks")

    def __init__(self, name: str, entries: List[_TunedValve],
                 total_tasks: int):
        self.name = name
        self.entries = entries
        self.total_tasks = total_tasks


class ValveAutotuner:
    """Online per-region valve-threshold controller (see module doc).

    Like :class:`repro.sched.Scheduler`, a tuner instance is a
    *single-run* object: executors bind it to their telemetry bus and
    it accumulates that run's decisions.  Pass a spec *string* through
    harnesses that execute many runs — each run then builds its own
    tuner via :func:`make_autotuner`.
    """

    def __init__(self, slo: Any, controller: Any = None, window: int = 8,
                 relax_floor: Optional[float] = None):
        if isinstance(slo, str):
            slo = SLO(slo.strip().lower(), 0.9)
        if not isinstance(slo, SLO):
            raise TuningError(
                f"slo must be an SLO or kind name, got {slo!r}")
        self.slo = slo
        self.controller = make_controller(controller)
        self.window = int(window)
        if self.window < 1:
            raise TuningError("autotuner window must be >= 1")
        if relax_floor is not None and not 0.0 <= relax_floor < 1.0:
            raise TuningError(
                f"relax_floor {relax_floor} outside [0, 1)")
        self.relax_floor = relax_floor
        #: current operating point; regions attached later inherit it.
        self.position = 0.0
        self.decisions: List[TuneDecision] = []
        self.windows = 0
        self.adjustments = 0
        self.tightenings = 0
        self.relaxations = 0
        self._regions: Dict[str, _RegionState] = {}
        # Run-global feedback accumulators (see module doc for why the
        # window is not per-region).
        self._samples = 0
        self._passes = 0
        self._completed = 0
        self._first_attach_ts: Optional[float] = None
        self._bus: Optional[Any] = None
        self._bound = False

    # ------------------------------------------------------ executor API

    @property
    def floor_position(self) -> float:
        return -1.0 if self.relax_floor is not None else 0.0

    def bind(self, bus: Optional[Any]) -> "ValveAutotuner":
        """Subscribe to an executor's bus.  Single-run: rebinding raises."""
        if self._bound:
            raise TuningError(
                "autotuners are single-run objects; build a fresh one per "
                "executor (spec strings re-build automatically)")
        self._bound = True
        self._bus = bus
        if bus is not None:
            bus.subscribe(self.on_event, kinds=("valve", "transition"))
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
        state = _RegionState(region.name, entries,
                             total_tasks=len(region.tasks))
        self._regions[region.name] = state
        if self._first_attach_ts is None:
            self._first_attach_ts = (
                self._bus.clock() if self._bus is not None else 0.0)
        if self.position != 0.0:
            # Inherit the operating point earlier regions reached.
            for entry in entries:
                entry.apply(self.position)
        if self._bus is not None:
            self._bus.emit("tune", region.name, "", "attach", data={
                "slo": self.slo.kind, "target": self.slo.target,
                "position": self.position, "valves": len(entries)})

    def on_event(self, event: Any) -> None:
        """Bus subscriber: fold feedback events into window samples."""
        if event.region not in self._regions:
            return
        if self.slo.kind == "accuracy_floor":
            if event.kind != "valve" or event.name != "end":
                return
            self._samples += 1
            if event.data.get("result"):
                self._passes += 1
            if self._samples >= self.window:
                metric = self._passes / self._samples
                self._passes = self._samples = 0
                self._decide(event.region, metric,
                             self.slo.target - metric, event.ts)
        else:  # latency_ceiling
            if event.kind != "transition" or event.name != "COMPLETE":
                return
            self._completed += 1
            self._samples += 1
            if self._samples >= self.window:
                self._samples = 0
                elapsed = event.ts - (self._first_attach_ts or 0.0)
                total = sum(state.total_tasks
                            for state in self._regions.values())
                if elapsed <= 0 or not total:
                    return
                projected = elapsed * total / self._completed
                error = (self.slo.target - projected) / self.slo.target
                error = max(-1.0, min(1.0, error))
                self._decide(event.region, projected, error, event.ts)

    # --------------------------------------------------------- decisions

    def _decide(self, region: str, metric: float, error: float,
                ts: float) -> None:
        self.windows += 1
        delta = self.controller.step(error, self.position)
        before = self.position
        after = max(self.floor_position, min(1.0, before + delta))
        if after == before:
            return
        self.position = after
        changed = 0
        for state in self._regions.values():
            for entry in state.entries:
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

    def describe(self) -> Dict[str, Any]:
        """Compact spec-shaped record for artifacts and CLIs."""
        return {"slo": self.slo.kind, "target": self.slo.target,
                "controller": self.controller.name, "window": self.window,
                "relax_floor": self.relax_floor}

    def snapshot(self) -> Dict[str, Any]:
        """End-of-run summary folded into the metrics
        (:meth:`repro.telemetry.Telemetry.record_autotuner`)."""
        return {"slo": self.slo.describe(),
                "controller": self.controller.describe(),
                "window": self.window, "relax_floor": self.relax_floor,
                "position": self.position, "windows": self.windows,
                "adjustments": self.adjustments,
                "tightenings": self.tightenings,
                "relaxations": self.relaxations}


# ------------------------------------------------------------ spec parsing


def _parse_options(text: str) -> Dict[str, str]:
    options: Dict[str, str] = {}
    for item in (token.strip() for token in text.split(",")):
        if not item:
            continue
        key, separator, value = item.partition("=")
        if not separator or not key.strip():
            raise TuningError(
                f"autotuner option {item!r} is not key=value")
        options[key.strip()] = value.strip()
    return options


def make_autotuner(spec: Any = None) -> Optional[ValveAutotuner]:
    """Build an autotuner from a spec.

    ``None`` passes through (autotuning off); a :class:`ValveAutotuner`
    instance passes through; a string declares the SLO with
    ``kind:key=value,...`` options::

        make_autotuner("accuracy_floor:target=0.9")
        make_autotuner("accuracy_floor:target=0.85,controller=hysteresis,"
                       "gain=0.8,window=4")
        make_autotuner("latency_ceiling:target=50000,relax_floor=0.1")

    Options ``target``, ``controller``, ``window`` and ``relax_floor``
    configure the tuner; any remaining options are forwarded to the
    named controller (``relax_step``/``backoff``/``deadband`` for aimd,
    ``gain``/``deadband``/``max_step``/``reversal`` for hysteresis).
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
    options = _parse_options(option_text)
    target = (parse_float("target", options.pop("target"))
              if "target" in options else None)
    controller_name = options.pop("controller", None)
    window = (int(parse_float("window", options.pop("window")))
              if "window" in options else 8)
    relax_floor = (parse_float("relax_floor", options.pop("relax_floor"))
                   if "relax_floor" in options else None)
    controller_options = {}
    for key in controller_option_names(controller_name):
        if key in options:
            controller_options[key] = parse_float(key, options.pop(key))
    if options:
        raise TuningError(
            f"unknown autotuner option(s) {sorted(options)} in {text!r}")
    if kind == "accuracy_floor":
        slo = SLO.accuracy_floor(0.9 if target is None else target)
    else:
        if target is None:
            raise TuningError(
                "latency_ceiling needs an explicit target= makespan")
        slo = SLO.latency_ceiling(target)
    controller = make_controller(controller_name, **controller_options)
    return ValveAutotuner(slo, controller=controller, window=window,
                          relax_floor=relax_floor)
