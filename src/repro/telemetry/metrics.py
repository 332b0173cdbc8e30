"""Metrics registry: counters, gauges and histograms of one run.

The counter catalogue below holds the decisions that define Fluid
(valve verdicts, re-executions, early terminations, quality failures,
stall time) plus backend-specific traffic (process payload bytes,
worker occupancy).  Every standard counter is pre-registered at zero so
a dump always carries the full catalogue: two dumps from different
backends can be diffed key-by-key and backend-parity tests can compare
the key *sets* directly.

Most counters are *folds*, not subscribers: what the core already
records once is read once.  :meth:`MetricsRegistry.record_region` folds
a region's :class:`~repro.core.stats.TaskStats` (the ``valve.start.*``,
``valve.end.*``, ``tasks.*`` and ``time.*`` counters, ``tasks.spawned``
aside) and its valves' check tallies (``valve.checks.evaluated``) when
the region is done, or at run end for a region that never finished.  The
registry subscribes to the bus only for live decisions: ``sched``
(spawn/shed/steal/defer), ``payload``, ``worker``, ``svc`` and ``tune``.

Counter catalogue
-----------------

========================================  =====================================
``valve.start.pass`` / ``.fail``          start-valve set evaluations by verdict
``valve.end.pass`` / ``.fail``            end-valve (quality) evaluations
``valve.checks.evaluated``                individual valve recomputations
``tasks.runs``                            bodies started (RUNNING entries)
``tasks.completed``                       tasks that reached COMPLETE
``tasks.reexecutions``                    guard-scheduled re-runs
``tasks.early_terminations``              runs cancelled/skipped by Section 6.1
``tasks.quality_failures``                end checks that rejected a run
``tasks.failed_runs``                     bodies that raised (every driver)
``tasks.dep_stalls``                      transitions into DEP_STALLED
``tasks.spawned``                         dynamic tasks (Section 8)
``time.running``                          total residence in RUNNING
``time.start_check``                      total residence in START_CHECK
``time.waiting``                          total residence in WAITING
``time.dep_stalled``                      total dep-stall residence
``process.payload_bytes_to_workers``      snapshot bytes shipped at dispatch
``process.payload_bytes_from_workers``    snapshot bytes flushed back
``process.payload_messages``              payload-carrying IPC messages
``process.dispatches``                    bodies dispatched to worker slots
``process.payload_cells_skipped``         dispatch cells elided (delta export)
``process.payload_rebinds``               apply_payload container rebinds
``process.dispatch_batches``              batched worker round-trips sent
``process.worker_respawns``               pooled workers respawned after a crash
``trace.dropped_events``                  ring-buffer drops in the Trace
``sched.picks``                           scheduler pick-next decisions
``sched.steals``                          work-stealing queue raids
``sched.tasks_shed``                      bounded-queue rejections (dropped)
``sched.tasks_deferred``                  bounded-queue overflow parks
``tune.adjustments``                      autotuner threshold adjustments
``tune.tightenings``                      adjustments toward serialization
``tune.relaxations``                      adjustments toward the base/floor
``tune.windows``                          autotuner decision windows closed
``svc.requests``                          region-execution requests received
``svc.admitted``                          requests accepted into the queue
``svc.shed``                              sheddable requests rejected (backpressure)
``svc.dispatched``                        requests handed to the backend pool
``svc.batches``                           multi-request batch dispatches
``svc.batched_requests``                  requests coalesced into those batches
``svc.completed``                         requests finished successfully
``svc.failed``                            requests failed (body error/cancel)
``svc.slo_met`` / ``.slo_missed``         per-request latency-SLO outcomes
``stream.items_in``                       items delivered into stage queues
``stream.items_out``                      items first-served to stage consumers
``stream.stale_reads``                    first serves that overtook a gap
``stream.drops``                          tombstones written (incl. propagated)
``stream.parks``                          must-deliver items accepted past capacity
========================================  =====================================

The ``stream.*`` counters and the ``stream.occupancy`` histogram are
folds too: each stage queue keeps its own tally, which
:meth:`MetricsRegistry.record_queue` folds in when the pipeline
harvests a window.

``time.*`` counters are in the executor's clock units (virtual cost
units under the simulator, seconds under the real backends).  Early
terminations are cancelled runs plus re-runs skipped before their body
began (Section 6.1).  Gauges
``run.makespan``, ``run.workers``, ``worker.busy_time`` and
``worker.utilization`` are set once at the end of the run.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.states import TaskState
from .bus import TelemetryEvent

#: Version tag written into every metrics dump.
METRICS_SCHEMA = "repro-telemetry-metrics/1"

#: Pre-registered counters (see module docstring for semantics).
COUNTER_CATALOGUE = (
    "valve.start.pass", "valve.start.fail",
    "valve.end.pass", "valve.end.fail",
    "valve.checks.evaluated",
    "tasks.runs", "tasks.completed", "tasks.reexecutions",
    "tasks.early_terminations", "tasks.quality_failures",
    "tasks.failed_runs", "tasks.dep_stalls", "tasks.spawned",
    "time.running", "time.start_check", "time.waiting", "time.dep_stalled",
    "process.payload_bytes_to_workers", "process.payload_bytes_from_workers",
    "process.payload_messages", "process.dispatches",
    "process.payload_cells_skipped", "process.payload_rebinds",
    "process.dispatch_batches", "process.worker_respawns",
    "trace.dropped_events",
    "sched.picks", "sched.steals", "sched.tasks_shed",
    "sched.tasks_deferred",
    "tune.adjustments", "tune.tightenings", "tune.relaxations",
    "tune.windows",
    "svc.requests", "svc.admitted", "svc.shed", "svc.dispatched",
    "svc.batches", "svc.batched_requests", "svc.completed", "svc.failed",
    "svc.slo_met", "svc.slo_missed",
    "stream.items_in", "stream.items_out", "stream.stale_reads",
    "stream.drops", "stream.parks",
)

#: Bucket boundaries for the scheduler queue-residence histogram.  Wider
#: than the default decades: residence is measured in the host's
#: clock units (virtual cost units under the simulators, seconds under
#: the real backends), which span several orders of magnitude.
RESIDENCE_BOUNDS = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4)

#: Bucket boundaries for the stage-queue occupancy histogram: occupancy
#: is a small item count (bounded by the queue capacity), not a latency.
OCCUPANCY_BOUNDS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Bucket boundaries for the process backend's dispatch batch-size
#: histogram: a task count bounded by the executor's ``batch_size``.
BATCH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

class Histogram:
    """A fixed-boundary histogram (decade buckets, seconds-friendly).

    ``bounds`` overrides the default decades — the scheduler
    queue-residence histogram uses :data:`RESIDENCE_BOUNDS`.
    """

    BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

    def __init__(self, bounds: Optional[Tuple[float, ...]] = None):
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else self.BOUNDS)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets = [0] * (len(self.bounds) + 1)

    def observe(self, value: float, times: int = 1) -> None:
        """Fold ``value`` in ``times`` times (one sample by default)."""
        value = float(value)
        self.count += times
        self.total += value * times
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound >= value; NaN compares false, so overflow.
        self.buckets[bisect_left(self.bounds, value)
                     if value == value else -1] += times

    def _labels(self) -> List[str]:
        return [f"le_{bound:g}" for bound in self.bounds] + ["le_inf"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "buckets": dict(zip(self._labels(), self.buckets)),
        }

    def merge(self, dump: Dict[str, Any]) -> None:
        """Fold a :meth:`to_dict`-shaped dump into this histogram.

        Buckets merge label-by-label when the boundary sets match;
        otherwise the merged observations land in the overflow bucket
        (count/sum/min/max stay exact either way).
        """
        count = int(dump.get("count") or 0)
        if count <= 0:
            return
        self.count += count
        self.total += float(dump.get("sum") or 0.0)
        for field, keep in (("min", min), ("max", max)):
            value = dump.get(field)
            if value is None:
                continue
            mine = getattr(self, field)
            setattr(self, field,
                    value if mine is None else keep(mine, value))
        buckets = dump.get("buckets") or {}
        labels = self._labels()
        if set(buckets) == set(labels):
            for index, label in enumerate(labels):
                self.buckets[index] += int(buckets[label])
        else:
            self.buckets[-1] += count


class MetricsRegistry:
    """Folds region records, snapshots and live decision events into
    counters/gauges/histograms; JSON in and out."""

    def __init__(self):
        self.counters: Dict[str, float] = {
            name: 0 for name in COUNTER_CATALOGUE}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {
            "sched.queue_residence": Histogram(RESIDENCE_BOUNDS)}
        # worker slot -> dispatch timestamp
        self._dispatched_at: Dict[int, float] = {}
        self._busy_total = 0.0

    # -- primitive mutation ------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float,
                bounds: Optional[Tuple[float, ...]] = None,
                times: int = 1) -> None:
        """Fold ``value`` into ``name`` ``times`` times, built with
        ``bounds`` on a miss."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value, times)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- bus subscription --------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        kind = event.kind
        if kind == "sched":
            if event.name == "spawn":
                self.inc("tasks.spawned")
            elif event.name == "shed":
                self.inc("sched.tasks_shed")
            elif event.name == "defer":
                self.inc("sched.tasks_deferred")
            elif event.name == "steal":
                self.inc("sched.steals")
        elif kind == "payload":
            if event.name == "rebound":
                # apply_payload rebound an aliasable container instead of
                # copying in place (see core/data.py): a contract-hazard
                # diagnostic, not payload traffic.
                self.inc("process.payload_rebinds")
                return
            direction = ("to_workers" if event.name == "to-worker"
                         else "from_workers")
            self.inc(f"process.payload_bytes_{direction}",
                     event.data.get("bytes", 0))
            self.inc("process.payload_messages")
            self.inc("process.payload_cells_skipped",
                     event.data.get("skipped", 0))
        elif kind == "worker":
            self._on_worker(event)
        elif kind == "svc":
            self._on_service(event)
        elif kind == "tune":
            if event.name == "adjust":
                self.inc("tune.adjustments")
                after = event.data.get("after", 0.0)
                if after > event.data.get("before", 0.0):
                    self.inc("tune.tightenings")
                else:
                    self.inc("tune.relaxations")
                self.set_gauge("tune.position", after)

    def _on_service(self, event: TelemetryEvent) -> None:
        """Fold ``svc``-kind events (repro.service request lifecycle).

        The ``svc.latency`` and ``svc.queue_wait`` histograms are
        created lazily on the first completed request, so non-service
        runs keep their historical histogram key set.
        """
        name = event.name
        if name == "request":
            self.inc("svc.requests")
        elif name == "admit":
            self.inc("svc.admitted")
        elif name == "shed":
            self.inc("svc.shed")
        elif name == "dispatch":
            requests = int(event.data.get("requests", 1))
            self.inc("svc.dispatched", requests)
            if requests > 1:
                self.inc("svc.batches")
                self.inc("svc.batched_requests", requests)
        elif name == "complete":
            self.inc("svc.completed")
            latency = event.data.get("latency")
            if latency is not None:
                self.observe("svc.latency", latency)
            wait = event.data.get("queue_wait")
            if wait is not None:
                self.observe("svc.queue_wait", wait)
            slo_met = event.data.get("slo_met")
            if slo_met is True:
                self.inc("svc.slo_met")
            elif slo_met is False:
                self.inc("svc.slo_missed")
        elif name == "fail":
            self.inc("svc.failed")

    def _on_worker(self, event: TelemetryEvent) -> None:
        slot = event.data.get("slot")
        if event.name == "dispatch":
            self.inc("process.dispatches")
            # Batched dispatch emits one "dispatch" per task in the
            # batch; the overwrite coarsens per-slot busy accounting to
            # "since the last dispatch", which finalize() folds in.
            self._dispatched_at[slot] = event.ts
        elif event.name == "free":
            started = self._dispatched_at.pop(slot, None)
            if started is not None:
                self._busy_total += event.ts - started
        elif event.name == "batch":
            # Lazily created so non-batching runs keep their historical
            # histogram key set (same pattern as svc.latency).
            self.inc("process.dispatch_batches")
            self.observe("process.batch_size", event.data.get("size", 1),
                         BATCH_SIZE_BOUNDS)
        elif event.name == "respawn":
            self.inc("process.worker_respawns")

    def record_region(self, region: Any,
                      now: Optional[float] = None) -> None:
        """Fold one region's task records and valve check tallies in.

        Called once per region: when it is done, with ``now`` None (its
        tasks' books are closed), or at run end for a region that never
        finished, whose open residences are counted up to ``now``.
        """
        self.inc("valve.checks.evaluated",
                 sum(valve.checks for valve in region.valves))
        for task in region.tasks:
            stats = task.stats
            visits = stats.visits
            time = stats.time if now is None else stats.time_at(now)
            self.inc("valve.start.pass", stats.valve_passes["start"])
            self.inc("valve.start.fail", stats.valve_fails["start"])
            self.inc("valve.end.pass", stats.valve_passes["end"])
            self.inc("valve.end.fail", stats.valve_fails["end"])
            self.inc("tasks.runs", visits[TaskState.RUNNING])
            self.inc("tasks.completed", visits[TaskState.COMPLETE])
            self.inc("tasks.reexecutions", stats.reruns)
            self.inc("tasks.early_terminations",
                     stats.cancelled_runs + stats.skipped_reruns)
            self.inc("tasks.quality_failures", stats.quality_failures)
            self.inc("tasks.failed_runs", stats.failed_runs)
            self.inc("tasks.dep_stalls", visits[TaskState.DEP_STALLED])
            self.inc("time.running", time[TaskState.RUNNING])
            self.inc("time.start_check", time[TaskState.START_CHECK])
            self.inc("time.waiting", time[TaskState.WAITING])
            self.inc("time.dep_stalled", time[TaskState.DEP_STALLED])

    def record_scheduler(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`repro.sched.Scheduler.snapshot` into the metrics.

        Pick decisions and queue residence are recorded here, directly,
        at end of run — not as per-pick bus events — so the default FCFS
        scheduler adds zero events to structural traces (the golden
        traces stay byte-identical).  Shed/steal/defer decisions *are*
        bus events and arrive through :meth:`on_event`; they are
        deliberately not re-counted from the snapshot.
        """
        self.inc("sched.picks", snapshot.get("picks", 0))
        residence = snapshot.get("residence")
        if residence:
            self.histograms["sched.queue_residence"].merge(residence)

    def record_autotuner(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`repro.tuning.ValveAutotuner.snapshot` in.

        Only the decision-window count and final position come from the
        snapshot; adjustments are live ``tune``-kind bus events and are
        deliberately not re-counted here (same split as
        :meth:`record_scheduler` vs the shed/steal events).
        """
        self.inc("tune.windows", snapshot.get("windows", 0))
        self.set_gauge("tune.position", snapshot.get("position", 0.0))

    def record_queue(self, stats: Dict[str, Any]) -> None:
        """Fold one :meth:`repro.stream.StageQueue.stats` tally in.

        Puts (not idempotent ``update`` rewrites), first serves, stale
        first serves, the tombstones the queue wrote and parks.  The
        ``stream.occupancy`` histogram is created lazily on the first
        sample, so non-streaming runs keep their historical histogram
        key set; a queue whose region had no bus took no samples.
        """
        self.inc("stream.items_in", stats["puts"])
        self.inc("stream.items_out", stats["served"])
        self.inc("stream.stale_reads", stats["stale_reads"])
        self.inc("stream.drops", stats["sheds"])
        self.inc("stream.parks", stats["parks"])
        # Folded by value: the samples are integers, so the sum (and
        # every other field) is the same as one observe per sample.
        for occupancy, times in Counter(stats["occupancies"]).items():
            self.observe("stream.occupancy", occupancy, OCCUPANCY_BOUNDS,
                         times)

    # -- end of run --------------------------------------------------------

    def finalize(self, makespan: float, workers: int, now: float) -> None:
        """Close open worker intervals and derive the utilization gauges.

        ``workers`` is the parallelism denominator: virtual cores for
        the simulator, 1 for the GIL-bound thread backend, the pool size
        for the process backend.
        """
        for slot, started in list(self._dispatched_at.items()):
            self._busy_total += now - started
        self._dispatched_at.clear()
        self.set_gauge("run.makespan", makespan)
        self.set_gauge("run.workers", workers)
        busy = (self._busy_total if self.counters["process.dispatches"]
                else self.counters["time.running"])
        self.set_gauge("worker.busy_time", busy)
        if makespan > 0 and workers > 0:
            self.set_gauge("worker.utilization",
                           min(1.0, busy / (makespan * workers)))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: histogram.to_dict()
                           for name, histogram in self.histograms.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


# -------------------------------------------------------------- dump tools


def load_metrics(path: str) -> Dict[str, Any]:
    """Read one metrics dump, validating the schema tag."""
    with open(path, "r", encoding="utf-8") as handle:
        dump = json.load(handle)
    if not isinstance(dump, dict) or "counters" not in dump:
        raise ValueError(f"{path!r} is not a telemetry metrics dump")
    if dump.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"{path!r} has schema {dump.get('schema')!r}; "
            f"this tool reads {METRICS_SCHEMA!r}")
    return dump


def diff_metrics(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple]:
    """Rows ``(key, a_value, b_value, delta)`` over both dumps' keys.

    Counters and gauges are compared numerically; a key missing on one
    side reads as 0.  Histograms are compared by count and sum.
    """
    rows: List[Tuple] = []
    for section in ("counters", "gauges"):
        keys = sorted(set(a.get(section, {})) | set(b.get(section, {})))
        for key in keys:
            left = a.get(section, {}).get(key, 0) or 0
            right = b.get(section, {}).get(key, 0) or 0
            rows.append((key, left, right, right - left))
    names = sorted(set(a.get("histograms", {})) | set(b.get("histograms", {})))
    for name in names:
        for field in ("count", "sum"):
            left = (a.get("histograms", {}).get(name, {}).get(field) or 0)
            right = (b.get("histograms", {}).get(name, {}).get(field) or 0)
            rows.append((f"{name}.{field}", left, right, right - left))
    return rows


def _format_value(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{int(value)}"


def render_summary(dump: Dict[str, Any], title: str = "metrics") -> str:
    """Human-readable one-dump summary."""
    lines = [f"=== {title} ==="]
    counters = dump.get("counters", {})
    width = max((len(key) for key in counters), default=8) + 2
    lines.append("counters:")
    for key in sorted(counters):
        lines.append(f"  {key:<{width}}{_format_value(counters[key])}")
    gauges = dump.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for key in sorted(gauges):
            lines.append(f"  {key:<{width}}{_format_value(gauges[key])}")
    for name, histogram in sorted(dump.get("histograms", {}).items()):
        lines.append(f"histogram {name}: count={histogram.get('count')} "
                     f"sum={_format_value(histogram.get('sum'))} "
                     f"min={_format_value(histogram.get('min'))} "
                     f"max={_format_value(histogram.get('max'))}")
    return "\n".join(lines)


def render_diff(a: Dict[str, Any], b: Dict[str, Any],
                a_name: str = "a", b_name: str = "b",
                changed_only: bool = False) -> str:
    """Human-readable two-dump comparison."""
    rows = diff_metrics(a, b)
    if changed_only:
        rows = [row for row in rows if row[3]]
    width = max((len(row[0]) for row in rows), default=8) + 2
    lines = [f"=== metrics diff: {a_name} vs {b_name} ===",
             f"  {'key':<{width}}{a_name:>14}{b_name:>14}{'delta':>14}"]
    for key, left, right, delta in rows:
        lines.append(f"  {key:<{width}}{_format_value(left):>14}"
                     f"{_format_value(right):>14}{_format_value(delta):>14}")
    if changed_only and len(lines) == 2:
        lines.append("  (no differences)")
    return "\n".join(lines)
