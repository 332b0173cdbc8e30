"""Unified telemetry: one event bus feeding traces, metrics and Perfetto.

:class:`Telemetry` is the user-facing bundle.  Construct one, pass it to
:meth:`~repro.apps.base.FluidApp.run_fluid` (or any executor) via
``telemetry=``, and after the run read:

``telemetry.trace``
    The run's one :class:`~repro.telemetry.trace.Trace` record; the
    structural trace, the Chrome document and the Gantt are its views.
``telemetry.metrics``
    A :class:`~repro.telemetry.metrics.MetricsRegistry` with the full
    counter catalogue (valve verdicts, re-executions, early
    terminations, stall time, payload bytes, worker utilization); the
    per-task counters are folded from each region's records once, not
    heard event by event.
``telemetry.chrome_trace()`` / ``telemetry.write(...)``
    A Chrome trace-event document loadable in ``chrome://tracing`` or
    https://ui.perfetto.dev, plus JSON dumps of either artifact.

The executors own the lifecycle: they bind their clock to the bus
(``bus.bind_clock``) at run start and call :meth:`Telemetry.run_finished`
when the run ends (also on failure, so partial traces survive a crash).

See ``docs/telemetry.md`` for the event schema and counter catalogue,
and ``python -m repro.telemetry --help`` for the dump summarize/diff
CLI.
"""

from __future__ import annotations

import json
import weakref
from typing import Any, Dict, Optional

from .bus import TelemetryBus, TelemetryEvent
from .metrics import (METRICS_SCHEMA, Histogram, MetricsRegistry,
                      diff_metrics, load_metrics, render_diff, render_summary)
from .trace import TimelineRecorder, Trace, TraceEvent, chrome_trace

__all__ = [
    "Telemetry",
    "TelemetryBus",
    "TelemetryEvent",
    "MetricsRegistry",
    "Histogram",
    "Trace",
    "TraceEvent",
    "TimelineRecorder",
    "METRICS_SCHEMA",
    "load_metrics",
    "diff_metrics",
    "render_summary",
    "render_diff",
]


class Telemetry:
    """A bus plus the standard subscribers, ready to hand to an executor.

    Parameters
    ----------
    metrics:
        Attach a :class:`MetricsRegistry` (default on).
    chrome:
        Record the kinds the Chrome view reads (default on); off, the
        trace hears only ``sched`` and ``guard``.
    trace_capacity:
        Ring-buffer capacity of the :class:`Trace`, bounding every view;
        ``None`` (default) keeps it unbounded.
    """

    def __init__(self, metrics: bool = True, chrome: bool = True,
                 trace_capacity: Optional[int] = None):
        self.bus = TelemetryBus()
        self.chrome = chrome
        self.trace = Trace(capacity=trace_capacity).connect(self.bus, chrome)
        self.metrics: Optional[MetricsRegistry] = None
        if metrics:
            self.metrics = MetricsRegistry()
            # Live decisions only: task records, valve verdicts and
            # stage-queue tallies are folded in (``record_region``,
            # ``record_queues``), not heard.
            self.bus.subscribe(self.metrics.on_event, kinds=(
                "sched", "payload", "worker", "svc", "tune"))
        #: The run-end clock once the run finished: where the Chrome
        #: view closes the residences still open.
        self._end: Optional[float] = None
        #: tuner -> windows already folded (a tuner spans a Pipeline).
        self._tuner_windows = weakref.WeakKeyDictionary()

    # -- executor-facing lifecycle ----------------------------------------

    def record_region(self, region: Any,
                      now: Optional[float] = None) -> None:
        """Fold one region's task records into the metrics, once: when
        it is done, or with ``now`` at run end if it never finished
        (:meth:`MetricsRegistry.record_region`).  No-op without a
        metrics registry."""
        if self.metrics is not None:
            self.metrics.record_region(region, now)

    def record_scheduler(self, scheduler: Optional[Any]) -> None:
        """Fold a scheduler's end-of-run snapshot into the metrics.

        Executors call this (before :meth:`run_finished`) with their
        bound :class:`repro.sched.Scheduler`; pick counts and the
        queue-residence histogram land in the ``sched.*`` metrics
        without publishing any bus events, so structural traces are
        unaffected.  No-op without a metrics registry or scheduler.
        """
        if self.metrics is None or scheduler is None:
            return
        self.metrics.record_scheduler(scheduler.snapshot())

    def record_autotuner(self, autotuner: Optional[Any]) -> None:
        """Fold a :class:`repro.tuning.ValveAutotuner` end-of-run
        snapshot into the metrics: the decision windows it closed since
        its last fold here, and its final position.

        Adjustments themselves arrive live as ``tune``-kind bus events;
        this fold only adds what has no per-event form.  No-op without
        a metrics registry or autotuner.
        """
        if self.metrics is None or autotuner is None:
            return
        snapshot = autotuner.snapshot()
        windows = snapshot["windows"]
        snapshot["windows"] -= self._tuner_windows.get(autotuner, 0)
        self._tuner_windows[autotuner] = windows
        self.metrics.record_autotuner(snapshot)

    def run_finished(self, makespan: float, workers: int,
                     now: Optional[float] = None) -> None:
        """Close open intervals and freeze derived gauges (idempotent)."""
        if self._end is not None:
            return
        now = makespan if now is None else now
        self._end = now
        if self.metrics is not None:
            self.metrics.inc("trace.dropped_events", self.trace.dropped)
            self.metrics.finalize(makespan, workers, now)

    # -- artifacts ---------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        if not self.chrome:
            raise ValueError("this Telemetry was built with chrome=False")
        return chrome_trace(self.trace.recorded, self.bus.time_scale,
                            self._end)

    def write(self, trace_out: Optional[str] = None,
              metrics_out: Optional[str] = None) -> None:
        """Dump the requested artifacts as JSON files."""
        if trace_out is not None:
            with open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(self.chrome_trace(), handle, indent=1)
                handle.write("\n")
        if metrics_out is not None:
            if self.metrics is None:
                raise ValueError("this Telemetry was built with metrics=False")
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(self.metrics.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
