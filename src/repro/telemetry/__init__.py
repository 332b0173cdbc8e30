"""Unified telemetry: one event bus feeding traces, metrics and Perfetto.

:class:`Telemetry` is the user-facing bundle.  Construct one, pass it to
:meth:`~repro.apps.base.FluidApp.run_fluid` (or any executor) via
``telemetry=``, and after the run read:

``telemetry.trace``
    The familiar :class:`~repro.runtime.tracing.Trace` — now a bus
    subscriber, same public API as before.
``telemetry.metrics``
    A :class:`~repro.telemetry.metrics.MetricsRegistry` with the full
    counter catalogue (valve verdicts, re-executions, early
    terminations, stall time, payload bytes, worker utilization); the
    per-task counters are folded from each region's records once, not
    heard event by event.
``telemetry.chrome_trace()`` / ``telemetry.write(...)``
    A Chrome trace-event document loadable in ``chrome://tracing`` or
    https://ui.perfetto.dev, plus JSON dumps of either artifact.

The executors own the lifecycle: they bind their clock to the bus at
run start and call :meth:`Telemetry.run_finished` when the run ends
(also on failure, so partial traces survive a crash).

See ``docs/telemetry.md`` for the event schema and counter catalogue,
and ``python -m repro.telemetry --help`` for the dump summarize/diff
CLI.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from .bus import TelemetryBus, TelemetryEvent
from .metrics import (METRICS_SCHEMA, Histogram, MetricsRegistry,
                      diff_metrics, load_metrics, render_diff, render_summary)
from .trace_export import ChromeTraceExporter
from ..runtime.tracing import Trace

__all__ = [
    "Telemetry",
    "TelemetryBus",
    "TelemetryEvent",
    "MetricsRegistry",
    "Histogram",
    "ChromeTraceExporter",
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
        Attach a :class:`ChromeTraceExporter` (default on).
    trace_capacity:
        Ring-buffer capacity for the attached :class:`Trace`; ``None``
        (default) keeps it unbounded.
    """

    def __init__(self, metrics: bool = True, chrome: bool = True,
                 trace_capacity: Optional[int] = None):
        self.bus = TelemetryBus()
        self.trace = Trace(capacity=trace_capacity)
        self.trace.connect(self.bus)
        self.metrics: Optional[MetricsRegistry] = None
        if metrics:
            self.metrics = MetricsRegistry()
            # Live decisions only: task records, valve verdicts and
            # stage-queue tallies are folded in (``record_region``,
            # ``record_queue``), not heard.
            self.bus.subscribe(self.metrics.on_event, kinds=(
                "sched", "payload", "worker", "svc", "tune"))
        self.chrome: Optional[ChromeTraceExporter] = None
        if chrome:
            self.chrome = ChromeTraceExporter().connect(self.bus)
        self.finished = False

    # -- executor-facing lifecycle ----------------------------------------

    def bind_clock(self, clock: Callable[[], float],
                   time_scale: float) -> None:
        self.bus.bind_clock(clock, time_scale)

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
        snapshot into the metrics (window count, final position).

        Adjustments themselves arrive live as ``tune``-kind bus events;
        this fold only adds what has no per-event form.  No-op without
        a metrics registry or autotuner.
        """
        if self.metrics is None or autotuner is None:
            return
        self.metrics.record_autotuner(autotuner.snapshot())

    def run_finished(self, makespan: float, workers: int,
                     now: Optional[float] = None) -> None:
        """Close open intervals and freeze derived gauges (idempotent)."""
        if self.finished:
            return
        self.finished = True
        now = makespan if now is None else now
        if self.chrome is not None:
            self.chrome.finalize(now)
        if self.metrics is not None:
            self.metrics.inc("trace.dropped_events", self.trace.dropped)
            self.metrics.finalize(makespan, workers, now)

    # -- artifacts ---------------------------------------------------------

    def chrome_trace(self) -> Dict[str, Any]:
        if self.chrome is None:
            raise ValueError("this Telemetry was built with chrome=False")
        return self.chrome.to_dict()

    def metrics_dict(self) -> Dict[str, Any]:
        if self.metrics is None:
            raise ValueError("this Telemetry was built with metrics=False")
        return self.metrics.to_dict()

    def write(self, trace_out: Optional[str] = None,
              metrics_out: Optional[str] = None) -> None:
        """Dump the requested artifacts as JSON files."""
        if trace_out is not None:
            with open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(self.chrome_trace(), handle, indent=1)
                handle.write("\n")
        if metrics_out is not None:
            with open(metrics_out, "w", encoding="utf-8") as handle:
                json.dump(self.metrics_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
