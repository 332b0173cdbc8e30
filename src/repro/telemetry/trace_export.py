"""Chrome trace-event (Perfetto-compatible) export of a telemetry run.

Subscribes to the bus and reconstructs, from ``transition`` events, one
timeline slice per state residence: every task is a track (``tid``)
inside its region's process row (``pid``), RUNNING stretches are named
``run #N`` so re-execution chains read exactly like the paper's Gantt
figures, and guard decisions / valve failures land as instant markers.
The output is the Chrome trace-event JSON array format and loads
directly in ``chrome://tracing`` or https://ui.perfetto.dev.

Timestamps: slices are stored in the executor's raw clock and scaled to
microseconds at export time using the bus's ``time_scale`` (1.0 for the
simulator's virtual cost units, 1e6 for wall-clock seconds), normalized
so the run starts at ts 0.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from .bus import TelemetryBus, TelemetryEvent

#: States that render as timeline slices (terminal COMPLETE does not).
_SLICE_STATES = ("START_CHECK", "RUNNING", "END_CHECK", "WAITING",
                 "DEP_STALLED")


class ChromeTraceExporter:
    """Builds a ``chrome://tracing`` JSON document from bus events."""

    def __init__(self):
        # (region, task) -> (state name, run index, entry ts)
        self._open: Dict[Tuple[str, str], Tuple[str, int, float]] = {}
        # raw slices: (ts, dur, region, task, state, run)
        self._slices: List[Tuple[float, float, str, str, str, int]] = []
        # raw instants: (ts, region, task, label)
        self._instants: List[Tuple[float, str, str, str]] = []
        self._epoch: Optional[float] = None
        self.time_scale: float = 1e6

    def connect(self, bus: TelemetryBus) -> "ChromeTraceExporter":
        # Time zero is the first event heard, so hear every kind a run
        # can open with; ``stream`` events come from bodies, never first.
        bus.subscribe(self.on_event, kinds=(
            "transition", "guard", "sched", "valve", "payload", "worker",
            "svc", "tune"))
        self._bus = bus
        return self

    # -- bus subscription --------------------------------------------------

    def on_event(self, event: TelemetryEvent) -> None:
        if self._epoch is None:
            self._epoch = event.ts
        if event.kind == "transition":
            self._on_state_change(event)
        elif event.kind == "guard":
            detail = event.data.get("detail", "")
            label = f"guard:{event.name}" + (f" ({detail})" if detail else "")
            self._instants.append((event.ts, event.region, event.task, label))
        elif event.kind == "valve" and not event.data.get("result", True):
            self._instants.append(
                (event.ts, event.region, event.task,
                 f"valve:{event.name} failed"))

    def _on_state_change(self, event: TelemetryEvent) -> None:
        key = (event.region, event.task)
        self._close(key, event.ts)
        if event.name != "COMPLETE":
            self._open[key] = (event.name, event.data.get("run", 0), event.ts)

    def _close(self, key: Tuple[str, str], now: float) -> None:
        open_state = self._open.pop(key, None)
        if open_state is None:
            return
        state, run, entered = open_state
        if state in _SLICE_STATES:
            self._slices.append(
                (entered, max(0.0, now - entered), key[0], key[1], state, run))

    # -- export ------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close any still-open residences (e.g. after a timeout)."""
        for key in list(self._open):
            self._close(key, now)

    def to_dict(self) -> Dict[str, Any]:
        scale = getattr(getattr(self, "_bus", None), "time_scale",
                        self.time_scale)
        epoch = self._epoch or 0.0

        def us(ts: float) -> float:
            return (ts - epoch) * scale

        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        events: List[Dict[str, Any]] = []
        for region, task in sorted(
                {(s[2], s[3]) for s in self._slices}
                | {(i[1], i[2]) for i in self._instants}):
            pid = pids.setdefault(region, len(pids) + 1)
            tid = tids.setdefault((region, task), len(tids) + 1)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": f"region {region}"}})
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": f"task {task}"}})
        for entered, duration, region, task, state, run in sorted(
                self._slices):
            name = f"run #{run}" if state == "RUNNING" else state
            events.append({
                "ph": "X", "name": name, "cat": state.lower(),
                "ts": us(entered), "dur": duration * scale,
                "pid": pids[region], "tid": tids[(region, task)],
                "args": {"state": state, "run": run},
            })
        for ts, region, task, label in sorted(self._instants):
            pid = pids.setdefault(region, len(pids) + 1)
            tid = tids.setdefault((region, task), len(tids) + 1)
            events.append({"ph": "i", "name": label, "s": "t",
                           "ts": us(ts), "pid": pid, "tid": tid})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")
