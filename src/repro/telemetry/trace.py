"""The trace record: one ordered list of a run's bus events, and its views.

A :class:`Trace` keeps the events it hears as published, optionally in
a ring buffer that bounds every view.  The views are pure functions of
that list: the structural ``sched``/``guard`` view the golden traces
pin (:attr:`Trace.events`, ``render``, ``count``, ``for_task``),
:func:`chrome_trace` (Chrome/Perfetto JSON: a track per task, a slice
per state residence, RUNNING named ``run #N``) and :func:`gantt` (an
ASCII Gantt).  The last two read what ``connect(bus, chrome=True)``
records.
"""

from __future__ import annotations

from collections import deque
from itertools import takewhile
from typing import Any, Deque, Dict, List, NamedTuple, Optional, Tuple

from ..core.states import TaskState
from .bus import TelemetryEvent

STRUCTURAL_KINDS = ("sched", "guard")
#: A task's transitions: (time, state entered, run index).
Row = List[Tuple[float, TaskState, int]]
GLYPHS = {TaskState.INIT: ".", TaskState.START_CHECK: "=",
          TaskState.RUNNING: "#", TaskState.END_CHECK: "?",
          TaskState.WAITING: "w", TaskState.DEP_STALLED: "d",
          TaskState.COMPLETE: " "}


class TraceEvent(NamedTuple):
    """One row of the structural view."""

    time: float
    region: str
    task: str
    event: str
    detail: str


class Trace:
    """The bus events heard, in publish order; unbounded by default."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("Trace capacity must be a positive integer")
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TelemetryEvent] = deque(maxlen=capacity)

    def connect(self, bus, chrome: bool = False) -> "Trace":
        """Record ``bus``'s ``sched`` and ``guard`` events; with
        ``chrome``, every kind but ``stream`` (bodies', never first)."""
        if chrome:
            bus.subscribe(self.append, kinds=(
                "transition", "guard", "sched", "valve", "payload", "worker",
                "svc", "tune"))
        else:
            bus.subscribe(self.append, kinds=("sched", "guard"))
        return self

    def append(self, event: TelemetryEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    def record(self, time: float, region: str, task: str,
               event: str, detail: str = "") -> None:
        """Append a hand-made structural (``sched``) event."""
        self.append(TelemetryEvent(time, "sched", region, task, event,
                                   {"detail": detail}))

    @property
    def recorded(self) -> List[TelemetryEvent]:
        """Every stored event, as published."""
        return list(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        return [TraceEvent(e.ts, e.region, e.task, e.name,
                           e.data.get("detail", ""))
                for e in self._events if e.kind in STRUCTURAL_KINDS]

    def for_task(self, task: str) -> List[TraceEvent]:
        return [e for e in self.events if e.task == task]

    def count(self, event: str, task: Optional[str] = None) -> int:
        return sum(1 for e in self.events
                   if e.event == event and (task is None or e.task == task))

    def render(self, limit: Optional[int] = None) -> str:
        return "\n".join(f"{e.time:12.3f}  {e.region:<20} {e.task:<18} "
                         f"{e.event:<14} {e.detail}"
                         for e in self.events[:limit])

    def __len__(self) -> int:
        return sum(1 for e in self._events if e.kind in STRUCTURAL_KINDS)


def _timelines(events) -> Dict[Tuple[str, str], Row]:
    """(region, task) -> its :data:`Row`, in first-transition order
    (graph order on the simulator)."""
    rows: Dict[Tuple[str, str], Row] = {}
    for e in events:
        if e.kind == "transition":
            rows.setdefault((e.region, e.task), []).append(
                (e.ts, TaskState[e.name], e.data.get("run", 0)))
    return rows


def chrome_trace(events: List[TelemetryEvent], time_scale: float,
                 now: Optional[float] = None) -> Dict[str, Any]:
    """The Chrome trace-event document of ``events``, in µs (``time_scale``
    per clock unit) from the first event.  A residence still open at the
    end closes at ``now`` (where the run finished), if given, else
    renders no slice."""
    slices, instants = [], []
    for (region, task), row in _timelines(events).items():
        for (entered, state, run), (left, *_) in zip(row, row[1:] + [(now,)]):
            if state not in (TaskState.INIT, TaskState.COMPLETE) \
                    and left is not None:
                slices.append((entered, max(0.0, left - entered), region,
                               task, state.name, run))
    for e in events:
        if e.kind == "guard":
            detail = e.data.get("detail", "")
            instants.append((e.ts, e.region, e.task, f"guard:{e.name}"
                             + (f" ({detail})" if detail else "")))
        elif e.kind == "valve" and not e.data.get("result", True):
            instants.append((e.ts, e.region, e.task,
                             f"valve:{e.name} failed"))

    epoch = events[0].ts if events else 0.0
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    out: List[Dict[str, Any]] = []
    for region, task in sorted({s[2:4] for s in slices}
                               | {i[1:3] for i in instants}):
        if region not in pids:
            pids[region] = len(pids) + 1
            out.append({"ph": "M", "name": "process_name",
                        "pid": pids[region], "tid": 0,
                        "args": {"name": f"region {region}"}})
        tid = tids[(region, task)] = len(tids) + 1
        out.append({"ph": "M", "name": "thread_name", "pid": pids[region],
                    "tid": tid, "args": {"name": f"task {task}"}})
    for entered, duration, region, task, state, run in sorted(slices):
        out.append({"ph": "X",
                    "name": f"run #{run}" if state == "RUNNING" else state,
                    "cat": state.lower(), "ts": (entered - epoch) * time_scale,
                    "dur": duration * time_scale, "pid": pids[region],
                    "tid": tids[(region, task)],
                    "args": {"state": state, "run": run}})
    for ts, region, task, label in sorted(instants):
        out.append({"ph": "i", "name": label, "s": "t",
                    "ts": (ts - epoch) * time_scale, "pid": pids[region],
                    "tid": tids[(region, task)]})
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def gantt(events, width: int = 80, until: Optional[float] = None) -> str:
    """The ASCII Gantt of ``events``' transitions over ``[0, until]``
    (default: the last transition)."""
    rows = {f"{region}/{task}": row
            for (region, task), row in _timelines(events).items()}
    until = until or max((row[-1][0] for row in rows.values()),
                         default=0.0) or 1.0
    label_width = max((len(label) for label in rows), default=8) + 1
    lines = [f"virtual time 0 .. {until:.1f} "
             f"({until / width:.2f} units/char)"]
    for label, row in rows.items():
        cells = ""
        for column in range(width):
            now = (column + 0.5) * until / width
            entered = [s for _, s, _ in takewhile(lambda p: p[0] <= now, row)]
            cells += GLYPHS[entered[-1]] if entered else " "
        lines.append(f"{label.ljust(label_width)}|{cells}|")
    lines.append("legend: .init  =start-check  #running  ?end-check  "
                 "w waiting  d dep-stalled")
    return "\n".join(lines)


class TimelineRecorder:
    """A trace of ``transition`` events alone, read as a Gantt (for a
    ``chrome=True`` telemetry, ``gantt(telemetry.trace.recorded)``)."""

    def __init__(self):
        self.trace = Trace()

    def connect(self, bus) -> "TimelineRecorder":
        bus.subscribe(self.trace.append, kinds=("transition",))
        return self

    def _rows(self) -> Dict[str, Row]:
        return {f"{region}/{task}": row for (region, task), row
                in _timelines(self.trace.recorded).items()}

    def span(self) -> float:
        return max((row[-1][0] for row in self._rows().values()),
                   default=0.0)

    def render(self, width: int = 80, until: Optional[float] = None) -> str:
        return gantt(self.trace.recorded, width, until)

    def runs_of(self, label: str) -> int:
        return sum(1 for _, state, _ in self._rows().get(label, ())
                   if state is TaskState.RUNNING)
