"""Execution traces: a timeline of scheduler and guard events.

Traces serve two purposes: debugging fluidized programs (what re-executed
and why) and the residence-time statistics behind Table 3.  Tracing is
off by default; pass ``trace=True`` to an executor to collect one.

A :class:`Trace` can be fed directly via :meth:`Trace.record` or
attached to a :class:`~repro.telemetry.bus.TelemetryBus` with
:meth:`Trace.connect`, where it records the ``sched`` and ``guard``
event kinds — the same stream the executors used to write into it
directly, so pre-telemetry traces and bus-fed traces are line-for-line
identical.

For long soak runs, pass ``capacity=N`` to keep only the most recent
``N`` events in a ring buffer; :attr:`Trace.dropped` counts evictions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional


class TraceEvent(NamedTuple):
    time: float
    region: str
    task: str
    event: str
    detail: str


class Trace:
    """An append-only list of :class:`TraceEvent` with query helpers.

    ``capacity=None`` (the default) grows without bound; an integer
    capacity turns the store into a ring buffer that evicts the oldest
    event on overflow and counts the evictions in :attr:`dropped`.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("Trace capacity must be a positive integer")
        self.capacity = capacity
        self.dropped = 0
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def record(self, time: float, region: str, task: str,
               event: str, detail: str = "") -> None:
        if self.capacity is not None and len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(time, region, task, event, detail))

    def connect(self, bus) -> "Trace":
        """Subscribe to a :class:`~repro.telemetry.bus.TelemetryBus`.

        Only ``sched`` and ``guard`` events are recorded — the kinds the
        executors historically wrote — so golden traces stay stable as
        new event kinds join the bus.
        """
        bus.subscribe(self._on_event, kinds=("sched", "guard"))
        return self

    def _on_event(self, event) -> None:
        self.record(event.ts, event.region, event.task, event.name,
                    event.data.get("detail", ""))

    def for_task(self, task: str) -> List[TraceEvent]:
        return [e for e in self._events if e.task == task]

    def count(self, event: str, task: Optional[str] = None) -> int:
        return sum(1 for e in self._events
                   if e.event == event and (task is None or e.task == task))

    def render(self, limit: Optional[int] = None) -> str:
        lines = [f"{e.time:12.3f}  {e.region:<20} {e.task:<18} "
                 f"{e.event:<14} {e.detail}"
                 for e in self.events[:limit]]
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._events)
