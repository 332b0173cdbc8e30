"""ASCII Gantt rendering of simulated executions.

Turns a run's ``transition`` telemetry events into a per-task timeline
so fluidized schedules can be inspected at a glance::

    region/task            |#####===R====ody....C        |
                            ^init   ^running  ^waiting

Legend: ``.`` init, ``=`` start-check (valve wait), ``#`` running,
``?`` end-check, ``w`` waiting, ``d`` dep-stalled, blank complete.
Re-executions show up as repeated ``#`` stretches on the same row —
exactly the phenomenon of the paper's Table 3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.states import TaskState

#: glyph per state
GLYPHS = {
    TaskState.INIT: ".",
    TaskState.START_CHECK: "=",
    TaskState.RUNNING: "#",
    TaskState.END_CHECK: "?",
    TaskState.WAITING: "w",
    TaskState.DEP_STALLED: "d",
    TaskState.COMPLETE: " ",
}


class TimelineRecorder:
    """Collects (time, state) transitions per task during a sim run.

    A bus subscriber: connect it to the run's telemetry before the run::

        telemetry = Telemetry()
        recorder = TimelineRecorder().connect(telemetry.bus)
        run_fluid(..., telemetry=telemetry)
        print(recorder.render(width=80))
    """

    def __init__(self):
        #: ``region/task`` label -> its (time, state) transitions; rows
        #: render in insertion (first-transition) order.
        self._events: Dict[str, List[Tuple[float, TaskState]]] = {}

    def connect(self, bus) -> "TimelineRecorder":
        """Feed the recorder from a telemetry bus's ``transition`` events.

        Rows appear lazily, in first-transition order (graph order on
        the simulator, whose guards launch in graph order), labelled
        ``region/task``.
        """
        bus.subscribe(self._on_event, kinds=("transition",))
        return self

    def _on_event(self, event) -> None:
        label = f"{event.region}/{event.task}"
        self._events.setdefault(label, []).append(
            (event.ts, TaskState[event.name]))

    # -- rendering -----------------------------------------------------------

    def span(self) -> float:
        last = 0.0
        for events in self._events.values():
            last = max(last, events[-1][0])
        return last

    def render(self, width: int = 80,
               until: Optional[float] = None) -> str:
        until = until or self.span() or 1.0
        label_width = max((len(label) for label in self._events),
                          default=8) + 1
        lines = [f"virtual time 0 .. {until:.1f} "
                 f"({until / width:.2f} units/char)"]
        for label, events in self._events.items():
            lines.append(label.ljust(label_width) + "|"
                         + self._row(events, width, until) + "|")
        lines.append("legend: .init  =start-check  #running  ?end-check  "
                     "w waiting  d dep-stalled")
        return "\n".join(lines)

    def _row(self, events: List[Tuple[float, TaskState]], width: int,
             until: float) -> str:
        cells = []
        for column in range(width):
            time = (column + 0.5) * until / width
            state = self._state_at(events, time)
            cells.append(GLYPHS.get(state, " "))
        return "".join(cells)

    @staticmethod
    def _state_at(events: List[Tuple[float, TaskState]],
                  time: float) -> Optional[TaskState]:
        state: Optional[TaskState] = None
        for when, new_state in events:
            if when > time:
                break
            state = new_state
        return state

    # -- statistics ------------------------------------------------------------

    def runs_of(self, label: str) -> int:
        return sum(1 for _t, state in self._events.get(label, ())
                   if state is TaskState.RUNNING)
