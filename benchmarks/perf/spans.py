"""Span recorder for the traced run.

The benchmark's own files wrap each call into a layer in a span
``(name, start, end, parent, op_id)``.  Spans are held in memory and
written as Chrome-trace JSON when the run ends (load the file in
``chrome://tracing`` or https://ui.perfetto.dev).  With tracing off the
same code runs against :data:`OFF`, whose spans do nothing.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NO_SPAN = _NoSpan()


class NullRecorder:
    """Tracing off: ``span()`` hands back one shared do-nothing object."""

    enabled = False

    def span(self, name: str, op_id: int = -1):
        return _NO_SPAN


OFF = NullRecorder()


class _Span:
    __slots__ = ("recorder", "name", "op_id", "start", "parent", "index")

    def __init__(self, recorder: "SpanRecorder", name: str, op_id: int):
        self.recorder = recorder
        self.name = name
        self.op_id = op_id

    def __enter__(self):
        recorder = self.recorder
        self.parent = recorder._open[-1] if recorder._open else -1
        self.index = len(recorder.rows)
        # Reserve the row now so children can point at it.
        recorder.rows.append(None)
        recorder._open.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        end = time.perf_counter()
        recorder = self.recorder
        recorder._open.pop()
        recorder.rows[self.index] = (self.name, self.start, end,
                                     self.parent, self.op_id, 0)
        return False


class SpanRecorder:
    """Tracing on.  Spans are opened only from the load-generating
    thread; asyncio ops that interleave record theirs with :meth:`add`."""

    enabled = True

    def __init__(self):
        #: (name, start_s, end_s, parent_index, op_id, lane) per span.
        self.rows: List[Optional[tuple]] = []
        self._open: List[int] = []

    def span(self, name: str, op_id: int = -1) -> _Span:
        return _Span(self, name, op_id)

    def add(self, name: str, start: float, end: float, op_id: int = -1,
            parent: int = -1, lane: int = 0) -> int:
        """Record a finished span directly (for interleaved asyncio ops,
        whose spans overlap and cannot use the open-span stack; ``lane``
        picks the trace row so overlapping ops do not stack)."""
        self.rows.append((name, start, end, parent, op_id, lane))
        return len(self.rows) - 1

    # -- analysis ----------------------------------------------------------

    def finished(self) -> List[tuple]:
        return [row for row in self.rows if row is not None]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, seconds."""
        child_time = [0.0] * len(self.rows)
        for row in self.rows:
            if row is not None and row[3] >= 0:
                child_time[row[3]] += row[2] - row[1]
        totals: Dict[str, float] = {}
        for index, row in enumerate(self.rows):
            if row is None:
                continue
            own = max(0.0, row[2] - row[1] - child_time[index])
            totals[row[0]] = totals.get(row[0], 0.0) + own
        return totals

    def total_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for row in self.finished():
            totals[row[0]] = totals.get(row[0], 0.0) + row[2] - row[1]
        return totals

    def durations(self, name: str) -> List[float]:
        return [row[2] - row[1] for row in self.finished() if row[0] == name]

    # -- export ------------------------------------------------------------

    def write_chrome_trace(self, path: str, process_name: str) -> None:
        rows = self.finished()
        epoch = min((row[1] for row in rows), default=0.0)
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": process_name}}]
        for name, start, end, parent, op_id, lane in rows:
            events.append({
                "ph": "X", "pid": 1, "tid": 1 + lane, "name": name,
                "cat": name.split(".", 1)[0],
                "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
                "args": {"op_id": op_id, "parent": parent}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
            handle.write("\n")
