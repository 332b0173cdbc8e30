"""Counts: introspection on the state of Fluid data (``#pragma count``).

A :class:`Count` is the paper's ``__count__<T>`` — a small observable cell
that task bodies update as they make progress ("number of pixels smoothed
so far", "current minimum pose energy", ...).  Valves watch counts; the
runtime re-evaluates the valves whenever a count changes.

Updates are routed through a *sink* so each execution backend can decide
when observers learn about a change:

* the default :class:`ImmediateSink` dispatches synchronously (fine for
  tests and for the thread backend, which adds locking on top);
* the discrete-event simulator installs a buffering sink so that updates
  made inside a work chunk become visible at the chunk's virtual
  completion time, not at the instant the Python code happens to run;
* the process backend's workers install a :class:`RecordingSink` that
  buffers updates for batched shipment to the parent process, where they
  are re-applied with :meth:`Count.replay`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple


class UpdateSink:
    """Receives ``(count, value)`` notifications; backends override this."""

    def count_updated(self, count: "Count", value: Any) -> None:
        count.dispatch(value)


class ImmediateSink(UpdateSink):
    """Dispatches every update to subscribers as soon as it happens."""


class RecordingSink(UpdateSink):
    """Buffers visible updates as picklable ``(name, value)`` records.

    Used by out-of-process workers: the worker's copies of the counts
    never dispatch locally; instead the batched records travel back to
    the parent process, which replays each one on the authoritative
    count (:meth:`Count.replay`) so valves and subscribers observe the
    exact same update sequence a single-process run would produce.
    """

    def __init__(self):
        self.buffer: List[Tuple[str, Any]] = []

    def count_updated(self, count: "Count", value: Any) -> None:
        self.buffer.append((count.name, value))

    def drain(self) -> List[Tuple[str, Any]]:
        """Return and clear the buffered update records."""
        records, self.buffer = self.buffer, []
        return records


class Count:
    """An observable counter or tracked statistic attached to Fluid data.

    Parameters
    ----------
    name:
        Identifier used in traces and diagnostics.
    initial:
        Starting value (``0`` for plain event counters).
    """

    def __init__(self, name: str, initial: Any = 0,
                 sink: Optional[UpdateSink] = None):
        self.name = name
        self._initial = initial
        self._value = initial
        self._sink = sink or ImmediateSink()
        self._subscribers: List[Callable[["Count", Any], None]] = []
        self.updates = 0

    # -- state -----------------------------------------------------------

    @property
    def value(self) -> Any:
        return self._value

    def reset(self) -> None:
        """Restore the initial value (used when a region is re-armed)."""
        self._value = self._initial
        self.updates = 0

    def init(self, value: Any) -> "Count":
        """(Re)set the starting value; mirrors ``ct.init(0)`` in Figure 3."""
        self._initial = value
        self._value = value
        self.updates = 0
        return self

    # -- mutation (called from task bodies) -------------------------------

    def add(self, delta: Any = 1) -> None:
        """Increment the counter; the common case for progress counts."""
        self.set(self._value + delta)

    def set(self, value: Any) -> None:
        """Overwrite the tracked value (e.g. a running minimum)."""
        self._value = value
        self.updates += 1
        self._sink.count_updated(self, value)

    def track_min(self, candidate: Any) -> None:
        """Record ``candidate`` if it improves on the current minimum."""
        if self.updates == 0 or candidate < self._value:
            self.set(candidate)
        else:
            # Still an observation: convergence valves need to see that an
            # update round happened even when the minimum did not improve.
            self.set(self._value)

    def track_max(self, candidate: Any) -> None:
        """Record ``candidate`` if it exceeds the current maximum."""
        if self.updates == 0 or candidate > self._value:
            self.set(candidate)
        else:
            self.set(self._value)

    # -- cross-process state exchange -------------------------------------

    def export_state(self) -> "Tuple[Any, int]":
        """Snapshot ``(value, updates)`` for shipment to a worker process."""
        return (self._value, self.updates)

    def install_state(self, value: Any, updates: int) -> None:
        """Adopt a state exported by another process (no dispatch)."""
        self._value = value
        self.updates = updates

    def replay(self, value: Any) -> None:
        """Re-apply one update observed in another process.

        Equivalent to the visible half of :meth:`set`: the value lands,
        the update counter advances, and subscribers are notified —
        without routing through the sink again (the update already went
        through the worker's sink once).
        """
        self._value = value
        self.updates += 1
        self.dispatch(value)

    # -- observation -----------------------------------------------------

    def subscribe(self, callback: Callable[["Count", Any], None]) -> None:
        """Register ``callback(count, value)`` for every visible update."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[["Count", Any], None]) -> None:
        """Drop one registration of ``callback``."""
        self._subscribers.remove(callback)

    #: Symmetric name with :meth:`FluidData.on_update`; valves use
    #: :meth:`subscribe`, wakeup plumbing reads better with ``on_update``.
    on_update = subscribe

    def dispatch(self, value: Any) -> None:
        """Deliver one visible update to all subscribers (sink calls this)."""
        for callback in self._subscribers:
            callback(self, value)

    # -- wiring ------------------------------------------------------------

    def bind_sink(self, sink: UpdateSink) -> None:
        self._sink = sink

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Count({self.name}={self._value!r}, updates={self.updates})"
