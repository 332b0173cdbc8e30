"""The telemetry event bus: one structured stream for every backend.

The bus is the only way anything learns what a run did.  Executors, the
guard :class:`~repro.core.guard.Coordinator`,
:class:`~repro.core.task.FluidTask`, stage queues, the service and the
autotuner publish :class:`TelemetryEvent` records into a
:class:`TelemetryBus`; subscribers — the
:class:`~repro.telemetry.trace.Trace` record (whose structural, Chrome
and Gantt views read one event list), the
:class:`~repro.telemetry.metrics.MetricsRegistry`, the autotuner,
SchedLab's :class:`~repro.schedlab.invariants.InvariantChecker` —
consume the same stream, so the simulator, thread and process backends
feed exactly the same instrumentation pipeline.

Event kinds
-----------

``transition``
    A Figure-5 state-machine transition.  ``name`` is the destination
    state; ``data`` carries ``src`` (source state) and ``run`` (the
    task's run index at transition time).
``guard``
    A Coordinator decision: ``rerun``, ``wait``, ``complete``,
    ``dep-stalled``, ``failed``; ``data["detail"]`` carries the reason.
``sched``
    A backend scheduling event: ``launch``, ``run``, ``spawn``,
    ``region-done`` (``data["detail"]`` carries free-form detail), plus
    the :mod:`repro.sched` decision events ``steal`` (work-stealing
    migration, ``data`` has ``victim``/``thief``), ``shed`` (bounded
    admission rejected a sheddable task) and ``defer`` (bounded
    admission parked a must-run task).  None of the decision events can
    occur under the default FCFS discipline, which is what keeps the
    golden structural traces stable.
``valve``
    One evaluation of a task's start or end valve set.  ``name`` is
    ``start`` or ``end``; ``data`` carries ``result`` (bool) and
    ``valves`` (set size), plus ``forced`` when a SchedLab fault plan
    chose the verdict.  Built only while a subscriber reads the kind
    (a Chrome-enabled trace, the autotuner); the verdict tallies behind
    the ``valve.*`` counters live in the task's ``TaskStats``.
``payload``
    Process-backend payload traffic.  ``name`` is ``to-worker`` or
    ``from-worker``; ``data`` carries ``bytes`` and ``cells``.
``worker``
    Process-backend pool occupancy: ``dispatch``/``free`` with
    ``data["slot"]``.
``svc``
    Service-frontend request lifecycle (:mod:`repro.service`):
    ``request``/``admit``/``shed``/``dispatch``/``complete``/``fail``;
    ``data`` carries per-request ``latency``, ``queue_wait``, ``slo``
    and ``slo_met`` on completion and the batch ``requests`` count on
    dispatch.  Published only from the service's event-loop thread.
``stream``
    Stage-queue activity (:mod:`repro.stream`): ``put``/``update``
    (delivery / idempotent rerun rewrite), ``drop`` (sheddable item
    shed), ``park`` (must-deliver item accepted past capacity),
    ``begin`` (a consumer drain started; ``data["missing"]`` counts
    unsettled seqs) and ``serve`` (``data`` carries ``displacement``
    and ``first``); all carry ``queue``, ``seq``, ``bound`` and
    ``occupancy``.  Published from task bodies: on the process backend
    those run in workers, whose copy of the region has no bus, so the
    parent's bus never carries them.
``tune``
    Closed-loop valve autotuning (:mod:`repro.tuning`): ``attach`` (a
    region's valves joined the loop at ``data["position"]``) and
    ``adjust`` (one actuation: ``metric``, ``error``, ``before``, ``after``).

Timestamps are in the publishing executor's clock: virtual cost units
under the simulator, seconds since the run epoch under the thread and
process backends.  :meth:`TelemetryBus.bind_clock` records which, so
exporters can scale uniformly.

Routing: a subscriber names the kinds it reads
(``subscribe(callback, kinds=("transition",))``; the default ``None``
reads every kind), and :meth:`TelemetryBus.publish` / ``emit`` deliver
each event only to the subscribers of its kind.  ``emit`` builds no
timestamp and no event for a kind nobody reads, and a publisher whose
event data costs something to gather asks :meth:`TelemetryBus.wants`
first (a stage queue builds no ``stream`` event unless a subscriber
reads ``stream``).

Thread-safety: the bus itself takes no locks.  State-machine events
are serialized by their publishers (the simulator is single-threaded,
the thread backend publishes under its pool lock, the process backend
from the parent control loop only).  Events a task *body* causes
(``stream``, a body's own ``payload``/``rebound``) are published from
that body, on the thread backend concurrently and outside the pool
lock: a subscriber to those kinds keeps its state append-only or locks.
"""

from __future__ import annotations

import time
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)


class TelemetryEvent(NamedTuple):
    """One structured record on the bus."""

    ts: float
    kind: str
    region: str
    task: str
    name: str
    data: Dict[str, Any]


class TelemetryBus:
    """Synchronous publish/subscribe fan-out, routed by event kind."""

    def __init__(self):
        #: (callback, kinds or None) in subscription order.
        self._subscribers: List[Tuple[Callable[[TelemetryEvent], None],
                                      Optional[frozenset]]] = []
        # kind -> its subscribers, for every kind some subscriber names;
        # any other kind goes to ``_every`` (the all-kinds subscribers).
        # Both are rebuilt, never mutated, so publishers read them
        # without a lock.
        self._routes: Dict[str, Tuple[Callable, ...]] = {}
        self._every: Tuple[Callable, ...] = ()
        #: The publishing executor's clock (rebound via :meth:`bind_clock`).
        self.clock: Callable[[], float] = time.perf_counter
        #: Multiplier that converts bus timestamps to microseconds for
        #: the Chrome trace view: 1.0 for virtual time (one cost
        #: unit renders as one microsecond), 1e6 for wall-clock seconds.
        self.time_scale: float = 1e6
        #: Count of events delivered so far, i.e. offered while some
        #: subscriber read their kind (cheap health indicator).
        self.published = 0

    # -- wiring ----------------------------------------------------------

    def subscribe(self, callback: Callable[[TelemetryEvent], None],
                  kinds: Optional[Iterable[str]] = None) -> None:
        """Register ``callback(event)`` for the events of ``kinds``
        (every kind when ``None``); a repeated subscribe is ignored."""
        if all(callback != known for known, _ in self._subscribers):
            self._subscribers.append(
                (callback, None if kinds is None else frozenset(kinds)))
            self._reroute()

    def unsubscribe(self, callback: Callable[[TelemetryEvent], None]) -> None:
        self._subscribers = [entry for entry in self._subscribers
                             if entry[0] != callback]
        self._reroute()

    def _reroute(self) -> None:
        named = set().union(*(kinds for _, kinds in self._subscribers
                              if kinds is not None))
        self._routes = {
            kind: tuple(callback for callback, kinds in self._subscribers
                        if kinds is None or kind in kinds)
            for kind in named}
        self._every = tuple(callback for callback, kinds in self._subscribers
                            if kinds is None)

    def wants(self, kind: str) -> bool:
        """Whether any subscriber reads events of ``kind``."""
        return bool(self._routes.get(kind, self._every))

    def bind_clock(self, clock: Callable[[], float],
                   time_scale: float) -> None:
        """Adopt the executor's clock (called once, at run start)."""
        self.clock = clock
        self.time_scale = time_scale

    # -- publishing ------------------------------------------------------

    def publish(self, event: TelemetryEvent) -> None:
        subscribers = self._routes.get(event.kind, self._every)
        if subscribers:
            self.published += 1
        for callback in subscribers:
            callback(event)

    def emit(self, kind: str, region: str, task: str, name: str,
             ts: Optional[float] = None,
             data: Optional[Dict[str, Any]] = None) -> None:
        """Convenience publisher; ``ts`` defaults to the bound clock."""
        subscribers = self._routes.get(kind, self._every)
        if not subscribers:
            return
        self.published += 1
        event = TelemetryEvent(self.clock() if ts is None else ts,
                               kind, region, task, name,
                               data if data is not None else {})
        for callback in subscribers:
            callback(event)
