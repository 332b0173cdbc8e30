"""Relaxed bounded stage queues: the k-out-of-order edges of a pipeline.

A :class:`StageQueue` carries one window of a stream between two
pipeline stages.  It is *relaxed* in the elastic-relaxation sense: a
consumer may drain it while up to ``k`` items are still outstanding
(the staleness bound), and a bounded-capacity queue may *shed* up to
``k`` sheddable items under backpressure instead of blocking the
producer.  Both freedoms are observable and checkable:

* every state change publishes a :class:`QueueEvent` to the module's
  stream-observer registry (:func:`add_stream_observer`), which the
  SchedLab :class:`~repro.schedlab.invariants.InvariantChecker`
  subscribes to — a serve more than ``k`` positions out of order, a
  drain that begins with more than ``k`` items missing, or a dropped
  must-deliver item is an invariant violation;
* the same changes are emitted as ``stream``-kind telemetry events on
  the owning region's bus (counted into the ``stream.*`` metrics
  catalogue).

Storage lives in a :class:`~repro.core.data.FluidArray` of per-seq
slots when the queue is region-bound (so slot writes are versioned,
wake waiting guards, and ship across the process backend's boundary),
or a plain list for standalone use (property tests).  All derived
state — arrivals, drops, settledness — is recomputed from the slot
array, never cached in side sets, so a forked worker that receives a
payload snapshot sees a consistent queue.

Terminology: a seq is *settled* once it is either delivered (its slot
holds the item) or deliberately shed (its slot holds the drop
tombstone).  The :class:`~repro.core.valves.StalenessValve` attached to
a queue watches the ``settled`` count: "at most k of the expected items
are unsettled".
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, NamedTuple, Optional, Tuple

from ..core.count import Count
from ..core.errors import FluidError

#: Tombstone stored in a slot when a sheddable item is dropped under
#: backpressure.  A 1-tuple so it survives pickling across the process
#: boundary and can never collide with a real ``(seq, value)`` cell.
DROPPED = ("__dropped__",)


class QueueEvent(NamedTuple):
    """One observable stage-queue state change.

    ``action`` is one of ``put`` (item delivered), ``update`` (a rerun
    refreshed an already-delivered slot), ``drop`` (sheddable item shed
    under backpressure), ``park`` (a must-deliver item accepted despite
    a full queue — the backpressure signal), ``begin`` (a consumer
    started a drain; ``missing`` counts unsettled seqs) and ``serve``
    (one item handed to a consumer; ``displacement`` counts the
    missing earlier seqs it overtook).
    """

    action: str
    queue: str
    seq: int
    bound: float
    must: bool = False
    displacement: int = 0
    missing: int = 0
    occupancy: int = 0
    first: bool = True


#: Module-level observer registry; see :func:`add_stream_observer`.
_OBSERVERS: List[Callable[[QueueEvent], None]] = []


def add_stream_observer(observer: Callable[[QueueEvent], None]) -> None:
    """Register ``observer(event)`` for every stage-queue state change.

    The hook the SchedLab invariant checker uses; observers must not
    mutate queues.
    """
    _OBSERVERS.append(observer)


def remove_stream_observer(observer: Callable[[QueueEvent], None]) -> None:
    """Remove an observer registered with :func:`add_stream_observer`."""
    try:
        _OBSERVERS.remove(observer)
    except ValueError:
        pass


def _notify(event: QueueEvent) -> None:
    for observer in list(_OBSERVERS):
        observer(event)


class StageQueue:
    """A bounded, staleness-relaxed seq-indexed queue for one window.

    Parameters
    ----------
    name:
        Identifier used in events, valves and diagnostics.
    expected:
        Number of seqs (0..expected-1) this window carries.
    bound:
        The staleness bound ``k``: a drain tolerates up to ``bound``
        missing items, and up to ``bound`` sheddable items may be
        dropped under backpressure.  ``0`` degrades to lossless FIFO.
    capacity:
        Maximum in-flight occupancy (delivered but unserved items)
        before backpressure kicks in; ``None`` = unbounded.
    must_seqs:
        Seqs that must be delivered, never shed.  ``None`` means *all*
        seqs are must-deliver.
    region:
        When given, the slot array is a region
        :class:`~repro.core.data.FluidArray` named ``<name>_slots`` and
        settledness is published through a region
        :class:`~repro.core.count.Count` named ``<name>_settled`` (what
        staleness valves watch).  Standalone queues use plain storage.
    """

    def __init__(self, name: str, expected: int, *, bound: float = 0,
                 capacity: Optional[int] = None, must_seqs=None,
                 region=None):
        if expected < 0:
            raise FluidError(f"queue {name!r}: expected must be >= 0")
        if not 0 <= bound <= expected:
            raise FluidError(
                f"queue {name!r}: staleness bound {bound} outside "
                f"[0, {expected}]")
        if capacity is not None and capacity < 1:
            raise FluidError(f"queue {name!r}: capacity must be >= 1")
        self.name = name
        self.expected = int(expected)
        self.bound = float(bound)
        self.capacity = capacity
        self.must_seqs = (None if must_seqs is None
                          else frozenset(int(s) for s in must_seqs))
        self.region = region
        #: optional StalenessValve whose (possibly autotuned) effective
        #: ``k`` overrides ``bound`` for drains; see :meth:`attach_valve`.
        self.valve = None
        if region is not None:
            self.slots = region.add_array(f"{name}_slots",
                                          [None] * self.expected)
            self.settled_count: Optional[Count] = region.add_count(
                f"{name}_settled")
        else:
            self.slots = [None] * self.expected
            self.settled_count = None
        # Consumer-side bookkeeping (telemetry only; correctness is
        # derived from the slots so process workers stay consistent).
        self._served = set()
        self.stale_reads = 0
        self.parks = 0
        self.max_displacement = 0

    # -- derived state (always recomputed from the slots) -----------------

    def _cell(self, seq: int):
        return self.slots[seq]

    def _cells(self) -> list:
        """The raw slot list: the totals below, computed on every put
        and every served item, are one pass over it."""
        slots = self.slots
        return slots if isinstance(slots, list) else slots.read()

    def arrived(self, seq: int) -> bool:
        cell = self._cell(seq)
        return cell is not None and cell != DROPPED

    def is_dropped(self, seq: int) -> bool:
        return self._cell(seq) == DROPPED

    def settled(self, seq: int) -> bool:
        return self._cell(seq) is not None

    def arrived_total(self) -> int:
        cells = self._cells()
        return self.expected - cells.count(None) - cells.count(DROPPED)

    def drops(self) -> int:
        return self._cells().count(DROPPED)

    def settled_total(self) -> int:
        return self.expected - self._cells().count(None)

    def missing_total(self) -> int:
        return self._cells().count(None)

    def occupancy(self) -> int:
        """Delivered-but-unserved items (the backpressure signal)."""
        served = self._served
        return sum(1 for seq, cell in enumerate(self._cells())
                   if cell is not None and cell != DROPPED
                   and seq not in served)

    def must(self, seq: int) -> bool:
        return self.must_seqs is None or seq in self.must_seqs

    def must_complete(self) -> bool:
        """Every must-deliver seq has arrived (the end-valve predicate)."""
        return all(self.arrived(seq) for seq in range(self.expected)
                   if self.must(seq))

    def effective_bound(self) -> float:
        """Current drain tolerance: the attached valve's (possibly
        modulated/autotuned) ``k`` when present, else the static bound."""
        if self.valve is not None:
            return min(self.bound, self.valve.k)
        return self.bound

    # -- wiring ------------------------------------------------------------

    def attach_valve(self, valve) -> "StageQueue":
        """Bind the StalenessValve that gates this queue's consumer, so
        drains honour the valve's *effective* k as modulation and the
        autotuner move it (tightening toward 0 = toward FIFO)."""
        self.valve = valve
        return self

    def _emit(self, event: QueueEvent, task: str = "") -> None:
        _notify(event)
        region = self.region
        telemetry = getattr(region, "telemetry", None)
        if telemetry is not None:
            telemetry.emit(
                "stream", getattr(region, "name", ""), task, event.action,
                data={"queue": event.queue, "seq": event.seq,
                      "bound": event.bound, "must": event.must,
                      "displacement": event.displacement,
                      "missing": event.missing,
                      "occupancy": event.occupancy, "first": event.first})

    # -- producer side -----------------------------------------------------

    def put(self, seq: int, value: Any, *, task: str = "") -> str:
        """Deliver (or shed) item ``seq``; returns the action taken.

        Idempotent across re-executions: a rerun that puts an
        already-delivered seq refreshes the value in place (an
        ``update``, not a recount), and a previously shed seq stays
        shed so drop decisions are monotone.  Must-deliver items are
        *never* refused — at capacity they are accepted anyway and the
        overflow is recorded as a ``park`` (the backpressure signal a
        paced source can react to).
        """
        if not 0 <= seq < self.expected:
            raise FluidError(
                f"queue {self.name!r}: seq {seq} outside "
                f"[0, {self.expected})")
        if self.is_dropped(seq):
            return "drop"
        must = self.must(seq)
        if self.arrived(seq):
            self.slots[seq] = (seq, value)
            self._emit(QueueEvent("update", self.name, seq,
                                  self.effective_bound(), must=must,
                                  occupancy=self.occupancy()), task)
            return "update"
        action = "put"
        if self.capacity is not None and self.occupancy() >= self.capacity:
            if not must and self.bound > 0 and self.drops() < self.bound:
                self.slots[seq] = DROPPED
                if self.settled_count is not None:
                    self.settled_count.set(self.settled_total())
                self._emit(QueueEvent("drop", self.name, seq,
                                      self.effective_bound(), must=must,
                                      occupancy=self.occupancy()), task)
                return "drop"
            self.parks += 1
            action = "park"
        self.slots[seq] = (seq, value)
        if self.settled_count is not None:
            self.settled_count.set(self.settled_total())
        self._emit(QueueEvent(action, self.name, seq,
                              self.effective_bound(), must=must,
                              occupancy=self.occupancy()), task)
        return action

    def shed(self, seq: int, *, task: str = "") -> None:
        """Propagate an upstream drop: tombstone ``seq`` so downstream
        settledness still converges (a permanently missing seq would
        otherwise hold every later staleness valve below threshold).
        Idempotent; must-deliver seqs can never be shed.
        """
        if not 0 <= seq < self.expected:
            raise FluidError(
                f"queue {self.name!r}: seq {seq} outside "
                f"[0, {self.expected})")
        if self.must(seq):
            raise FluidError(
                f"queue {self.name!r}: must-deliver seq {seq} cannot "
                "be shed")
        if self.settled(seq):
            return
        self.slots[seq] = DROPPED
        if self.settled_count is not None:
            self.settled_count.set(self.settled_total())
        self._emit(QueueEvent("drop", self.name, seq,
                              self.effective_bound(),
                              occupancy=self.occupancy()), task)

    # -- consumer side -----------------------------------------------------

    def begin_consume(self, *, task: str = "") -> int:
        """Record the start of a drain; returns the unsettled count.

        The observable half of the staleness contract: when the start
        valve was honest, ``missing <= k`` here.  The invariant checker
        flags a ``begin`` with ``missing > bound`` as a
        staleness-bound violation (e.g. a forced-true valve fault).
        """
        missing = self.missing_total()
        self._emit(QueueEvent("begin", self.name, -1,
                              self.effective_bound(), missing=missing,
                              occupancy=self.occupancy()), task)
        return missing

    def drain(self, *, task: str = "") -> List[Tuple[int, Any]]:
        """Serve available items in seq order, tolerating ``k`` gaps.

        Walks seqs in order; a shed seq is skipped (its absence was
        already accounted for), a missing seq counts as a gap, and the
        walk stops before serving past gap ``k + 1`` — so no served
        item is ever more than ``k`` positions out of order, and at
        ``k = 0`` the result is exactly the contiguous FIFO prefix.
        Re-serving on a re-execution is expected (the recompute model);
        only first serves count toward ``stream.stale_reads``.
        """
        bound = self.effective_bound()
        served: List[Tuple[int, Any]] = []
        gaps = 0
        for seq in range(self.expected):
            if self.is_dropped(seq):
                continue
            cell = self._cell(seq)
            if cell is None:
                gaps += 1
                if gaps > bound:
                    break
                continue
            displacement = gaps
            first = seq not in self._served
            self._served.add(seq)
            if first:
                self.max_displacement = max(self.max_displacement,
                                            displacement)
                if displacement > 0:
                    self.stale_reads += 1
            self._emit(QueueEvent("serve", self.name, seq, bound,
                                  must=self.must(seq),
                                  displacement=displacement,
                                  occupancy=self.occupancy(),
                                  first=first), task)
            served.append(cell)
        return served

    # -- results -----------------------------------------------------------

    def items(self) -> Iterable[Tuple[int, Any]]:
        """The delivered ``(seq, value)`` cells, in seq order."""
        for seq in range(self.expected):
            if self.arrived(seq):
                yield self._cell(seq)

    def stats(self) -> dict:
        return {"expected": self.expected,
                "arrived": self.arrived_total(),
                "drops": self.drops(),
                "parks": self.parks,
                "stale_reads": self.stale_reads,
                "max_displacement": self.max_displacement}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StageQueue({self.name}, {self.settled_total()}"
                f"/{self.expected} settled, k={self.bound:g})")
