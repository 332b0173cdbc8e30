"""Relaxed bounded stage queues: the k-out-of-order edges of a pipeline.

A :class:`StageQueue` carries one window of a stream between two
pipeline stages.  It is *relaxed* in the elastic-relaxation sense: a
consumer may drain it while up to ``k`` items are still outstanding
(the staleness bound), and a bounded-capacity queue may *shed* up to
``k`` sheddable items under backpressure instead of blocking the
producer.  Both freedoms are observable and checkable: every state
change is a ``stream``-kind telemetry event on the owning region's bus
(see :meth:`StageQueue._emit`), audited by the SchedLab
:class:`~repro.schedlab.invariants.InvariantChecker` — a serve more
than ``k`` positions out of order, a drain that begins with more than
``k`` items missing, or a dropped must-deliver item is an invariant
violation.  The event is built only when a subscriber reads ``stream``.
The queue counts its puts, parks, sheds and serves per window; the
pipeline adds them to one run tally (:meth:`StageQueue.fold_into`)
before :meth:`StageQueue.reset` empties the queue for the next window,
and folds that tally into the ``stream.*`` metrics once per run.  A
region without a bus publishes nothing.

Storage lives in a region :class:`~repro.core.data.FluidArray` of
per-seq slots, so slot writes are versioned, wake waiting guards, and
ship across the process backend's boundary.  The producer keeps the
tally of arrivals and drops: :meth:`StageQueue.begin_produce` recounts
it from the slots at the start of every producer run (a process worker
installs slot snapshots without a version bump, so nothing cheaper can
tell a stale tally), and ``put``/``shed`` keep it in O(1), deriving the
capacity test, the published settled count and the occupancy sample
from it.  Only ``put``/``shed`` write the tally; readers on other
threads (``missing_total``, ``drops``, ``must_complete``) recount
the slots once per drain or window and never write it back.
The consumer's record is ``_served``, the seqs it has handed out;
occupancy is ``arrived - len(_served)``, exact because a served seq has
always arrived and an arrived slot never becomes empty or dropped again.

Terminology: a seq is *settled* once it is either delivered (its slot
holds the item) or deliberately shed (its slot holds the drop
tombstone).  The :class:`~repro.core.valves.StalenessValve` attached to
a queue watches the ``settled`` count: "at most k of the expected items
are unsettled".
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Iterable, List, Optional, Tuple

from ..core.errors import FluidError

#: Tombstone stored in a slot when a sheddable item is dropped under
#: backpressure.  A 1-tuple so it survives pickling across the process
#: boundary and can never collide with a real ``(seq, value)`` cell.
DROPPED = ("__dropped__",)


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
        seqs are must-deliver; seqs outside ``[0, expected)`` are ignored.
    region:
        The owning :class:`~repro.core.region.FluidRegion`.  The slot
        array is its :class:`~repro.core.data.FluidArray` named
        ``<name>_slots``, settledness is published through its
        :class:`~repro.core.count.Count` named ``<name>_settled`` (what
        staleness valves watch), and events go to its telemetry bus.
    """

    def __init__(self, name: str, expected: int, *, region,
                 bound: float = 0, capacity: Optional[int] = None,
                 must_seqs=None):
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
        self.region = region
        #: optional StalenessValve whose (possibly autotuned) effective
        #: ``k`` overrides ``bound`` for drains; see :meth:`attach_valve`.
        self.valve = None
        self.slots = region.add_array(f"{name}_slots")
        self.settled_count = region.add_count(f"{name}_settled")
        self.reset(must_seqs)

    def reset(self, must_seqs=None) -> None:
        """Empty the queue in place for its next window of the same
        length; ``must_seqs`` as in the constructor."""
        self.must_seqs = None if must_seqs is None else \
            frozenset(must_seqs).intersection(range(self.expected))
        self.slots.init([None] * self.expected)
        self.settled_count.reset()
        # The producer's tally (see the module docstring): written only
        # by put/shed, retaken from the slots by begin_produce.
        self._arrived = 0
        self._dropped = 0
        # Telemetry.  ``occupancies`` (after each put or park) and
        # ``arrivals`` (per seq, the bus-clock time of its first put or
        # park; NaN until then) fill only when the region has a bus.
        # Flat arrays: one object each, whatever the sample count, and
        # none the cyclic collector tracks.
        self._served = set()
        self.stale_reads = 0
        self.parks = 0
        self.puts = 0
        self.sheds = 0
        self.max_displacement = 0
        self.occupancies = array("i")
        self.arrivals = array("d", [math.nan]) * self.expected

    # -- derived state (recounted from the slots) --------------------------

    def _recount(self) -> Tuple[int, int]:
        """``(missing, dropped)``: two C-level passes over the slots,
        the readers' source of truth and the producer's tally source."""
        cells = self.slots.read()
        return cells.count(None), cells.count(DROPPED)

    def arrived(self, seq: int) -> bool:
        cell = self.slots[seq]
        return cell is not None and cell != DROPPED

    def is_dropped(self, seq: int) -> bool:
        return self.slots[seq] == DROPPED

    def settled(self, seq: int) -> bool:
        return self.slots[seq] is not None

    def arrived_total(self) -> int:
        missing, dropped = self._recount()
        return self.expected - missing - dropped

    def drops(self) -> int:
        return self._recount()[1]

    def settled_total(self) -> int:
        return self.expected - self._recount()[0]

    def missing_total(self) -> int:
        return self._recount()[0]

    def occupancy(self) -> int:
        """Delivered-but-unserved items (the backpressure signal), from
        the producer's tally: no slot pass."""
        return self._arrived - len(self._served)

    def must(self, seq: int) -> bool:
        return self.must_seqs is None or seq in self.must_seqs

    def must_complete(self) -> bool:
        """Every must-deliver seq has arrived (the end-valve predicate)."""
        cells = self.slots.read()
        if self.must_seqs is None:
            return None not in cells and DROPPED not in cells
        return all(cells[seq] is not None and cells[seq] != DROPPED
                   for seq in self.must_seqs)

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

    def _emit(self, action: str, seq: int, task: str, *,
              bound: Optional[float] = None, must: bool = False,
              displacement: int = 0, missing: int = 0,
              first: bool = True) -> None:
        """Publish one state change as a ``stream`` event on the
        region's bus; unless a subscriber reads ``stream``, nothing is
        computed or built.

        ``action`` is one of ``put`` (item delivered), ``update`` (a
        rerun refreshed an already-delivered slot), ``drop`` (sheddable
        item shed under backpressure), ``park`` (a must-deliver item
        accepted despite a full queue — the backpressure signal),
        ``begin`` (a consumer started a drain; ``missing`` counts
        unsettled seqs) and ``serve`` (one item handed to a consumer;
        ``displacement`` counts the missing earlier seqs it overtook).
        """
        region = self.region
        telemetry = region.telemetry
        if telemetry is None or not telemetry.wants("stream"):
            return
        if bound is None:
            bound = self.effective_bound()
        telemetry.emit(
            "stream", region.name, task, action,
            data={"queue": self.name, "seq": seq, "bound": bound,
                  "must": must, "displacement": displacement,
                  "missing": missing, "occupancy": self.occupancy(),
                  "first": first})

    # -- producer side -----------------------------------------------------

    def begin_produce(self) -> None:
        """Retake the producer's tally from the slots; every producer
        run calls it first (the mirror of :meth:`begin_consume`)."""
        missing, self._dropped = self._recount()
        self._arrived = self.expected - missing - self._dropped

    def _tombstone(self, seq: int, task: str, must: bool) -> None:
        """Shed ``seq``: the one drop path of ``put`` and ``shed``."""
        self.slots[seq] = DROPPED
        self._dropped += 1
        self.settled_count.set(self._arrived + self._dropped)
        self.sheds += 1
        self._emit("drop", seq, task, must=must)

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
        cell = self.slots._value[seq]
        bus = self.region.telemetry
        if cell is not None:
            if cell == DROPPED:
                return "drop"
            self.slots[seq] = (seq, value)
            action = "update"
        else:
            if self.capacity is not None and \
                    self._arrived - len(self._served) >= self.capacity:
                if self.bound > 0 and self._dropped < self.bound and \
                        not self.must(seq):
                    self._tombstone(seq, task, False)
                    return "drop"
                self.parks += 1
                action = "park"
            else:
                self.puts += 1
                action = "put"
            self.slots[seq] = (seq, value)
            self._arrived += 1
            self.settled_count.set(self._arrived + self._dropped)
            if bus is not None:
                self.occupancies.append(self._arrived - len(self._served))
                self.arrivals[seq] = bus.clock()
        if bus is not None and bus.wants("stream"):
            self._emit(action, seq, task, must=self.must(seq))
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
        if not self.settled(seq):
            self._tombstone(seq, task, False)

    # -- consumer side -----------------------------------------------------

    def begin_consume(self, *, task: str = "") -> int:
        """Record the start of a drain; returns the unsettled count.

        The observable half of the staleness contract: when the start
        valve was honest, ``missing <= k`` here.  The invariant checker
        flags a ``begin`` with ``missing > bound`` as a
        staleness-bound violation (e.g. a forced-true valve fault).
        """
        missing = self.missing_total()
        self._emit("begin", -1, task, missing=missing)
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
        telemetry = self.region.telemetry
        emit = telemetry is not None and telemetry.wants("stream")
        served: List[Tuple[int, Any]] = []
        gaps = 0
        for seq, cell in enumerate(self.slots.read()):
            if cell is None:
                gaps += 1
                if gaps > bound:
                    break
                continue
            if cell == DROPPED:
                continue
            displacement = gaps
            first = seq not in self._served
            self._served.add(seq)
            if first:
                self.max_displacement = max(self.max_displacement,
                                            displacement)
                if displacement > 0:
                    self.stale_reads += 1
            if emit:
                self._emit("serve", seq, task, bound=bound,
                           must=self.must(seq), displacement=displacement,
                           first=first)
            served.append(cell)
        return served

    # -- results -----------------------------------------------------------

    def items(self) -> Iterable[Tuple[int, Any]]:
        """The delivered ``(seq, value)`` cells, in seq order."""
        for cell in self.slots.read():
            if cell is not None and cell != DROPPED:
                yield cell

    def fold_into(self, tally: dict) -> None:
        """Add this window's counts to a run's ``tally`` (the shape
        ``MetricsRegistry.record_queues`` folds) before :meth:`reset`:
        ``puts`` within capacity, first serves, stale first serves, the
        tombstones this queue wrote, parks and occupancy samples."""
        for key in ("puts", "stale_reads", "sheds", "parks"):
            tally[key] += getattr(self, key)
        tally["served"] += len(self._served)
        tally["occupancies"].extend(self.occupancies)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"StageQueue({self.name}, {self.settled_total()}"
                f"/{self.expected} settled, k={self.bound:g})")
