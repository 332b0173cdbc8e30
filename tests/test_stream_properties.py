"""Hypothesis property tests for the staleness-relaxed stage queue.

The k-out-of-order contract of :class:`repro.stream.StageQueue`, checked
over arbitrary interleavings of producer puts and consumer drains:

* no item is ever served more than ``k`` positions out of order
  (``displacement <= k`` on every serve event, for any schedule);
* a must-deliver item is never dropped, under any capacity pressure;
* at ``k = 0`` the queue degrades to lossless FIFO: drains serve
  exactly the contiguous seq prefix, in order, with zero drops;
* settledness (arrived + shed) is monotone and re-puts are idempotent,
  which is what makes the rerun-based recompute model safe.

The random-schedule layer mirrors ``test_state_machine_properties``:
the :class:`~repro.schedlab.invariants.InvariantChecker` subscribes to
the queue's region bus, so the same audits that catch injected faults
in SchedLab sweeps also hold under Hypothesis-driven schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FluidError
from repro.core.region import FluidRegion
from repro.schedlab import InvariantChecker
from repro.stream import DROPPED, StageQueue
from repro.telemetry import TelemetryBus, TelemetryEvent


def _queue(expected, **options) -> StageQueue:
    """A queue on the production storage: bound to a region, whose bus
    (``queue.region.telemetry``) is where its events can be heard."""
    region = FluidRegion("props")
    region.telemetry = TelemetryBus()
    return StageQueue("q", expected, region=region, **options)


def _schedule(data, expected):
    """Draw an interleaving: a put order plus drain points between them."""
    order = data.draw(st.permutations(list(range(expected))),
                      label="put order")
    drain_after = data.draw(
        st.sets(st.integers(min_value=0, max_value=expected),
                max_size=expected // 2 + 1),
        label="drain points")
    return order, drain_after


class _EventLog:
    """A bus subscriber keeping the ``stream`` events it hears."""

    def __init__(self, queue: StageQueue):
        self.events = []
        queue.region.telemetry.subscribe(self)

    def __call__(self, event: TelemetryEvent) -> None:
        if event.kind == "stream":
            self.events.append(event)

    def serves(self):
        return [e for e in self.events if e.name == "serve"]

    def drops(self):
        return [e for e in self.events if e.name == "drop"]


class TestOutOfOrderBound:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_no_serve_exceeds_k_displacement(self, data):
        """For ANY put/drain interleaving, no served item overtakes more
        than k missing seqs — the elastic-relaxation contract."""
        expected = data.draw(st.integers(min_value=1, max_value=12),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected),
                      label="k")
        order, drain_after = _schedule(data, expected)
        queue = _queue(expected, bound=k)
        log = _EventLog(queue)
        for step, seq in enumerate(order):
            if step in drain_after:
                queue.begin_consume()
                queue.drain()
            queue.put(seq, seq * 10)
        queue.begin_consume()
        queue.drain()
        assert len({e.data["seq"] for e in log.serves()}) == expected
        for event in log.serves():
            assert event.data["displacement"] <= k
        assert queue.max_displacement <= k

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_invariant_checker_accepts_all_legal_schedules(self, data):
        """The SchedLab auditor agrees: a *valve-gated* schedule (drains
        only begin once at most k items are unsettled, as the staleness
        start valve enforces in a pipeline) never trips the staleness or
        must-deliver audits."""
        expected = data.draw(st.integers(min_value=1, max_value=10),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected),
                      label="k")
        order, drain_after = _schedule(data, expected)
        queue = _queue(expected, bound=k)
        checker = InvariantChecker().connect(queue.region.telemetry)
        for step, seq in enumerate(order):
            if step in drain_after and queue.missing_total() <= k:
                queue.begin_consume()
                queue.drain()
            queue.put(seq, seq)
        queue.begin_consume()
        queue.drain()
        assert checker.ok, checker.summary()

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_invariant_checker_flags_premature_drains(self, data):
        """The converse: begin a drain while more than k items are
        unsettled (what a forced-true valve fault causes) and the
        checker records a staleness violation."""
        expected = data.draw(st.integers(min_value=2, max_value=10),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected - 2),
                      label="k")
        arrive = data.draw(st.integers(min_value=0,
                                       max_value=expected - k - 2),
                           label="arrivals before the premature drain")
        queue = _queue(expected, bound=k)
        checker = InvariantChecker().connect(queue.region.telemetry)
        for seq in range(arrive):
            queue.put(seq, seq)
        queue.begin_consume()
        queue.drain()
        assert not checker.ok
        assert any(v.kind == "staleness" for v in checker.violations)


class TestMustDeliver:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_must_items_survive_any_capacity_pressure(self, data):
        """However small the capacity and late the consumer, every
        must-deliver item is present once all puts have landed."""
        expected = data.draw(st.integers(min_value=1, max_value=12),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected),
                      label="k")
        capacity = data.draw(st.integers(min_value=1, max_value=4),
                             label="capacity")
        must = data.draw(st.sets(st.integers(min_value=0,
                                             max_value=expected - 1)),
                         label="must seqs")
        order, drain_after = _schedule(data, expected)
        queue = _queue(expected, bound=k, capacity=capacity,
                       must_seqs=must)
        log = _EventLog(queue)
        for step, seq in enumerate(order):
            if step in drain_after:
                queue.begin_consume()
                queue.drain()
            queue.put(seq, seq)
        for seq in must:
            assert queue.arrived(seq), f"must seq {seq} was lost"
        assert len(log.drops()) == queue.drops()
        for event in log.drops():
            assert not event.data["must"]
        assert queue.drops() <= k
        assert queue.must_complete()

    @given(seq=st.integers(min_value=0, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_shed_refuses_must_items(self, seq):
        queue = _queue(8, bound=8)  # every seq is must by default
        with pytest.raises(FluidError):
            queue.shed(seq)


class TestFifoDegradation:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_k0_serves_exactly_the_contiguous_prefix_in_order(self, data):
        """k=0 is lossless FIFO: any drain serves the contiguous prefix,
        in seq order, and nothing is ever dropped."""
        expected = data.draw(st.integers(min_value=1, max_value=12),
                             label="expected")
        capacity = data.draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=4)),
            label="capacity")
        order, drain_after = _schedule(data, expected)
        queue = _queue(expected, bound=0, capacity=capacity,
                       must_seqs=frozenset())
        present = set()
        for step, seq in enumerate(order):
            if step in drain_after:
                served = queue.drain()
                prefix = []
                probe = 0
                while probe in present:
                    prefix.append(probe)
                    probe += 1
                assert [s for s, _ in served] == prefix
            queue.put(seq, seq)
            present.add(seq)
        assert queue.drops() == 0
        final = queue.drain()
        assert [s for s, _ in final] == list(range(expected))
        assert queue.max_displacement == 0

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_drain_is_sorted_and_gap_bounded_for_any_k(self, data):
        expected = data.draw(st.integers(min_value=1, max_value=12),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected),
                      label="k")
        arrived = data.draw(st.sets(st.integers(min_value=0,
                                                max_value=expected - 1)),
                            label="arrived")
        queue = _queue(expected, bound=k)
        for seq in sorted(arrived):
            queue.put(seq, seq)
        served = [seq for seq, _ in queue.drain()]
        assert served == sorted(served)
        # The walk stops before overtaking gap k+1: every served seq has
        # at most k missing predecessors.
        for seq in served:
            gaps = sum(1 for earlier in range(seq)
                       if earlier not in arrived)
            assert gaps <= k


class TestSettlednessAndIdempotence:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_reput_is_idempotent_and_settledness_is_monotone(self, data):
        """Re-executions re-put seqs; totals must not double-count and a
        shed decision must be monotone (dropped stays dropped)."""
        expected = data.draw(st.integers(min_value=1, max_value=10),
                             label="expected")
        k = data.draw(st.integers(min_value=0, max_value=expected),
                      label="k")
        capacity = data.draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=3)),
            label="capacity")
        must = data.draw(st.sets(st.integers(min_value=0,
                                             max_value=expected - 1)),
                         label="must seqs")
        puts = data.draw(st.lists(
            st.integers(min_value=0, max_value=expected - 1),
            min_size=1, max_size=3 * expected), label="puts")
        queue = _queue(expected, bound=k, capacity=capacity,
                       must_seqs=must)
        last_settled = 0
        for seq in puts:
            before_dropped = queue.is_dropped(seq)
            queue.put(seq, seq)
            settled = queue.settled_total()
            assert settled >= last_settled
            last_settled = settled
            if before_dropped:
                assert queue.is_dropped(seq)
        assert queue.settled_total() == \
            queue.arrived_total() + queue.drops()
        assert queue.settled_total() <= expected
        # Every seq that was ever put is settled one way or the other.
        for seq in set(puts):
            assert queue.settled(seq)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_totals_match_a_from_scratch_recount(self, data):
        """``occupancy()`` is ``arrived_total() - len(_served)`` and
        ``must_complete()`` reads only the slot list; over any put /
        shed / drain / re-put sequence both, and the two totals, equal
        a recount of ``slots.read()`` and ``_served``."""
        expected = data.draw(st.integers(min_value=1, max_value=10),
                             label="expected")
        k = min(expected, data.draw(st.integers(min_value=0, max_value=3),
                                    label="k"))
        capacity = data.draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=3)),
            label="capacity")
        must = data.draw(st.one_of(st.none(), st.sets(
            st.integers(min_value=0, max_value=expected - 1))),
            label="must seqs")
        seqs = st.integers(min_value=0, max_value=expected - 1)
        ops = data.draw(st.lists(st.one_of(
            st.tuples(st.just("put"), seqs),
            st.tuples(st.just("shed"), seqs),
            st.tuples(st.just("drain"), st.just(0))),
            max_size=4 * expected), label="ops")
        queue = _queue(expected, bound=k, capacity=capacity,
                       must_seqs=must)
        for op, seq in ops + [("drain", 0)]:
            if op == "put":
                queue.put(seq, seq)
            elif op == "shed" and must is not None and seq not in must:
                queue.shed(seq)
            elif op == "drain":
                queue.drain()
            cells = queue.slots.read()
            arrived = {s for s, cell in enumerate(cells)
                       if cell is not None and cell != DROPPED}
            musts = range(expected) if must is None else must
            assert queue.arrived_total() == len(arrived)
            assert queue.settled_total() == \
                sum(cell is not None for cell in cells)
            assert queue.occupancy() == len(arrived - queue._served)
            assert queue.must_complete() == \
                all(s in arrived for s in musts)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_producer_tally_tracks_the_slots(self, data):
        """``put``/``shed`` keep the producer's tally in O(1) and
        ``begin_produce`` retakes it.  Over random put / shed / re-put /
        drain steps and worker-style installs (a slot snapshot applied
        with ``bump=False``, its count installed, then
        ``begin_produce``), the published settled count and
        ``occupancy()`` always equal a recount of the slots."""
        expected = data.draw(st.integers(min_value=1, max_value=10),
                             label="expected")
        k = min(expected, data.draw(st.integers(min_value=0, max_value=3),
                                    label="k"))
        capacity = data.draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=3)),
            label="capacity")
        must = data.draw(st.sets(st.integers(min_value=0,
                                             max_value=expected - 1)),
                         label="must seqs")
        seqs = st.integers(min_value=0, max_value=expected - 1)
        ops = data.draw(st.lists(st.one_of(
            st.tuples(st.just("put"), seqs),
            st.tuples(st.just("shed"), seqs),
            st.tuples(st.just("remote"), seqs),
            st.tuples(st.just("drain"), st.just(0)),
            st.tuples(st.just("install"), st.just(0))),
            max_size=5 * expected), label="ops")
        queue = _queue(expected, bound=k, capacity=capacity,
                       must_seqs=must)
        # The parent's copy: every local step lands there too, plus the
        # puts other workers made ("remote").
        parent = _queue(expected, bound=k, must_seqs=must)
        for op, seq in ops:
            if op == "put":
                queue.put(seq, seq)
                parent.put(seq, seq)
            elif op == "shed" and seq not in must:
                queue.shed(seq)
                parent.shed(seq)
            elif op == "remote":
                parent.put(seq, -seq)
            elif op == "drain":
                queue.drain()
            elif op == "install":
                queue.slots.apply_payload(list(parent.slots.read()),
                                          bump=False)
                queue.settled_count.install_state(
                    *parent.settled_count.export_state())
                queue.begin_produce()
            assert queue.settled_count.value == queue.settled_total()
            assert queue.occupancy() == \
                queue.arrived_total() - len(queue._served)

    def test_a_worker_install_then_one_put_publishes_the_true_count(self):
        """A non-leaf stage re-run on a process worker that never ran
        it: the worker installs the parent's slots without a version
        bump, so only the ``begin_produce`` recount can tell that its
        tally is stale; its next put must publish the parent's settled
        count plus one."""
        parent = _queue(8, bound=2)
        for seq in range(6):
            parent.put(seq, seq)
        worker = _queue(8, bound=2)
        worker.slots.apply_payload(list(parent.slots.read()), bump=False)
        worker.settled_count.install_state(
            *parent.settled_count.export_state())
        worker.begin_produce()
        assert worker.put(6, 6) == "put"
        assert worker.settled_count.value == worker.settled_total() == 7

    def test_dropped_tombstone_is_not_a_value(self):
        queue = _queue(3, bound=1, capacity=1, must_seqs=frozenset())
        queue.put(0, "a")
        assert queue.put(1, "b") == "drop"
        assert queue.is_dropped(1)
        assert DROPPED not in [value for _seq, value in queue.items()]


class _CountingList(list):
    """A slot payload that counts the ``list.count`` passes made over
    it."""

    passes = 0

    def count(self, value):
        type(self).passes += 1
        return super().count(value)


class TestNothingBuiltWhenNobodyListens:
    @pytest.mark.parametrize("bus", [False, True], ids=["no-bus", "bus"])
    def test_put_and_drain_never_scan_the_window(self, bus):
        """Puts, re-puts, parks, sheds and a drain make no pass over the
        slot list, with or without a ``stream`` listener: the producer's
        tally answers the capacity test, the published settled count,
        the occupancy sample and every event's occupancy."""
        queue = StageQueue("q", 6, bound=2, capacity=2,
                           must_seqs=frozenset({0, 5}),
                           region=FluidRegion("quiet"))
        queue.slots.write(_CountingList(queue.slots.read()))
        if bus:
            queue.region.telemetry = TelemetryBus()
            log = _EventLog(queue)
        _CountingList.passes = 0
        for seq in (0, 2, 3, 5):
            queue.put(seq, seq)
        queue.put(2, "again")
        queue.shed(4)
        assert [seq for seq, _ in queue.drain()] == [0, 2, 5]
        assert _CountingList.passes == 0
        assert queue.occupancy() == queue.arrived_total() - 3
        if bus:
            assert [e.name for e in log.events] == [
                "put", "put", "drop", "park", "update", "drop",
                "serve", "serve", "serve"]
