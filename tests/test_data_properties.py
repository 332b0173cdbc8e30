"""Property-based tests for the core data structures (counts, arrays,
snapshots, stats) — complements the scheduler-level properties in
test_properties.py."""

from hypothesis import given, settings, strategies as st

from repro.core.count import Count
from repro.core.data import FluidArray, FluidData
from repro.core.stats import TaskStats
from repro.core.states import TaskState

deltas = st.lists(st.integers(min_value=-100, max_value=100), max_size=40)
floats = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e9, max_value=1e9)


class TestCountProperties:
    @settings(max_examples=100, deadline=None)
    @given(deltas)
    def test_add_is_running_sum(self, values):
        count = Count("ct")
        for delta in values:
            count.add(delta)
        assert count.value == sum(values)
        assert count.updates == len(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=30))
    def test_track_min_is_minimum(self, values):
        count = Count("m")
        for value in values:
            count.track_min(value)
        assert count.value == min(values)
        assert count.updates == len(values)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(floats, min_size=1, max_size=30))
    def test_track_max_is_maximum(self, values):
        count = Count("m")
        for value in values:
            count.track_max(value)
        assert count.value == max(values)

    @settings(max_examples=50, deadline=None)
    @given(deltas)
    def test_subscribers_see_every_update_in_order(self, values):
        count = Count("ct")
        seen = []
        count.subscribe(lambda c, v: seen.append(v))
        for delta in values:
            count.add(delta)
        running = []
        total = 0
        for delta in values:
            total += delta
            running.append(total)
        assert seen == running


class TestDataProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=20))
    def test_version_counts_writes(self, values):
        data = FluidData("d")
        for value in values:
            data.write(value)
        assert data.version == len(values)
        assert data.read() == values[-1]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=10))
    def test_snapshot_advancement_is_monotone(self, before, after):
        data = FluidData("d", 0)
        for _ in range(before):
            data.write(0)
        snapshot = data.snapshot()
        for _ in range(after):
            data.write(0)
        assert snapshot.advanced_in(data) == (after > 0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                              st.integers()), max_size=30))
    def test_array_setitem_tracks_all_mutations(self, writes):
        array = FluidArray("a", [0] * 10)
        mirror = [0] * 10
        for index, value in writes:
            array[index] = value
            mirror[index] = value
        assert array.read() == mirror
        assert array.version == len(writes)


class TestStatsProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=20))
    def test_residence_times_sum_to_span(self, durations):
        stats = TaskStats("t")
        cycle = [TaskState.RUNNING, TaskState.END_CHECK, TaskState.WAITING]
        now = 0.0
        for index, duration in enumerate(durations):
            stats.enter(cycle[index % 3], now)
            now += duration
        stats.finish(now)
        total_time = sum(stats.time)
        assert abs(total_time - sum(durations)) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=20))
    def test_visit_counts_match_entries(self, reentries):
        stats = TaskStats("t")
        now = 0.0
        for _ in range(reentries):
            stats.enter(TaskState.RUNNING, now)
            now += 1.0
        assert stats.visits[TaskState.RUNNING] == reentries
