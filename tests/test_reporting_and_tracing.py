"""Tests for the trace store and the benchmark table renderer."""


from repro import Telemetry, ThreadExecutor
from repro.bench.reporting import render_series, render_table
from repro.telemetry.bus import TelemetryEvent
from repro.telemetry.trace import TimelineRecorder, Trace, TraceEvent, gantt

from util import make_pipeline


class TestTrace:
    def make_trace(self):
        trace = Trace()
        trace.record(0.0, "r", "t1", "run", "attempt=0")
        trace.record(1.0, "r", "t2", "run", "attempt=0")
        trace.record(2.0, "r", "t2", "wait", "quality-failed")
        trace.record(3.0, "r", "t2", "rerun", "inputs-advanced")
        trace.record(4.0, "r", "t1", "complete", "precise-inputs")
        return trace

    def test_len(self):
        assert len(self.make_trace()) == 5

    def test_for_task_filters(self):
        events = self.make_trace().for_task("t2")
        assert len(events) == 3
        assert all(e.task == "t2" for e in events)

    def test_count_by_event(self):
        trace = self.make_trace()
        assert trace.count("run") == 2
        assert trace.count("run", task="t1") == 1
        assert trace.count("missing") == 0

    def test_render_includes_fields(self):
        text = self.make_trace().render()
        assert "quality-failed" in text
        assert "t2" in text

    def test_render_limit(self):
        text = self.make_trace().render(limit=2)
        assert len(text.splitlines()) == 2

    def test_events_are_namedtuples(self):
        event = self.make_trace().events[0]
        assert isinstance(event, TraceEvent)
        assert event.time == 0.0 and event.event == "run"


class TestWallClockGantt:
    """A wall-clock trace starts at its first transition, in µs."""

    def test_starts_at_first_transition(self):
        def moved(ts, task, state):
            return TelemetryEvent(ts, "transition", "r", task, state, {})
        events = [moved(5.000000, "a", "RUNNING"),
                  moved(5.000002, "a", "COMPLETE"),
                  moved(5.000002, "b", "RUNNING"),
                  moved(5.000004, "b", "COMPLETE")]
        lines = gantt(events, width=4, time_scale=1e6).splitlines()
        assert lines[0] == "wall time 0 .. 4.0 µs (1.00 µs/char)"
        assert lines[1:3] == ["r/a |##  |", "r/b |  ##|"]

    def test_thread_pipeline_draws_every_run(self):
        telemetry = Telemetry(metrics=False, chrome=False)
        recorder = TimelineRecorder().connect(telemetry.bus)
        executor = ThreadExecutor(telemetry=telemetry)
        executor.submit(make_pipeline(n=20, name="wall"))
        executor.run()
        lines = recorder.render(time_scale=1e6).splitlines()
        assert lines[0].startswith("wall time 0 .. ")
        assert lines[0].endswith(" µs/char)")
        rows = [line for line in lines if "|" in line]
        assert [row.split()[0] for row in rows] == ["wall/produce",
                                                    "wall/consume"]
        assert all("#" in row for row in rows)


class TestRenderTable:
    def test_headers_and_rows_present(self):
        text = render_table("demo", ["a", "b"], [[1, 2.5], ["x", 0.125]])
        assert "=== demo ===" in text
        assert "a" in text and "b" in text
        assert "2.500" in text
        assert "0.125" in text

    def test_large_floats_rounded(self):
        text = render_table("big", ["v"], [[123456.789]])
        assert "123457" in text

    def test_nan_rendered_as_dash(self):
        text = render_table("nan", ["v"], [[float("nan")]])
        assert "-" in text

    def test_column_alignment(self):
        text = render_table("align", ["name", "value"],
                            [["ab", 1.0], ["abcdef", 2.0]])
        lines = [line for line in text.splitlines()[2:] if line.strip()]
        starts = {line.find("1.000") for line in lines if "1.000" in line} | \
                 {line.find("2.000") for line in lines if "2.000" in line}
        assert len(starts) == 1  # values share a column

    def test_render_series(self):
        text = render_series("sweep", "x", [1, 2],
                             {"lat": [0.5, 0.6], "acc": [1.0, 0.9]})
        assert "sweep" in text
        assert "lat" in text and "acc" in text
        assert "0.600" in text
