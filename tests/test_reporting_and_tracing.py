"""Tests for the trace store and the benchmark table renderer."""


from repro.bench.reporting import render_series, render_table
from repro.telemetry.trace import Trace, TraceEvent


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
