"""Tests for the ASCII Gantt timeline recorder."""


from repro import SimExecutor, Telemetry
from repro.telemetry.trace import GLYPHS, TimelineRecorder

from util import make_pipeline


def record(region, cores=4):
    telemetry = Telemetry(metrics=False, chrome=False)
    recorder = TimelineRecorder().connect(telemetry.bus)
    executor = SimExecutor(cores=cores, telemetry=telemetry)
    executor.submit(region)
    executor.run()
    return recorder


class TestTimelineRecorder:
    def test_records_every_task(self):
        region = make_pipeline(n=20, name="gantt")
        recorder = record(region)
        labels = list(recorder._rows())
        assert labels == ["gantt/produce", "gantt/consume"]

    def test_span_matches_completion(self):
        region = make_pipeline(n=20, name="gantt2")
        recorder = record(region)
        assert recorder.span() > 0

    def test_render_contains_running_glyphs(self):
        region = make_pipeline(n=40, name="gantt3")
        recorder = record(region)
        text = recorder.render(width=60)
        assert "#" in text
        assert "legend" in text
        assert "gantt3/produce" in text

    def test_consumer_shows_valve_wait(self):
        region = make_pipeline(n=40, start_fraction=0.8, name="gantt4")
        recorder = record(region)
        text = recorder.render(width=120)
        consumer_row = [line for line in text.splitlines()
                        if "consume" in line][0]
        assert "=" in consumer_row    # waited for its start valve

    def test_reexecution_visible_as_run_count(self):
        region = make_pipeline(n=40, producer_cost=2.0, consumer_cost=0.1,
                               start_fraction=0.3, name="gantt5")
        recorder = record(region)
        assert recorder.runs_of("gantt5/consume") >= 2

    def test_row_width_respected(self):
        region = make_pipeline(n=10, name="gantt6")
        recorder = record(region)
        lines = recorder.render(width=40).splitlines()
        rows = [line for line in lines if "|" in line]
        for row in rows:
            start = row.index("|")
            assert row.rindex("|") - start - 1 == 40

    def test_all_states_have_glyphs(self):
        from repro.core.states import TaskState
        assert set(GLYPHS) == set(TaskState)

    def test_empty_recorder_renders(self):
        recorder = TimelineRecorder()
        assert "virtual time" in recorder.render()
