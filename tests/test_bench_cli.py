"""Tests for the standalone benchmark CLI (python -m repro.bench)."""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.telemetry import load_metrics


class TestBenchCli:
    def test_single_app(self, capsys):
        assert bench_main(["--app", "dct"]) == 0
        out = capsys.readouterr().out
        assert "dct" in out and "AVERAGE" in out

    def test_unknown_app(self, capsys):
        assert bench_main(["--app", "nonsense"]) == 1

    def test_sweep(self, capsys):
        assert bench_main(["--sweep", "fft",
                           "--thresholds", "0.3,1.0"]) == 0
        out = capsys.readouterr().out
        assert "Threshold sweep" in out
        assert "0.300" in out

    def test_sweep_unknown_app(self):
        assert bench_main(["--sweep", "nonsense"]) == 1

    def test_quick_runs_one_input_per_app(self, capsys):
        assert bench_main(["--app", "fft", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "N1K" in out and "N4K" not in out

    def test_telemetry_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "run.perfetto.json"
        metrics = tmp_path / "run.metrics.json"
        assert bench_main(["--app", "kmeans", "--quick",
                           "--trace-out", str(trace),
                           "--metrics-out", str(metrics)]) == 0
        err = capsys.readouterr().err
        assert "wrote trace" in err and "wrote metrics" in err
        doc = json.loads(trace.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        dump = load_metrics(str(metrics))
        assert dump["counters"]["tasks.runs"] > 0

    def test_backend_thread(self, capsys):
        assert bench_main(["--backend", "thread", "--scale", "0.01",
                           "--tasks", "2"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs thread" in out

    def test_backend_sim_falls_back_to_figure6(self, capsys):
        assert bench_main(["--backend", "sim", "--app", "fft",
                           "--quick"]) == 0
        out = capsys.readouterr().out
        assert "normalized to the original" in out


class TestDebugFlag:
    # Satellite regression: spec errors were flattened to str(error)
    # with the traceback swallowed; --debug must re-raise the original.

    def test_removed_autotune_specs_are_cli_errors(self, capsys):
        import pytest

        for spec, named in (("latency_ceiling:target=1", "latency_ceiling"),
                            ("accuracy_floor:controller=hysteresis",
                             "controller")):
            with pytest.raises(SystemExit) as info:
                bench_main(["--autotune", spec])
            assert info.value.code == 2
            assert named in capsys.readouterr().err

    def test_debug_reraises_autotune_spec_error(self):
        import pytest

        from repro import FluidError

        with pytest.raises(FluidError):
            bench_main(["--autotune", "bogus-controller", "--debug"])

    def test_traceback_logged_at_debug_level(self, caplog):
        import logging

        import pytest

        with caplog.at_level(logging.DEBUG, logger="repro.bench"):
            with pytest.raises(SystemExit):
                bench_main(["--autotune", "bogus-controller"])
        debug_records = [record for record in caplog.records
                         if record.levelno == logging.DEBUG
                         and record.exc_info]
        assert debug_records, "spec failure must log its traceback"


def _bench_scheduler_flag():
    bench_main(["--scheduler", "edf"])


def _schedlab_scheduler_flag():
    from repro.schedlab.__main__ import main as schedlab_main

    schedlab_main(["sweep", "--scheduler", "edf"])


def _admission_work_stealing():
    from repro.service.admission import AdmissionQueue

    AdmissionQueue(discipline="work-stealing")


@pytest.mark.parametrize("call", [_bench_scheduler_flag,
                                  _schedlab_scheduler_flag,
                                  _admission_work_stealing],
                         ids=lambda call: call.__name__.strip("_"))
def test_removed_scheduler_options_are_errors(call, capsys):
    """The drivers run FCFS only: the CLIs' ``--scheduler`` is gone (an
    argparse error, exit 2), and the admission queue names the
    disciplines it knows when asked for a removed one."""
    from repro import SchedulerError

    if call is _admission_work_stealing:
        with pytest.raises(SchedulerError) as info:
            call()
        message = str(info.value)
        assert "work-stealing" in message
        assert "fcfs, priority, edf, sew, bounded" in message
        return
    with pytest.raises(SystemExit) as info:
        call()
    assert info.value.code == 2
    assert "--scheduler" in capsys.readouterr().err


class TestSchedlabDebugFlag:
    @staticmethod
    def _bad_artifact(tmp_path):
        artifact = tmp_path / "stale.json"
        artifact.write_text(json.dumps({"version": "ancient"}))
        return str(artifact)

    def test_error_returns_3_without_debug(self, tmp_path, capsys):
        from repro.schedlab.__main__ import main as schedlab_main

        assert schedlab_main(["replay", self._bad_artifact(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_debug_reraises_with_traceback(self, tmp_path):
        import pytest

        from repro import SchedulerError
        from repro.schedlab.__main__ import main as schedlab_main

        with pytest.raises(SchedulerError):
            schedlab_main(["--debug", "replay",
                           self._bad_artifact(tmp_path)])
