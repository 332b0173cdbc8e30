"""Tests for persistent bench baselines (repro.bench.baseline + CLI)."""

import json
import os

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.baseline import (SCHEMA, compare_to_baseline, load_baseline,
                                  save_baseline)
from repro.bench.harness import BenchRow


def make_row(app="app", input_name="in", latency=10.0, checks=20,
             skipped=0, reexecutions=1):
    return BenchRow(
        app=app, input_name=input_name,
        normalized_latency=latency / 12.0, normalized_accuracy=0.99,
        native_metric="m", native_value=1.0,
        precise_makespan=12.0, fluid_makespan=latency,
        valve_checks=checks, valve_checks_skipped=skipped,
        reexecutions=reexecutions)


CONFIG = dict(backend="sim", quick=True, memoization=True, app=None)


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "BENCH_test.json")
        rows = [make_row(), make_row(input_name="other", latency=5.0)]
        document = save_baseline(path, rows, **CONFIG)
        loaded = load_baseline(path)
        assert loaded == json.loads(json.dumps(document))
        assert loaded["schema"] == SCHEMA
        assert set(loaded["workloads"]) == {"app/in", "app/other"}
        entry = loaded["workloads"]["app/in"]
        assert entry["fluid_makespan"] == 10.0
        assert entry["valve_checks"] == 20
        assert entry["reexecutions"] == 1
        assert loaded["config"]["backend"] == "sim"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(str(path))

    def test_load_rejects_non_baseline_json(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_baseline(str(path))


class TestCompare:
    def _document(self, rows):
        from repro.bench.baseline import baseline_dict

        return baseline_dict(rows, **CONFIG)

    def test_identical_run_passes(self):
        rows = [make_row()]
        report = compare_to_baseline(self._document(rows), rows, **CONFIG)
        assert report.ok
        assert not report.regressions
        assert "PASS" in report.render()

    def test_latency_regression_fails(self):
        base = [make_row(latency=10.0)]
        current = [make_row(latency=12.0)]      # +20% > 15% tolerance
        report = compare_to_baseline(self._document(base), current,
                                     tolerance=0.15, **CONFIG)
        assert not report.ok
        assert len(report.regressions) == 1
        assert "REGRESSED" in report.render()

    def test_within_tolerance_passes(self):
        base = [make_row(latency=10.0)]
        current = [make_row(latency=11.0)]      # +10% <= 15%
        report = compare_to_baseline(self._document(base), current,
                                     tolerance=0.15, **CONFIG)
        assert report.ok

    def test_latency_improvement_passes(self):
        base = [make_row(latency=10.0)]
        current = [make_row(latency=6.0)]
        report = compare_to_baseline(self._document(base), current, **CONFIG)
        assert report.ok

    def test_missing_and_extra_workloads_reported_not_fatal(self):
        base = [make_row(input_name="gone"), make_row(input_name="both")]
        current = [make_row(input_name="both"), make_row(input_name="new")]
        report = compare_to_baseline(self._document(base), current, **CONFIG)
        assert report.ok
        assert report.missing == ["app/gone"]
        assert report.extra == ["app/new"]

    def test_backend_mismatch_is_fatal(self):
        rows = [make_row()]
        report = compare_to_baseline(
            self._document(rows), rows, backend="thread", quick=True,
            memoization=True, app=None)
        assert not report.ok
        assert report.config_mismatch
        assert "CONFIG MISMATCH" in report.render()

    def test_memoization_mismatch_is_note_only(self):
        rows = [make_row()]
        report = compare_to_baseline(
            self._document(rows), rows, backend="sim", quick=True,
            memoization=False, app=None)
        assert report.ok
        assert any("memoization" in note for note in report.notes)

    def test_valve_check_totals_rendered(self):
        base = [make_row(checks=100)]
        current = [make_row(checks=60, skipped=40)]
        report = compare_to_baseline(self._document(base), current, **CONFIG)
        text = report.render()
        assert "100 -> 60" in text
        assert "-40.0%" in text


class TestBaselineCli:
    def test_save_then_compare_passes(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_fft.json")
        assert bench_main(["--app", "fft", "--quick",
                           "--save-baseline", path]) == 0
        document = json.loads((tmp_path / "BENCH_fft.json").read_text())
        assert document["schema"] == SCHEMA
        assert "fft/N1K" in document["workloads"]
        capsys.readouterr()
        assert bench_main(["--app", "fft", "--quick",
                           "--compare", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_compare_fails_on_seeded_regression(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_fft.json")
        assert bench_main(["--app", "fft", "--quick",
                           "--save-baseline", path]) == 0
        document = json.loads((tmp_path / "BENCH_fft.json").read_text())
        for entry in document["workloads"].values():
            entry["fluid_makespan"] *= 0.5   # pretend we used to be 2x faster
            entry["fluid_makespan_min"] *= 0.5
        (tmp_path / "BENCH_fft.json").write_text(json.dumps(document))
        capsys.readouterr()
        assert bench_main(["--app", "fft", "--quick",
                           "--compare", path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "verdict: FAIL" in out

    def test_compare_missing_file_errors(self, tmp_path, capsys):
        assert bench_main(["--app", "fft", "--quick", "--compare",
                           str(tmp_path / "nope.json")]) == 1
        assert "cannot load baseline" in capsys.readouterr().err

    def test_no_valve_memo_records_more_checks(self, tmp_path):
        """Count valves never memoize, so the flag shows on a run whose
        valves still do: K-means on the thread driver re-checks each
        band's ``DataFinalValve`` against an unchanged cell."""
        documents = {}
        for name, flags in (("on", []), ("off", ["--no-valve-memo"])):
            path = tmp_path / f"{name}.json"
            assert bench_main(["--app", "kmeans", "--quick",
                               "--fluid-backend", "thread", "--repeat", "1",
                               *flags, "--save-baseline", str(path)]) == 0
            documents[name] = json.loads(path.read_text())
        on, off = documents["on"], documents["off"]
        assert on["config"]["memoization"] is True
        assert off["config"]["memoization"] is False
        row_on, row_off = (doc["workloads"]["kmeans/div3"]
                           for doc in (on, off))
        assert row_on["valve_checks_skipped"] > 0
        assert row_off["valve_checks_skipped"] == 0
        assert row_on["valve_checks"] < row_off["valve_checks"]

    def test_baseline_flags_reject_sweep_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--sweep", "fft",
                        "--save-baseline", str(tmp_path / "b.json")])

    def test_fluid_backend_thread_matrix(self, tmp_path, capsys):
        path = str(tmp_path / "BENCH_thread.json")
        assert bench_main(["--app", "fft", "--quick",
                           "--fluid-backend", "thread",
                           "--save-baseline", path]) == 0
        document = json.loads((tmp_path / "BENCH_thread.json").read_text())
        assert document["config"]["backend"] == "thread"
        assert "fft/N1K" in document["workloads"]


class TestMissingBaseline:
    """A missing baseline must fail loudly, never skip (the gate with no
    baseline is how regressions ship)."""

    def test_load_raises_missing_baseline_error(self, tmp_path):
        from repro.bench.baseline import MissingBaselineError

        with pytest.raises(MissingBaselineError, match="not found"):
            load_baseline(str(tmp_path / "nope.json"))

    def test_missing_baseline_error_is_a_file_not_found(self, tmp_path):
        from repro.bench.baseline import MissingBaselineError

        assert issubclass(MissingBaselineError, FileNotFoundError)
        with pytest.raises(FileNotFoundError):
            load_baseline(str(tmp_path / "nope.json"))


class TestDispatchGate:
    """The legacy-vs-pooled dispatch gate is retired (benchmarks/perf
    measures dispatch now): the baseline flags are matrix-only."""

    def test_save_baseline_rejected_for_realcore_modes(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--backend", "process",
                        "--save-baseline", str(tmp_path / "b.json")])

    def test_compare_rejected_for_thread_backend(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--backend", "thread",
                        "--compare", str(tmp_path / "b.json")])

    def test_compare_rejected_for_process_backend(self, tmp_path):
        with pytest.raises(SystemExit):
            bench_main(["--backend", "process",
                        "--compare", str(tmp_path / "b.json")])

    def test_committed_root_baseline_config(self):
        root = os.path.join(os.path.dirname(__file__), "..",
                            "BENCH_baseline.json")
        document = load_baseline(root)
        assert document["config"] == {"app": None, "backend": "sim",
                                      "memoization": True, "quick": True,
                                      "repeat": 1}
        assert "realcore" not in document
