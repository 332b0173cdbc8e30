"""Tests for the automatic threshold tuner (Section 4.4).

``repro.tuning`` grew from a module into a package (offline tuner +
online autotuner); the offline API these tests exercise must stay
importable from the package root.
"""

import pytest

from repro.apps.graph_coloring import GraphColoringApp
from repro.apps.kmeans import KMeansApp
from repro.tuning import ThresholdTuner
from repro.workloads import random_graph, synthetic_image


def kmeans_app():
    return KMeansApp(synthetic_image(32, 32, diversity=5, seed=71),
                     num_clusters=4, epochs=4)


class TestPackageLayout:
    def test_offline_api_reexported_from_package_root(self):
        import repro.tuning as tuning
        import repro.tuning.offline as offline
        assert tuning.ThresholdTuner is offline.ThresholdTuner
        assert tuning.TuningResult is offline.TuningResult
        assert tuning.TuningProbe is offline.TuningProbe

    def test_package_root_exports_online_api_too(self):
        import repro.tuning as tuning
        for name in ("ValveAutotuner", "SLO", "make_autotuner",
                     "TuningError"):
            assert hasattr(tuning, name), name
            assert name in tuning.__all__, name


class TestValidation:
    def test_budget_bounds(self):
        with pytest.raises(ValueError):
            ThresholdTuner(error_budget=1.5)

    def test_resolution_positive(self):
        with pytest.raises(ValueError):
            ThresholdTuner(resolution=0.0)


class TestThresholdTuner:
    def test_probe_shape(self):
        tuner = ThresholdTuner()
        probe = tuner.probe(kmeans_app(), threshold=0.5)
        assert 0 < probe.normalized_latency < 2
        assert 0 <= probe.error <= 1

    def test_tuned_point_is_feasible(self):
        tuner = ThresholdTuner(error_budget=0.05, resolution=0.1)
        result = tuner.tune(kmeans_app())
        assert result.error <= 0.05 + 1e-9

    def test_tuned_point_is_cheaper_than_serialized(self):
        tuner = ThresholdTuner(error_budget=0.05, resolution=0.1)
        app = kmeans_app()
        result = tuner.tune(app)
        serialized = tuner.probe(app, threshold=1.0)
        assert result.normalized_latency <= \
            serialized.normalized_latency + 1e-9

    def test_loose_budget_returns_lowest_threshold(self):
        tuner = ThresholdTuner(error_budget=1.0, resolution=0.1)
        result = tuner.tune(kmeans_app())
        assert result.threshold == tuner.low

    def test_probes_recorded(self):
        tuner = ThresholdTuner(error_budget=0.05, resolution=0.2)
        result = tuner.tune(kmeans_app())
        assert result.num_probes == len(result.probes) >= 2

    def test_graph_coloring_tuning(self):
        app = GraphColoringApp(random_graph(600, 5000, seed=73,
                                            name="tune"))
        tuner = ThresholdTuner(error_budget=0.10, resolution=0.15)
        result = tuner.tune(app)
        assert result.error <= 0.10 + 1e-9
        assert result.threshold <= 1.0
