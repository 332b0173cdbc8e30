"""Integration tests for all eight applications.

Every app is checked for the same contract: the precise kernel is
correct against an independent reference; the fluid run completes and
its output approaches the precise output as the threshold approaches 1;
the protocol objects (AppRun, metrics) are well-formed.
"""

import numpy as np
import pytest

from repro.apps.base import DEFAULT_OVERHEADS, FluidApp
from repro.apps.bellman_ford import BellmanFordApp
from repro.apps.dct import DCTApp, dct2_blocks_reference
from repro.apps.edge_detection import (EdgeDetectionApp, GAUSSIAN,
                                       conv3x3_rows)
from repro.apps.fft import FFTApp, bit_reverse_permutation
from repro.apps.graph_coloring import GraphColoringApp
from repro.apps.kmeans import KMeansApp
from repro.apps.medusadock import MedusaDockApp
from repro.apps.neural_network import NeuralNetworkApp
from repro.workloads import (random_graph, random_tensor, random_vector,
                             synthetic_digits, synthetic_image,
                             synthetic_poses)


def small_image():
    return synthetic_image(32, 32, noise=12.0, seed=1)


class TestEdgeDetection:
    def test_conv_row_matches_full_convolution(self):
        image = small_image()
        from scipy.ndimage import convolve
        full = convolve(image, GAUSSIAN, mode="nearest")
        row = conv3x3_rows(image, 5, 6, GAUSSIAN)[0]
        assert np.allclose(row, full[5])

    def test_precise_and_fluid_agree_at_full_threshold(self):
        app = EdgeDetectionApp(small_image())
        precise = app.run_precise()
        fluid = app.run_fluid(threshold=1.0)
        assert np.allclose(fluid.output, precise.output)
        assert fluid.error == 0.0

    def test_all_filter_combinations_run(self):
        for noise_filter in ("gaussian", "mean"):
            for gradient in ("sobel", "laplacian"):
                app = EdgeDetectionApp(small_image(), noise_filter,
                                       gradient)
                result = app.run_fluid()
                assert result.makespan > 0

    def test_unknown_filters_rejected(self):
        with pytest.raises(ValueError):
            EdgeDetectionApp(small_image(), noise_filter="boxcar")
        with pytest.raises(ValueError):
            EdgeDetectionApp(small_image(), gradient="scharr")

    def test_fluid_is_faster_than_precise(self):
        app = EdgeDetectionApp(small_image())
        precise = app.run_precise()
        fluid = app.run_fluid()
        assert fluid.makespan < precise.makespan

    def test_multithreaded_baseline_beats_serial(self):
        app = EdgeDetectionApp(small_image())
        precise = app.run_precise()
        base = app.run_multithreaded_baseline(parallelism=4)
        assert base.makespan < precise.makespan


class TestKMeans:
    def make_app(self, **kwargs):
        kwargs.setdefault("num_clusters", 4)
        kwargs.setdefault("epochs", 4)
        return KMeansApp(synthetic_image(24, 24, diversity=4, seed=2),
                         **kwargs)

    def test_precise_objective_decreases_across_epochs(self):
        few = self.make_app(epochs=1)
        many = self.make_app(epochs=6)
        assert many.run_precise().metric <= few.run_precise().metric + 1e-9

    def test_fluid_objective_close_to_precise(self):
        app = self.make_app()
        precise = app.run_precise()
        fluid = app.run_fluid()
        assert fluid.error < 0.25

    def test_stability_valve_runs(self):
        app = self.make_app()
        result = app.run_fluid(valve="stability")
        assert result.makespan > 0

    def test_error_decreases_with_threshold(self):
        app = self.make_app(epochs=3)
        low = app.run_fluid(threshold=0.1)
        high = app.run_fluid(threshold=0.9)
        assert high.error <= low.error + 1e-9


class TestBellmanFord:
    def test_precise_converges_to_reference(self):
        graph = random_graph(300, 1500, seed=3)
        app = BellmanFordApp(graph, iterations=10)
        precise = app.run_precise()
        assert precise.metric == pytest.approx(0.0, abs=1e-9)

    def test_fluid_paths_nearly_exact(self):
        graph = random_graph(300, 1500, seed=3)
        app = BellmanFordApp(graph, iterations=10)
        fluid = app.run_fluid(threshold=0.3)
        assert fluid.error < 0.02

    def test_fluid_pipelines_iterations(self):
        graph = random_graph(300, 3000, seed=4)
        app = BellmanFordApp(graph, iterations=8)
        precise = app.run_precise()
        fluid = app.run_fluid(threshold=0.3)
        assert fluid.makespan < 0.7 * precise.makespan


class TestGraphColoring:
    def test_precise_coloring_proper(self):
        graph = random_graph(200, 1000, seed=5)
        app = GraphColoringApp(graph)
        precise = app.run_precise()
        assert app.conflicts(precise.output) == 0

    def test_fluid_coloring_proper(self):
        graph = random_graph(200, 1000, seed=5)
        app = GraphColoringApp(graph)
        fluid = app.run_fluid(threshold=0.4)
        assert app.conflicts(fluid.output) == 0
        assert (fluid.output >= 0).all()

    def test_fluid_faster_on_dense_graph(self):
        graph = random_graph(400, 6000, seed=6)
        app = GraphColoringApp(graph)
        precise = app.run_precise()
        fluid = app.run_fluid()
        assert fluid.makespan < precise.makespan


class TestFFT:
    def test_bit_reverse_is_involution(self):
        perm = bit_reverse_permutation(64)
        assert np.array_equal(perm[perm], np.arange(64))

    def test_precise_matches_numpy(self):
        app = FFTApp([random_vector(256, seed=7)])
        precise = app.run_precise()
        reference = app.reference_spectra()[0]
        assert np.allclose(precise.output[0], reference, atol=1e-6)

    def test_fluid_error_small_at_high_threshold(self):
        app = FFTApp([random_vector(256, seed=7)])
        fluid = app.run_fluid(threshold=0.9)
        assert fluid.error < 0.01

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FFTApp([np.zeros(100)])

    def test_batch_of_vectors(self):
        app = FFTApp([random_vector(128, seed=s) for s in range(3)])
        fluid = app.run_fluid(parallelism=3)
        assert len(fluid.output) == 3


class TestDCT:
    def test_precise_matches_reference(self):
        tensor = random_tensor(32, 32, seed=8)
        app = DCTApp(tensor)
        precise = app.run_precise()
        assert np.allclose(precise.output, dct2_blocks_reference(tensor),
                           atol=1e-9)

    def test_block_multiple_required(self):
        with pytest.raises(ValueError):
            DCTApp(np.zeros((30, 30)))

    def test_fluid_beats_precise(self):
        app = DCTApp(random_tensor(32, 32, seed=8))
        precise = app.run_precise()
        fluid = app.run_fluid()
        assert fluid.makespan < precise.makespan


class TestNeuralNetwork:
    def make_app(self, arch="lenet"):
        return NeuralNetworkApp(synthetic_digits(samples=128, seed=9),
                                architecture=arch, batch_size=128)

    def test_precise_accuracy_high(self):
        app = self.make_app()
        assert app.run_precise().metric > 0.95

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError):
            self.make_app("resnet")

    def test_fluid_accuracy_matches_at_default(self):
        app = self.make_app()
        fluid = app.run_fluid()
        assert fluid.error < 0.05

    def test_squeezed_variant_cheaper(self):
        lenet = self.make_app("lenet").run_precise().makespan
        squeezed = self.make_app("squeezed").run_precise().makespan
        assert squeezed < 0.5 * lenet

    def test_fluid_faster(self):
        app = self.make_app()
        assert app.run_fluid().makespan < app.run_precise().makespan


class TestMedusaDock:
    def make_app(self, placement="early", proteins=4):
        dockings = [synthetic_poses(num_poses=64, seed=s,
                                    placement=placement, name=f"p{s}")
                    for s in range(proteins)]
        return MedusaDockApp(dockings, top_k=3)

    def test_precise_selects_planted_minimum(self):
        from repro.workloads.molecules import energy_reference
        app = self.make_app()
        precise = app.run_precise()
        for docking, selection in zip(app.dockings, precise.output):
            best = int(np.argmin(energy_reference(docking)))
            assert best in selection

    def test_fluid_skips_docking_tail(self):
        app = self.make_app()
        precise = app.run_precise()
        fluid = app.run_fluid()
        cancelled = sum(r.graph.task("medusa_dock").stats.cancelled_runs
                        for r in fluid.regions)
        assert cancelled > 0
        assert fluid.makespan < precise.makespan

    def test_convergence_valve_accurate_on_early_population(self):
        app = self.make_app(placement="early")
        fluid = app.run_fluid(valve="convergence")
        assert fluid.error <= 0.35

    def test_full_threshold_accurate(self):
        app = self.make_app()
        fluid = app.run_fluid(threshold=1.0)
        assert fluid.error == 0.0


class TestProtocol:
    def test_apprun_accuracy_property(self):
        app = EdgeDetectionApp(small_image())
        fluid = app.run_fluid()
        assert fluid.accuracy == pytest.approx(1.0 - fluid.error)

    def test_precise_is_cached(self):
        app = EdgeDetectionApp(small_image())
        assert app.run_precise() is app.run_precise()

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            FluidApp().build_regions(0.4, "percent", 1)

    def test_run_fluid_takes_no_trace_flag(self):
        """``telemetry=`` traces every backend; the sim-only flag went."""
        import inspect
        assert "trace" not in inspect.signature(FluidApp.run_fluid).parameters

    def test_custom_overheads_respected(self):
        from repro import Overheads
        app = EdgeDetectionApp(small_image())
        lean = app.run_fluid(overheads=Overheads.zero())
        heavy = app.run_fluid(overheads=DEFAULT_OVERHEADS)
        assert lean.makespan <= heavy.makespan
