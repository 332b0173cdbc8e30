"""Edge Detection: noise-removal filter -> gradient filter (Section 4.3).

The paper's running example.  The producer smooths the image (Gaussian
or Mean 3x3), the consumer extracts edges (Sobel or Laplacian); the
consumer may start once a fraction of the rows have been smoothed and
reads the *unsmoothed* pixels for rows the producer has not reached —
exactly the semantics of Figure 3 (the work buffer starts as a copy of
the noisy input).  The end valve demands the whole image smoothed before
the gradient pass finishes, triggering re-execution when the consumer
races too far ahead ("if only a few pixels are smoothed ... the result
is inaccurate and t2 is re-executed").

The four filter combinations of Figure 9 are the ``noise_filter`` x
``gradient`` parameters; multithreading (Figure 12) splits the image
into row bands fanned out under a header task.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve
from ..metrics.error import normalized_mse, psnr
from .base import FluidApp, SubmitPlan

GAUSSIAN = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float) / 16.0
MEAN = np.ones((3, 3)) / 9.0
SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=float)
SOBEL_Y = SOBEL_X.T
LAPLACIAN = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=float)

#: per-pixel virtual costs: Gaussian is heavier than Mean, Sobel heavier
#: than Laplacian ("Laplacian runs faster than Sobel", Section 7.3).
FILTER_COST = {"gaussian": 9.0, "mean": 5.0}
GRADIENT_COST = {"sobel": 18.0, "laplacian": 4.0}


def conv3x3_rows(image: np.ndarray, start: int, stop: int,
                 kernel: np.ndarray) -> np.ndarray:
    """Output rows ``start..stop-1`` of a clamped-border 3x3 convolution,
    in one array pass (every element sums its nine terms in the same
    order whatever the band)."""
    height, width = image.shape
    source = image[[min(max(row, 0), height - 1)
                    for row in range(start - 1, stop + 1)]]
    padded = np.concatenate((source[:, :1], source, source[:, -1:]), axis=1)
    count = stop - start
    out = np.zeros((count, width))
    for dy in range(3):
        for dx in range(3):
            out += kernel[dy, dx] * padded[dy:dy + count, dx:dx + width]
    return out


def gradient_row(image: np.ndarray, row: int, gradient: str) -> np.ndarray:
    """Gradient magnitude of one row: ``|Gx| + |Gy|`` (Sobel) or ``|L|``
    (Laplacian) of the clamped-border convolution.

    Each kernel's non-zero taps are summed in ``conv3x3_rows``' order, so
    the bytes are its bytes: a skipped ``0 * p`` term can only change the
    sign of a zero partial sum, which the ``abs`` removes.
    """
    height, width = image.shape
    window = np.empty((3, width + 2))
    window[:, 1:-1] = image[[max(row - 1, 0), row, min(row + 1, height - 1)]]
    window[:, 0] = window[:, 1]
    window[:, -1] = window[:, -2]
    top, middle, bottom = window
    if gradient == "sobel":
        twice = window * 2.0
        gx = top[2:] - top[:-2]
        gx -= twice[1, :-2]
        gx += twice[1, 2:]
        gx -= bottom[:-2]
        gx += bottom[2:]
        gy = np.negative(top[:-2])
        gy -= twice[0, 1:-1]
        gy -= top[2:]
        gy += bottom[:-2]
        gy += twice[2, 1:-1]
        gy += bottom[2:]
        np.abs(gx, out=gx)
        gx += np.abs(gy, out=gy)
        return gx
    laplacian = top[1:-1] + middle[:-2]
    laplacian -= 4.0 * middle[1:-1]
    laplacian += middle[2:]
    laplacian += bottom[1:-1]
    return np.abs(laplacian, out=laplacian)


class EdgeDetectionRegion(FluidRegion):
    """One fluid region over the whole image (or one band fan-out)."""

    def __init__(self, app: "EdgeDetectionApp", threshold: float,
                 parallelism: int, name=None):
        self.app = app
        self.threshold = threshold
        self.parallelism = parallelism
        super().__init__(name)

    def build(self):
        app = self.app
        height, width = app.image.shape
        pixels = height * width
        src = self.input_data("src", app.image)
        ready = self.add_data("ready")
        work = app.image.copy()       # smoothed in place; starts noisy
        edges = np.zeros_like(app.image)

        bands = self._bands(height)
        filter_cost = FILTER_COST[app.noise_filter]
        gradient_cost = GRADIENT_COST[app.gradient]
        kernel = GAUSSIAN if app.noise_filter == "gaussian" else MEAN

        def header(ctx):
            ready.write(True)
            yield 32.0

        self.add_task("header", header, inputs=[src], outputs=[ready])

        self._edge_cells = []
        for band_index, (start, stop) in enumerate(bands):
            band_rows = stop - start
            filtered = self.add_array(f"filtered_{band_index}", work)
            out_cell = self.add_array(f"edges_{band_index}", edges)
            ct = self.add_count(f"ct_{band_index}")
            band_pixels = band_rows * width

            def filter_body(ctx, start=start, stop=stop, ct=ct,
                            filtered=filtered):
                smoothed = conv3x3_rows(src.read(), start, stop, kernel)
                for row in range(start, stop):
                    work[row] = smoothed[row - start]
                    filtered.touch()
                    ct.add(width)
                    yield filter_cost * width

            def gradient_body(ctx, start=start, stop=stop,
                              out_cell=out_cell):
                for row in range(start, stop):
                    edges[row] = gradient_row(work, row, app.gradient)
                    out_cell.touch()
                    yield gradient_cost * width

            self.add_task(
                f"filter_{band_index}", filter_body,
                start_valves=[DataFinalValve(ready)],
                inputs=[ready], outputs=[filtered])
            self.add_task(
                f"gradient_{band_index}", gradient_body,
                start_valves=[PercentValve(ct, self.threshold, band_pixels,
                                           name=f"v_start_{band_index}")],
                end_valves=[PercentValve(ct, 1.0, band_pixels,
                                         name=f"v_end_{band_index}")],
                inputs=[filtered], outputs=[out_cell])
            self._edge_cells.append(out_cell)

        self._edges = edges

    def _bands(self, height: int) -> List:
        parallelism = min(self.parallelism, height)
        bounds = np.linspace(0, height, parallelism + 1).astype(int)
        return [(int(bounds[i]), int(bounds[i + 1]))
                for i in range(parallelism) if bounds[i + 1] > bounds[i]]

    def edge_map(self) -> np.ndarray:
        return self._edges


class EdgeDetectionApp(FluidApp):
    """Edge detection on one image with configurable filter chain."""

    name = "edge_detection"

    def __init__(self, image: np.ndarray, noise_filter: str = "gaussian",
                 gradient: str = "sobel"):
        super().__init__()
        if noise_filter not in FILTER_COST:
            raise ValueError(f"unknown noise filter {noise_filter!r}")
        if gradient not in GRADIENT_COST:
            raise ValueError(f"unknown gradient filter {gradient!r}")
        self.image = np.asarray(image, dtype=float)
        self.noise_filter = noise_filter
        self.gradient = gradient

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        plan = SubmitPlan()
        region = EdgeDetectionRegion(self, threshold, parallelism)
        plan.add_region(region)
        plan.extras["region"] = region
        return plan

    def extract_output(self, plan: SubmitPlan) -> np.ndarray:
        return plan.extras["region"].edge_map().copy()

    def compute_error(self, output: np.ndarray,
                      precise_output: np.ndarray) -> float:
        return min(1.0, normalized_mse(output, precise_output))

    def compute_metric(self, output: np.ndarray):
        precise = self._precise.output if self._precise is not None else output
        return ("psnr_db", psnr(output, precise))
