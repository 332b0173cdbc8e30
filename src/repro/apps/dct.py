"""DCT: cosine-basis producer -> blockwise sum consumers.

The paper's other class-4 graph, on the multi-consumer side: one
producer evaluates the 2-D DCT-II cosine basis (an 8x8 block transform,
64x64 = 4096 series-evaluated entries) and *two* consumer tasks
("calculate sum", Table 2) apply it to disjoint halves of the image
blocks, each with its own start condition on the shared basis table.

As with FFT, the basis is pre-filled with a cheap parabolic cosine so
eager consumers work with approximate coefficients; larger tensors gain
more because the summation payload grows with the block count while the
basis cost is fixed.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve
from ..metrics.error import normalized_mse
from .base import FluidApp, SubmitPlan
from .fft import SERIES_TERMS, _crude_sin_many, _series_sin_many

BLOCK = 8
BASIS_ENTRIES = (BLOCK * BLOCK) ** 2
BASIS_COST_PER_ENTRY = 4.0 * SERIES_TERMS
SUM_COST_PER_BLOCK = float(BLOCK ** 4)  # dense 64x64 basis apply per block
BASIS_CHUNK = 128

#: DCT-II angles pi * (2n + 1) * k / (2 * BLOCK), indexed [k, n]
_ANGLES = (math.pi * (2 * np.arange(BLOCK) + 1) * np.arange(BLOCK)[:, None]
           / (2 * BLOCK))


def _basis_rows(sin_many, ks: np.ndarray) -> np.ndarray:
    """Rows ``ks`` of the orthonormal 1-D basis, cosines from ``sin_many``."""
    values = sin_many(_ANGLES[ks] + math.pi / 2.0)
    values[ks == 0] /= math.sqrt(2.0)
    return values * math.sqrt(2.0 / BLOCK)


def dct_basis_reference() -> np.ndarray:
    k = np.arange(BLOCK)
    n = np.arange(BLOCK)
    basis = np.cos(math.pi * (2.0 * n[None, :] + 1.0) * k[:, None]
                   / (2.0 * BLOCK))
    basis[0] *= 1.0 / math.sqrt(2.0)
    return basis * math.sqrt(2.0 / BLOCK)


def dct2_blocks_reference(tensor: np.ndarray) -> np.ndarray:
    """Precise blockwise 2-D DCT-II (for kernel validation)."""
    basis = dct_basis_reference()
    out = np.zeros_like(tensor)
    for by in range(0, tensor.shape[0], BLOCK):
        for bx in range(0, tensor.shape[1], BLOCK):
            block = tensor[by:by + BLOCK, bx:bx + BLOCK]
            out[by:by + BLOCK, bx:bx + BLOCK] = basis @ block @ basis.T
    return out


class DCTRegion(FluidRegion):
    """header -> basis -> (sum_lo, sum_hi) leaves."""

    def __init__(self, app: "DCTApp", threshold: float, name=None):
        self.app = app
        self.threshold = threshold
        super().__init__(name)

    def build(self):
        app = self.app
        tensor = app.tensor
        src = self.input_data("src", tensor)
        ready = self.add_data("ready")
        basis_cell = self.add_array("basis", None)
        ct = self.add_count("ct_basis")

        crude = _basis_rows(_crude_sin_many, np.arange(BLOCK))
        basis_cell.init(None)  # re-bound to basis2 below

        def header(ctx):
            ready.write(True)
            yield 16.0

        self.add_task("header", header, inputs=[src], outputs=[ready])

        # The full 2-D basis: B2[(k,l),(m,n)] = b[k,m] * b[l,n], 4096
        # series-evaluated entries ("Cos value" producer, Table 2).
        flat = BLOCK * BLOCK
        basis2 = (crude[:, None, :, None]
                  * crude[None, :, None, :]).reshape(flat, flat)
        total_entries = BASIS_ENTRIES

        def basis_body(ctx):
            rows = _basis_rows(_series_sin_many, np.arange(BLOCK))
            for row in range(flat):
                k, j = divmod(row, BLOCK)
                basis2[row] = np.outer(rows[k], rows[j]).ravel()
                basis_cell.touch()
                ct.add(flat)
                yield BASIS_COST_PER_ENTRY * flat

        basis_cell.init(basis2)
        self.add_task("basis", basis_body,
                      start_valves=[DataFinalValve(ready)],
                      inputs=[ready], outputs=[basis_cell])

        out = np.zeros_like(tensor)
        blocks = [(by, bx)
                  for by in range(0, tensor.shape[0], BLOCK)
                  for bx in range(0, tensor.shape[1], BLOCK)]
        halves = [blocks[:len(blocks) // 2], blocks[len(blocks) // 2:]]

        self._out = out
        for index, half in enumerate(halves):
            out_cell = self.add_array(f"coeff_{index}", out)

            def sum_body(ctx, half=half, out_cell=out_cell):
                for by, bx in half:
                    block = tensor[by:by + BLOCK, bx:bx + BLOCK]
                    coefficients = basis2 @ block.ravel()
                    out[by:by + BLOCK, bx:bx + BLOCK] = \
                        coefficients.reshape(BLOCK, BLOCK)
                    out_cell.touch()
                    yield SUM_COST_PER_BLOCK

            self.add_task(
                f"sum_{index}", sum_body,
                start_valves=[PercentValve(ct, self.threshold, total_entries,
                                           name=f"v_start_{index}")],
                end_valves=[PercentValve(ct, 1.0, total_entries,
                                         name=f"v_end_{index}")],
                inputs=[basis_cell], outputs=[out_cell])

    def coefficients(self) -> np.ndarray:
        return self._out


class DCTApp(FluidApp):
    """Blockwise 2-D DCT of one tensor."""

    name = "dct"

    def __init__(self, tensor: np.ndarray):
        super().__init__()
        if tensor.shape[0] % BLOCK or tensor.shape[1] % BLOCK:
            raise ValueError(f"tensor dimensions must be multiples of {BLOCK}")
        self.tensor = np.asarray(tensor, dtype=float)

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        plan = SubmitPlan()
        region = DCTRegion(self, threshold)
        plan.add_region(region)
        plan.extras["region"] = region
        return plan

    def extract_output(self, plan: SubmitPlan) -> np.ndarray:
        return plan.extras["region"].coefficients().copy()

    def compute_error(self, output, precise_output) -> float:
        return min(1.0, normalized_mse(output, precise_output))

    def compute_metric(self, output):
        if self._precise is None:
            return ("normalized_mse", 0.0)
        return ("normalized_mse",
                normalized_mse(output, self._precise.output))
