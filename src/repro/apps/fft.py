"""FFT: sin/cos twiddle-table producers -> butterfly consumer.

The paper's class-4 task graph (multi-producer): two producer tasks
evaluate the sine and cosine twiddle tables with an expensive Taylor
series, and the butterfly consumer "calculates FFT with approximate
sin/cos values" (Table 2).  The tables are pre-seeded with a cheap
parabolic approximation of sine/cosine, so a consumer that starts before
the tables are fully refined computes with mildly wrong twiddles — the
source of the normalized-MSE error in Figures 6/7.

Larger inputs gain more (Section 7.2): the butterfly payload grows as
``N log N`` while framework overheads stay constant.

Multithreading (Figure 12) processes a batch of vectors, one region per
vector, using inter-region concurrency.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from ..core.region import FluidRegion
from ..core.valves import DataFinalValve, PercentValve
from ..metrics.error import normalized_mse
from .base import FluidApp, SubmitPlan

SERIES_TERMS = 9          # Taylor terms per precise table entry
TABLE_COST_PER_ENTRY = 4.0 * SERIES_TERMS
BUTTERFLY_COST = 6.0
TABLE_CHUNK = 64
BUTTERFLY_CHUNK = 256


_remainder = np.frompyfunc(math.remainder, 2, 1)


def _wrap(x: np.ndarray) -> np.ndarray:
    """IEEE remainder modulo 2*pi, element by element (``np.remainder``
    is a floor modulo and rounds differently)."""
    return _remainder(np.asarray(x, dtype=float), 2.0 * math.pi).astype(float)


def _series_sin_many(x: np.ndarray) -> np.ndarray:
    """Expensive high-accuracy sine via Taylor series (the producer's
    actual work; matches numpy to ~1e-12 on [-pi, pi])."""
    x = _wrap(x)
    total, term = np.zeros_like(x), x.copy()
    for k in range(SERIES_TERMS):
        total += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return total


def _crude_sin_many(x: np.ndarray) -> np.ndarray:
    """Cheap parabolic approximation that pre-fills the tables."""
    x = _wrap(x)
    b = 4.0 / math.pi
    c = -4.0 / (math.pi * math.pi)
    return b * x + c * x * np.abs(x)


def bit_reverse_permutation(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


class FFTRegion(FluidRegion):
    """header -> (sin_table, cos_table) -> butterflies (leaf)."""

    def __init__(self, app: "FFTApp", signal: np.ndarray, threshold: float,
                 name=None):
        self.app = app
        self.signal = signal
        self.threshold = threshold
        super().__init__(name)

    def build(self):
        n = len(self.signal)
        half = n // 2
        src = self.input_data("src", self.signal)
        ready = self.add_data("ready")
        sin_cell = self.add_array("sin_table", None)
        cos_cell = self.add_array("cos_table", None)
        out_cell = self.add_array("spectrum", None)
        ct_sin = self.add_count("ct_sin")
        ct_cos = self.add_count("ct_cos")

        angles = -2.0 * np.pi * np.arange(half) / n
        sin_cell.init(_crude_sin_many(angles))
        cos_cell.init(_crude_sin_many(angles + np.pi / 2))

        def header(ctx):
            ready.write(True)
            yield 16.0

        self.add_task("header", header, inputs=[src], outputs=[ready])

        def make_table_body(table, count, phase):
            def body(ctx):
                values = _series_sin_many(angles + phase)
                for start in range(0, half, TABLE_CHUNK):
                    stop = min(start + TABLE_CHUNK, half)
                    table.read()[start:stop] = values[start:stop]
                    table.touch()
                    count.add(stop - start)
                    yield TABLE_COST_PER_ENTRY * (stop - start)
            return body

        self.add_task("sin_table", make_table_body(sin_cell, ct_sin, 0.0),
                      start_valves=[DataFinalValve(ready)],
                      inputs=[ready], outputs=[sin_cell])
        self.add_task("cos_table",
                      make_table_body(cos_cell, ct_cos, np.pi / 2),
                      start_valves=[DataFinalValve(ready)],
                      inputs=[ready], outputs=[cos_cell])

        permutation = bit_reverse_permutation(n)
        spectrum = np.zeros(n, dtype=complex)

        def butterflies(ctx):
            sin_t = sin_cell.read()
            cos_t = cos_cell.read()
            data = src.read()[permutation].astype(complex)
            re, im = data.real, data.imag
            butterfly = np.arange(half)
            size = 2
            while size <= n:
                stride = n // size
                half_size = size // 2
                # Butterflies in block-major order; a stage's pairs are
                # disjoint, so each chunk is one array pass.
                j = butterfly % half_size
                top = butterfly // half_size * size + j
                twiddle = j * stride
                for lo in range(0, half, BUTTERFLY_CHUNK):
                    u = top[lo:lo + BUTTERFLY_CHUNK]
                    v = u + half_size
                    t = twiddle[lo:lo + BUTTERFLY_CHUNK]
                    wr, wi = cos_t[t], sin_t[t]
                    # The scalar complex product, spelt out: numpy's
                    # vector complex multiply rounds differently.
                    br = re[v] * wr - im[v] * wi
                    bi = re[v] * wi + im[v] * wr
                    ar, ai = re[u], im[u]
                    re[u], im[u] = ar + br, ai + bi
                    re[v], im[v] = ar - br, ai - bi
                    yield BUTTERFLY_COST * len(u)
                size *= 2
            spectrum[:] = data
            out_cell.init(spectrum)
            out_cell.touch()
            yield float(n)

        self.add_task(
            "fft", butterflies,
            start_valves=[PercentValve(ct_sin, self.threshold, half,
                                       name="v_sin"),
                          PercentValve(ct_cos, self.threshold, half,
                                       name="v_cos")],
            end_valves=[PercentValve(ct_sin, 1.0, half, name="q_sin"),
                        PercentValve(ct_cos, 1.0, half, name="q_cos")],
            inputs=[sin_cell, cos_cell], outputs=[out_cell])
        self._spectrum = spectrum

    def result(self) -> np.ndarray:
        return self._spectrum


class FFTApp(FluidApp):
    """Radix-2 FFT over a batch of vectors (one region per vector)."""

    name = "fft"

    def __init__(self, signals: List[np.ndarray]):
        super().__init__()
        for signal in signals:
            if len(signal) & (len(signal) - 1):
                raise ValueError("FFT length must be a power of two")
        self.signals = [np.asarray(s, dtype=float) for s in signals]

    def build_regions(self, threshold: float, valve: str,
                      parallelism: int) -> SubmitPlan:
        plan = SubmitPlan()
        regions = [FFTRegion(self, signal, threshold, name=f"fft_{i}")
                   for i, signal in enumerate(self.signals)]
        # parallelism = how many vector regions run concurrently.
        for start in range(0, len(regions), max(1, parallelism)):
            plan.add_stage(regions[start:start + max(1, parallelism)])
        plan.extras["regions"] = regions
        return plan

    def extract_output(self, plan: SubmitPlan) -> List[np.ndarray]:
        return [region.result().copy()
                for region in plan.extras["regions"]]

    def compute_error(self, output, precise_output) -> float:
        errors = [normalized_mse(got, want)
                  for got, want in zip(output, precise_output)]
        return min(1.0, float(np.mean(errors)))

    def compute_metric(self, output):
        if self._precise is None:
            return ("normalized_mse", 0.0)
        errors = [normalized_mse(got, want)
                  for got, want in zip(output, self._precise.output)]
        return ("normalized_mse", float(np.mean(errors)))

    def reference_spectra(self) -> List[np.ndarray]:
        """numpy's FFT, for validating the precise kernel."""
        return [np.fft.fft(signal) for signal in self.signals]
