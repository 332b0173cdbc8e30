"""Bit identity of the array kernels against the scalar loops they replace.

Graph Coloring's selection and coloring passes, FFT's twiddle tables and
butterflies, and DCT's basis are array operations over one chunk at a
time.  The contract (docs/reproduction-notes.md, "Kernel contract") is
that they produce the same bytes and yield the same virtual costs as the
per-element Python loops they replaced, which live here as the oracle.

Each test names the mutant it kills; all inputs are seeded.
"""

import math

import numpy as np
import pytest

from repro.apps import dct as dct_module
from repro.apps import fft as fft_module
from repro.apps import graph_coloring as gc_module
from repro.apps.dct import BLOCK, DCTApp, DCTRegion
from repro.apps.fft import (SERIES_TERMS, FFTApp, FFTRegion,
                            _crude_sin_many, _series_sin_many,
                            bit_reverse_permutation)
from repro.apps.graph_coloring import ColoringRoundRegion, GraphColoringApp
from repro.workloads.graphs import (GraphInput, coloring_priority,
                                    greedy_coloring_reference, random_graph)

# --------------------------------------------------------------- the oracle


def scalar_series_sin(x):
    x = math.remainder(x, 2.0 * math.pi)
    total, term = 0.0, x
    for k in range(SERIES_TERMS):
        total += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return total


def scalar_crude_sin(x):
    x = math.remainder(x, 2.0 * math.pi)
    b = 4.0 / math.pi
    c = -4.0 / (math.pi * math.pi)
    return b * x + c * x * abs(x)


def scalar_table_body(table, angles, phase):
    half = len(angles)
    for start in range(0, half, fft_module.TABLE_CHUNK):
        stop = min(start + fft_module.TABLE_CHUNK, half)
        for index in range(start, stop):
            table[index] = scalar_series_sin(angles[index] + phase)
        yield fft_module.TABLE_COST_PER_ENTRY * (stop - start)


def scalar_butterflies(signal, sin_t, cos_t, out):
    n = len(signal)
    data = signal[bit_reverse_permutation(n)].astype(complex)
    chunk = fft_module.BUTTERFLY_CHUNK
    cost = fft_module.BUTTERFLY_COST
    size = 2
    while size <= n:
        stride = n // size
        half_size = size // 2
        done = 0
        for block in range(0, n, size):
            for j in range(half_size):
                angle_index = j * stride
                w = complex(cos_t[angle_index], sin_t[angle_index])
                a = data[block + j]
                b = data[block + j + half_size] * w
                data[block + j] = a + b
                data[block + j + half_size] = a - b
                done += 1
                if done % chunk == 0:
                    yield cost * chunk
        if done % chunk:
            yield cost * (done % chunk)
        size *= 2
    out.append(data)


def scalar_select(neighbours, colors, priority, selected, start, stop):
    for chunk in range(start, stop, gc_module.CHUNK_VERTICES):
        hi = min(chunk + gc_module.CHUNK_VERTICES, stop)
        cost = 0.0
        for vertex in range(chunk, hi):
            if colors[vertex] >= 0:
                selected[vertex] = 0
                cost += gc_module.SKIP_COST_PER_VERTEX
                continue
            is_max = all(colors[other] >= 0 or
                         priority[other] < priority[vertex]
                         for other in neighbours[vertex])
            selected[vertex] = 1 if is_max else 0
            cost += gc_module.SELECT_COST_BASE + len(neighbours[vertex])
        yield cost


def scalar_first_free(neighbours, colors, vertex):
    used = {colors[other] for other in neighbours[vertex]
            if colors[other] >= 0}
    color = 0
    while color in used:
        color += 1
    return color


def scalar_color(neighbours, colors, selected):
    n = len(colors)
    for chunk in range(0, n, gc_module.CHUNK_VERTICES):
        hi = min(chunk + gc_module.CHUNK_VERTICES, n)
        cost = 0.0
        for vertex in range(chunk, hi):
            if selected[vertex] != 1 or colors[vertex] >= 0:
                cost += gc_module.SKIP_COST_PER_VERTEX
                continue
            colors[vertex] = scalar_first_free(neighbours, colors, vertex)
            cost += gc_module.COLOR_COST_BASE + len(neighbours[vertex])
        yield cost


def scalar_reference_coloring(graph):
    priority = coloring_priority(graph)
    neighbours = graph.adjacency_lists()
    colors = np.full(graph.num_vertices, -1, dtype=np.int64)
    rounds = 0
    while (colors < 0).any():
        rounds += 1
        chosen = [v for v in range(graph.num_vertices)
                  if colors[v] < 0 and all(
                      colors[o] >= 0 or priority[o] < priority[v]
                      for o in neighbours[v])]
        for vertex in chosen:
            colors[vertex] = scalar_first_free(neighbours, colors, vertex)
    return colors, rounds


def scalar_dct_row(sin, k):
    row = np.empty(BLOCK)
    for m in range(BLOCK):
        value = sin(math.pi * (2 * m + 1) * k / (2 * BLOCK) + math.pi / 2.0)
        if k == 0:
            value /= math.sqrt(2.0)
        row[m] = value * math.sqrt(2.0 / BLOCK)
    return row


def scalar_crude_basis2():
    crude = np.array([scalar_dct_row(scalar_crude_sin, k)
                      for k in range(BLOCK)])
    flat = BLOCK * BLOCK
    basis2 = np.zeros((flat, flat))
    for row in range(flat):
        k, j = divmod(row, BLOCK)
        for col in range(flat):
            m, n = divmod(col, BLOCK)
            basis2[row, col] = crude[k, m] * crude[j, n]
    return basis2


# ----------------------------------------------------------------- helpers


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def bodies(region):
    region.build()
    return {task.name: task.spec.body for task in region.tasks}


# ------------------------------------------------------------------- tests


class TestSeries:
    """Mutant: ``np.remainder`` (floor modulo) instead of the IEEE
    remainder in ``_wrap``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_series_sin_beyond_pi(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.uniform(-20.0, 20.0, 500),
                            rng.uniform(math.pi, 6.7, 100),
                            [math.pi, -math.pi, 2 * math.pi, 0.0, -0.0]])
        want = np.array([scalar_series_sin(v) for v in x.tolist()])
        assert same_bytes(_series_sin_many(x), want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crude_sin_beyond_pi(self, seed):
        x = np.random.default_rng(seed).uniform(-20.0, 20.0, 500)
        want = np.array([scalar_crude_sin(v) for v in x.tolist()])
        assert same_bytes(_crude_sin_many(x), want)

    def test_shape_is_kept(self):
        x = np.random.default_rng(3).uniform(-7.0, 7.0, (4, 8))
        want = np.array([[scalar_series_sin(v) for v in row]
                         for row in x.tolist()])
        assert same_bytes(_series_sin_many(x), want)


class TestFFT:
    """Mutant: the butterfly's product written ``data[v] * w`` (numpy's
    vector complex multiply rounds differently from the scalar one)."""

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_tables_and_butterflies_with_tables_half_refined(self, n):
        signal = np.random.default_rng(n).normal(size=n)
        region = FFTRegion(FFTApp([signal]), signal, threshold=0.5)
        body = bodies(region)
        sin_t = region.datas["sin_table"].read()
        cos_t = region.datas["cos_table"].read()
        angles = -2.0 * np.pi * np.arange(n // 2) / n
        want_sin = np.array([scalar_crude_sin(a) for a in angles])
        want_cos = np.array([scalar_crude_sin(a + np.pi / 2)
                             for a in angles])
        assert same_bytes(sin_t, want_sin)
        assert same_bytes(cos_t, want_cos)

        # Refine half of each table, then keep refining the sine table
        # one chunk per butterfly chunk: the butterflies must read each
        # twiddle at the same point of the run as the scalar loop did.
        producers = [body["sin_table"](None), body["cos_table"](None)]
        oracles = [scalar_table_body(want_sin, angles, 0.0),
                   scalar_table_body(want_cos, angles, np.pi / 2)]
        chunks = (n // 2) // fft_module.TABLE_CHUNK
        for producer, oracle in zip(producers, oracles):
            for _ in range(chunks // 2):
                assert next(producer) == next(oracle)
        assert same_bytes(sin_t, want_sin)
        assert same_bytes(cos_t, want_cos)

        butterflies = body["fft"](None)
        want_out = []
        for want_cost in scalar_butterflies(signal, want_sin, want_cos,
                                            want_out):
            assert next(butterflies) == want_cost
            assert next(producers[0], None) == next(oracles[0], None)
        assert next(butterflies) == float(n)  # the output write
        assert same_bytes(region.result(), want_out[0])
        assert same_bytes(sin_t, want_sin)


class TestGraphColoring:
    """Mutant: ``np.bincount`` without ``minlength`` (a chunk whose last
    vertices have no blocking neighbour, e.g. isolated ones)."""

    @staticmethod
    def graph():
        # 160 vertices; only the first 100 have edges (with duplicates
        # and self-loops), the last 60 are isolated.
        rng = np.random.default_rng(5)
        src = rng.integers(0, 100, 600).astype(np.int32)
        dst = rng.integers(0, 100, 600).astype(np.int32)
        src[:5] = dst[:5]
        return GraphInput("isolated", 160, src, dst,
                          np.ones(600), seed=5)

    def test_csr_matches_adjacency_lists(self):
        graph = self.graph()
        csr = graph.csr()
        lists = graph.adjacency_lists()
        for vertex, neighbours in enumerate(lists):
            lo, hi = csr.indptr[vertex], csr.indptr[vertex + 1]
            assert csr.indices[lo:hi].tolist() == neighbours
            assert (csr.owner[lo:hi] == vertex).all()
            assert csr.degree[vertex] == len(neighbours)

    @pytest.mark.parametrize("parallelism", [1, 2, 3])
    def test_select_and_color_with_isolated_vertices(self, parallelism):
        graph = self.graph()
        app = GraphColoringApp(graph)
        rng = np.random.default_rng(parallelism)
        colors = np.full(graph.num_vertices, -1, dtype=np.int64)
        partial = rng.random(graph.num_vertices) < 0.3
        colors[partial] = rng.integers(0, 4, int(partial.sum()))
        state = {"colors": colors, "priority": app.priority}
        region = ColoringRoundRegion(app, 0, 0.5, parallelism, state)
        body = bodies(region)
        selected = region.datas["selected_0"].read()

        neighbours = graph.adjacency_lists()
        want_colors = colors.copy()
        want_selected = np.full(graph.num_vertices, -1, dtype=np.int8)
        bounds = np.linspace(0, graph.num_vertices,
                             parallelism + 1).astype(int)
        for band in range(parallelism):
            got = list(body[f"select_{band}"](None))
            want = list(scalar_select(neighbours, want_colors, app.priority,
                                      want_selected, int(bounds[band]),
                                      int(bounds[band + 1])))
            assert got == want
        assert same_bytes(selected, want_selected)
        assert selected[100:].tolist() == (colors[100:] < 0).tolist()

        got = list(body["color"](None))
        want = list(scalar_color(neighbours, want_colors, want_selected))
        assert got == want
        assert same_bytes(colors, want_colors)
        assert state["progress"] == int((want_selected == 1).sum())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reference_rounds_and_colors(self, seed):
        graph = random_graph(300, 1500, seed=seed)
        want_colors, want_rounds = scalar_reference_coloring(graph)
        assert same_bytes(greedy_coloring_reference(graph), want_colors)
        assert GraphColoringApp(graph, round_cap=100).rounds == \
            want_rounds + 1


class TestDCT:
    """Mutant: ``basis2``'s ``(k, l, m, n)`` axes transposed before the
    reshape."""

    def test_crude_basis2_and_series_rows(self):
        tensor = np.random.default_rng(11).normal(size=(16, 16))
        region = DCTRegion(DCTApp(tensor), threshold=0.5)
        body = bodies(region)
        basis2 = region.datas["basis"].read()
        want = scalar_crude_basis2()
        assert same_bytes(basis2, want)

        flat = BLOCK * BLOCK
        producer = body["basis"](None)
        for row in range(flat // 2 + 3):
            assert next(producer) == dct_module.BASIS_COST_PER_ENTRY * flat
            k, j = divmod(row, BLOCK)
            want[row] = np.outer(scalar_dct_row(scalar_series_sin, k),
                                 scalar_dct_row(scalar_series_sin, j)
                                 ).ravel()
            assert same_bytes(basis2, want)
