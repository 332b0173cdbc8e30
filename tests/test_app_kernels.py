"""Bit identity of the array kernels against the loops they replace.

Graph Coloring's selection and coloring passes, FFT's twiddle tables and
butterflies, DCT's basis, Edge Detection's smoothing pass and gradient
rows and MedusaDock's pose scoring are array operations, some of them
computed once per run rather than once per chunk.  The contract
(docs/reproduction-notes.md, "Kernel contract") is that they produce the
same bytes, yield the same virtual costs and make the same ``touch()``
calls and count publishes, chunk by chunk, as the loops they replaced,
which live here as the oracle.

Each test names the mutant it kills; all inputs are seeded.
"""

import math

import numpy as np
import pytest

from repro.apps import dct as dct_module
from repro.apps import edge_detection as edge_module
from repro.apps import fft as fft_module
from repro.apps import graph_coloring as gc_module
from repro.apps import medusadock as dock_module
from repro.apps.dct import BLOCK, DCTApp, DCTRegion, _basis_rows
from repro.apps.edge_detection import EdgeDetectionApp
from repro.apps.fft import (SERIES_TERMS, FFTApp, FFTRegion,
                            _crude_sin_many, _series_sin_many,
                            bit_reverse_permutation)
from repro.apps.graph_coloring import ColoringRoundRegion, GraphColoringApp
from repro.apps.medusadock import MedusaDockApp
from repro.bench.harness import edge_detection_inputs
from repro.workloads import synthetic_poses
from repro.workloads.graphs import (GraphInput, coloring_priority,
                                    greedy_coloring_reference, random_graph)
from repro.workloads.molecules import (energy_reference, pose_energies,
                                       pose_energy)

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


# The per-chunk loops that the once-per-run kernels replaced.  Each
# writes into the cells of a second, independently built region.


def replaced_dct_basis(basis2, cell, count):
    flat = BLOCK * BLOCK
    for row in range(flat):
        row_k, row_l = _basis_rows(_series_sin_many,
                                   np.array(divmod(row, BLOCK)))
        basis2[row] = np.outer(row_k, row_l).ravel()
        cell.touch()
        count.add(flat)
        yield dct_module.BASIS_COST_PER_ENTRY * flat


def replaced_fft_table(table, count, angles, phase):
    half = len(angles)
    for start in range(0, half, fft_module.TABLE_CHUNK):
        stop = min(start + fft_module.TABLE_CHUNK, half)
        table.read()[start:stop] = _series_sin_many(
            angles[start:stop] + phase)
        table.touch()
        count.add(stop - start)
        yield fft_module.TABLE_COST_PER_ENTRY * (stop - start)


def per_pose_energy(protein, pose):
    deltas = protein[:, None, :] - pose[None, :, :]
    r2 = np.maximum((deltas ** 2).sum(axis=-1), 0.25)
    inv6 = 1.0 / r2 ** 3
    return float((inv6 ** 2 - 2.0 * inv6).sum())


def replaced_dock(docking, cell, min_energy, count):
    energies = cell.read()
    pose_cost = dock_module.SCAN_COST_PER_POSE * docking.protein.shape[0] \
        * docking.poses.shape[1] / 64.0
    for index in range(docking.num_poses):
        energies[index] = per_pose_energy(docking.protein,
                                          docking.poses[index])
        cell.touch()
        min_energy.track_min(energies[index])
        count.add()
        yield pose_cost


def per_row_conv3x3(image, row, kernel):
    height, width = image.shape
    out = np.zeros(width)
    for dy in (-1, 0, 1):
        source = image[min(max(row + dy, 0), height - 1)]
        padded = np.concatenate(([source[0]], source, [source[-1]]))
        for dx in (-1, 0, 1):
            out += kernel[dy + 1, dx + 1] * padded[1 + dx:1 + dx + width]
    return out


def replaced_filter(app, cell, count, start, stop):
    work = cell.read()
    width = app.image.shape[1]
    kernel = edge_module.GAUSSIAN if app.noise_filter == "gaussian" \
        else edge_module.MEAN
    for row in range(start, stop):
        work[row] = per_row_conv3x3(app.image, row, kernel)
        cell.touch()
        count.add(width)
        yield edge_module.FILTER_COST[app.noise_filter] * width


def replaced_select(app, colors, cell, count, start, stop):
    csr, priority, degree = app.csr, app.priority, app.csr.degree
    selected = cell.read()
    for chunk in range(start, stop, gc_module.CHUNK_VERTICES):
        hi = min(chunk + gc_module.CHUNK_VERTICES, stop)
        uncolored = colors[chunk:hi] < 0
        edges = slice(csr.indptr[chunk], csr.indptr[hi])
        owner = csr.owner[edges]
        other = csr.indices[edges]
        blocking = (colors[other] < 0) & (priority[other] >= priority[owner])
        blockers = np.bincount(owner[blocking] - chunk,
                               minlength=hi - chunk)
        selected[chunk:hi] = uncolored & (blockers == 0)
        scanned = int(uncolored.sum())
        cell.touch()
        count.add(hi - chunk)
        yield float(gc_module.SKIP_COST_PER_VERTEX * (hi - chunk - scanned)
                    + gc_module.SELECT_COST_BASE * scanned
                    + degree[chunk:hi][uncolored].sum())


# ----------------------------------------------------------------- helpers


def same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


def bodies(region):
    region.build()
    return {task.name: task.spec.body for task in region.tasks}


def chunk_steps(body, cells, counts):
    """Run ``body`` to its end.  Per chunk: the yielded cost, every
    cell's touch count, every published count value and every cell's
    raw bytes."""
    return [(cost, [cell.version for cell in cells],
             [count.value for count in counts],
             [np.asarray(cell.read()).tobytes() for cell in cells])
            for cost in body]


def twin_regions(app, parallelism):
    """Two independent builds of ``app``'s regions: one runs the app's
    bodies, the other the oracle loops."""
    pair = []
    for _ in range(2):
        regions = app.build_regions(0.5, "percent",
                                    parallelism).ordered_regions()
        for region in regions:
            region.build()
        pair.append(regions)
    return zip(*pair)


def body_of(region, name):
    return next(task.spec.body for task in region.tasks
                if task.name == name)(None)


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
        state = {"colors": colors}
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


class TestOncePerRun:
    """The kernels that moved loop-invariant work out of the chunk loop
    make every chunk's visible effects exactly as the replaced loop did:
    same bytes, yields, ``touch()`` calls and count publishes."""

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_dct_basis_rows_evaluated_once(self, parallelism):
        """Mutant: the basis row written from ``(rows[l], rows[k])``."""
        app = DCTApp(np.random.default_rng(11).normal(size=(16, 24)))
        for got, want in twin_regions(app, parallelism):
            cells = [got.datas["basis"]], [want.datas["basis"]]
            counts = [got.counts["ct_basis"]], [want.counts["ct_basis"]]
            oracle = replaced_dct_basis(want.datas["basis"].read(),
                                        *cells[1], *counts[1])
            assert chunk_steps(body_of(got, "basis"), cells[0],
                               counts[0]) == \
                chunk_steps(oracle, cells[1], counts[1])

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_fft_tables_evaluated_once(self, parallelism):
        """Mutant: the table phase added twice (``angles + phase +
        phase``).  The 64-point signal's 32-entry tables are one ragged
        chunk."""
        rng = np.random.default_rng(parallelism)
        app = FFTApp([rng.normal(size=n) for n in (64, 256, 1024)])
        for got, want in twin_regions(app, parallelism):
            n = len(got.signal)
            angles = -2.0 * np.pi * np.arange(n // 2) / n
            for table, count, phase in (("sin_table", "ct_sin", 0.0),
                                        ("cos_table", "ct_cos", np.pi / 2)):
                oracle = replaced_fft_table(want.datas[table],
                                            want.counts[count], angles,
                                            phase)
                assert chunk_steps(body_of(got, table), [got.datas[table]],
                                   [got.counts[count]]) == \
                    chunk_steps(oracle, [want.datas[table]],
                                [want.counts[count]])

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_medusadock_scores_poses_in_blocks(self, parallelism):
        """Mutant: a block starts at ``index % POSE_BLOCK == 1``.  21
        poses end in a ragged block of 5, 3 poses are one short block."""
        app = MedusaDockApp([
            synthetic_poses(num_poses=poses, protein_atoms=20,
                            ligand_atoms=7, seed=seed, name=f"p{seed}")
            for seed, poses in enumerate((21, 8, 3))])
        for got, want in twin_regions(app, parallelism):
            names = ("energies",), ("min_energy", "ct_scored")
            cells = [[region.datas[name] for name in names[0]]
                     for region in (got, want)]
            counts = [[region.counts[name] for name in names[1]]
                      for region in (got, want)]
            oracle = replaced_dock(got.docking, *cells[1], *counts[1])
            assert chunk_steps(body_of(got, "medusa_dock"), cells[0],
                               counts[0]) == \
                chunk_steps(oracle, cells[1], counts[1])

    @pytest.mark.parametrize("noise_filter", ["gaussian", "mean"])
    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_edge_filter_convolves_its_band_once(self, parallelism,
                                                 noise_filter):
        """Mutant: source rows clipped at ``height`` instead of
        ``height - 1``.  47 rows split 15/16/16 at parallelism 3, and
        the last band ends on the clamped border."""
        image = np.random.default_rng(7).normal(size=(47, 29)) * 50.0
        app = EdgeDetectionApp(image, noise_filter=noise_filter)
        for got, want in twin_regions(app, parallelism):
            bands = got._bands(image.shape[0])
            for index, (start, stop) in enumerate(bands):
                cell, count = f"filtered_{index}", f"ct_{index}"
                oracle = replaced_filter(app, want.datas[cell],
                                         want.counts[count], start, stop)
                assert chunk_steps(body_of(got, f"filter_{index}"),
                                   [got.datas[cell]],
                                   [got.counts[count]]) == \
                    chunk_steps(oracle, [want.datas[cell]],
                                [want.counts[count]])
            # The gradient pass reads the smoothed rows.
            for index, _band in enumerate(bands):
                list(body_of(got, f"gradient_{index}"))
            smoothed = want.datas["filtered_0"].read()
            edges = np.array([
                np.abs(per_row_conv3x3(smoothed, row, edge_module.SOBEL_X))
                + np.abs(per_row_conv3x3(smoothed, row, edge_module.SOBEL_Y))
                for row in range(image.shape[0])])
            assert same_bytes(got.edge_map(), edges)

    @pytest.mark.parametrize("parallelism", [1, 3])
    def test_graph_coloring_outranked_edges(self, parallelism,
                                            monkeypatch):
        """Mutant: ``>`` instead of ``>=`` in ``outranked_edges``.  Tied
        priorities tell the two apart (distinct ones cannot); 160
        vertices at 64 per chunk end in a ragged chunk in every band."""
        monkeypatch.setattr(gc_module, "coloring_priority",
                            lambda graph: coloring_priority(graph) // 3)
        graph = TestGraphColoring.graph()
        app = GraphColoringApp(graph, rounds=1)
        csr = app.csr
        assert same_bytes(app.outranked, np.array(
            [app.priority[other] >= app.priority[owner]
             for owner, other in zip(csr.owner.tolist(),
                                     csr.indices.tolist())], dtype=bool))
        rng = np.random.default_rng(parallelism)
        partial = rng.random(graph.num_vertices) < 0.3
        for got, want in twin_regions(app, parallelism):
            colors = [region.state["colors"] for region in (got, want)]
            for region_colors in colors:
                region_colors[partial] = 1
            bounds = np.linspace(0, graph.num_vertices,
                                 parallelism + 1).astype(int)
            for band in range(parallelism):
                cell, count = f"selected_{band}", f"scanned_{band}"
                oracle = replaced_select(app, colors[1], want.datas[cell],
                                         want.counts[count],
                                         int(bounds[band]),
                                         int(bounds[band + 1]))
                assert chunk_steps(body_of(got, f"select_{band}"),
                                   [got.datas[cell]],
                                   [got.counts[count]]) == \
                    chunk_steps(oracle, [want.datas[cell]],
                                [want.counts[count]])


class TestPoseEnergies:
    """Mutants: a pose's terms summed per receptor atom first
    (``.sum(axis=2).sum(axis=1)``); ``r2`` summed right to left (``z``
    first); ``r2 ** 3`` as ``r2 * r2 * r2``.  The precise reference, a
    block of poses and a single pose all equal the per-pose kernel they
    replaced, byte for byte."""

    def test_length3_add_reduce_sums_left_to_right(self):
        """What ``pose_energies`` relies on when it adds the squared
        coordinate deltas one at a time: numpy's add-reduce over a
        length-3 last axis, the oracle's ``.sum(axis=-1)``, is
        ``(x + y) + z``.  10^5 triples in the kernel's 4-d layout; a
        right-to-left sum differs in about a quarter of them, so the
        two orders are told apart."""
        squares = np.random.default_rng(3).uniform(
            -13.0, 13.0, size=(20, 100, 50, 3)) ** 2
        left = (squares[..., 0] + squares[..., 1]) + squares[..., 2]
        right = squares[..., 0] + (squares[..., 1] + squares[..., 2])
        assert same_bytes(squares.sum(axis=-1), left)
        assert np.mean(left != right) > 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_and_single_pose_match_per_pose_loop(self, seed):
        docking = synthetic_poses(num_poses=37, seed=seed,
                                  placement="uniform")
        want = np.array([per_pose_energy(docking.protein, pose)
                         for pose in docking.poses])
        assert same_bytes(energy_reference(docking), want)
        for start in range(0, docking.num_poses, dock_module.POSE_BLOCK):
            block = docking.poses[start:start + dock_module.POSE_BLOCK]
            assert same_bytes(pose_energies(docking.protein, block),
                              want[start:start + dock_module.POSE_BLOCK])
        assert [pose_energy(docking.protein, pose)
                for pose in docking.poses] == want.tolist()


class TestGradientRow:
    """``gradient_row`` sums only each kernel's non-zero taps over one
    clamped, padded window; its bytes are the full 3x3 convolution's,
    ``|Gx| + |Gy|`` for Sobel and ``|L|`` for the Laplacian, on every
    row, the clamped first and last ones included.  Mutants: a dropped
    non-zero tap; the last row clamped at ``height`` instead of
    ``height - 1``."""

    @staticmethod
    def images():
        rng = np.random.default_rng(11)
        suite = {name: make().image
                 for name, make in edge_detection_inputs().items()}
        return {**suite,
                "flat": np.full((9, 13), 7.25),
                "negative": rng.normal(size=(17, 23)) * 40.0 - 200.0,
                "one_row": rng.normal(size=(1, 6)),
                "one_column": rng.normal(size=(5, 1))}

    @pytest.mark.parametrize("gradient", ["sobel", "laplacian"])
    def test_equals_full_convolution_on_every_row(self, gradient):
        for name, image in self.images().items():
            for row in range(image.shape[0]):
                if gradient == "sobel":
                    want = np.abs(per_row_conv3x3(
                        image, row, edge_module.SOBEL_X)) + np.abs(
                        per_row_conv3x3(image, row, edge_module.SOBEL_Y))
                else:
                    want = np.abs(per_row_conv3x3(image, row,
                                                  edge_module.LAPLACIAN))
                got = edge_module.gradient_row(image, row, gradient)
                assert same_bytes(got, want), (name, row)
                if name == "flat":
                    assert same_bytes(got, np.zeros(image.shape[1]))
