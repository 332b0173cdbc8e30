"""Random graph generation for Bellman-Ford and Graph Coloring.

The paper's sensitivity axis is size x density (input labels like
``5K_2M`` vs ``5K_200K``): fluid gains grow with density because denser
graphs carry more per-iteration work relative to framework overheads.
The generator builds a connected weighted digraph: a random spanning
tree (guaranteeing reachability from the source) plus ``m - n + 1``
random extra edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class CSR(NamedTuple):
    """Symmetric, self-loop-free neighbour lists: vertex ``v``'s sorted
    neighbours are ``indices[indptr[v]:indptr[v + 1]]``, and ``owner``
    is ``v`` for each of those edges."""

    indptr: np.ndarray
    indices: np.ndarray
    owner: np.ndarray
    degree: np.ndarray


@dataclass
class GraphInput:
    """Edge-list representation (numpy arrays for vectorized relaxing)."""

    name: str
    num_vertices: int
    src: np.ndarray      # int32 edge sources
    dst: np.ndarray      # int32 edge destinations
    weight: np.ndarray   # float64 positive edge weights
    seed: int

    @property
    def num_edges(self) -> int:
        return len(self.src)

    @property
    def density(self) -> float:
        return self.num_edges / max(1, self.num_vertices)

    def adjacency_lists(self):
        """Sorted, self-loop-free neighbour lists (as Python lists)."""
        neighbours = [[] for _ in range(self.num_vertices)]
        for s, d in zip(self.src.tolist(), self.dst.tolist()):
            if s != d:
                neighbours[s].append(d)
                neighbours[d].append(s)
        return [sorted(set(adjacent)) for adjacent in neighbours]

    def csr(self) -> CSR:
        """The same neighbour lists in compressed sparse row form (what
        graph coloring scans)."""
        n = self.num_vertices
        src = self.src.astype(np.int64)
        dst = self.dst.astype(np.int64)
        keep = src != dst
        keys = np.sort(np.concatenate([src[keep] * n + dst[keep],
                                       dst[keep] * n + src[keep]]))
        # Deduplicated by hand: np.unique's hash path adds ~2 MB of
        # resident set for a few thousand keys.
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        owner, indices = np.divmod(keys, n)
        degree = np.bincount(owner, minlength=n)
        indptr = np.concatenate([[0], np.cumsum(degree)])
        return CSR(indptr, indices, owner, degree)

    # -- interop ------------------------------------------------------------

    @classmethod
    def from_networkx(cls, graph, weight: str = "weight",
                      default_weight: float = 1.0,
                      name: str = "networkx") -> "GraphInput":
        """Build a :class:`GraphInput` from a networkx (di)graph.

        Node labels are compacted to 0..n-1 in sorted order; undirected
        graphs contribute one directed edge per direction.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        src, dst, weights = [], [], []
        for u, v, attributes in graph.edges(data=True):
            w = float(attributes.get(weight, default_weight))
            src.append(index[u])
            dst.append(index[v])
            weights.append(w)
            if not graph.is_directed():
                src.append(index[v])
                dst.append(index[u])
                weights.append(w)
        return cls(name, len(nodes),
                   np.asarray(src, dtype=np.int32),
                   np.asarray(dst, dtype=np.int32),
                   np.asarray(weights, dtype=float), seed=0)

    def to_networkx(self):
        """Export as a weighted :class:`networkx.DiGraph`."""
        import networkx

        graph = networkx.DiGraph()
        graph.add_nodes_from(range(self.num_vertices))
        for s, d, w in zip(self.src.tolist(), self.dst.tolist(),
                           self.weight.tolist()):
            if graph.has_edge(s, d):
                graph[s][d]["weight"] = min(graph[s][d]["weight"], w)
            else:
                graph.add_edge(s, d, weight=w)
        return graph


def random_graph(num_vertices: int, num_edges: int, seed: int = 0,
                 max_weight: float = 10.0,
                 name: str = "") -> GraphInput:
    """Connected random digraph with ``num_edges`` total edges."""
    if num_edges < num_vertices - 1:
        raise ValueError("need at least n-1 edges for connectivity")
    rng = np.random.default_rng(seed)

    # Spanning tree rooted at 0: vertex i (>0) gets an incoming edge from
    # a uniformly random earlier vertex.
    tree_src = rng.integers(0, np.arange(1, num_vertices),
                            dtype=np.int64) if num_vertices > 1 else \
        np.empty(0, dtype=np.int64)
    tree_dst = np.arange(1, num_vertices, dtype=np.int64)

    extra = num_edges - (num_vertices - 1)
    extra_src = rng.integers(0, num_vertices, size=extra)
    extra_dst = rng.integers(0, num_vertices, size=extra)

    src = np.concatenate([tree_src, extra_src]).astype(np.int32)
    dst = np.concatenate([tree_dst, extra_dst]).astype(np.int32)
    weight = rng.uniform(1.0, max_weight, size=len(src))
    label = name or f"{num_vertices}V_{num_edges}E"
    return GraphInput(label, num_vertices, src, dst, weight, seed)


def bellman_ford_reference(graph: GraphInput, source: int = 0) -> np.ndarray:
    """Precise single-source shortest paths (full |V|-1 iterations)."""
    dist = np.full(graph.num_vertices, np.inf)
    dist[source] = 0.0
    for _ in range(graph.num_vertices - 1):
        relaxed = dist[graph.src] + graph.weight
        before = dist.copy()
        np.minimum.at(dist, graph.dst, relaxed)
        if np.array_equal(before, dist):
            break
    return dist


def outranked_edges(csr: CSR, priority: np.ndarray) -> np.ndarray:
    """Per CSR edge, whether the neighbour's priority is ``>=`` its
    owner's: the edges along which an uncolored neighbour blocks a
    vertex (bool array aligned with ``csr.indices``)."""
    return priority[csr.indices] >= priority[csr.owner]


class ChunkEdges(NamedTuple):
    """Vertices ``lo..hi-1``'s slice of the CSR, cut once per graph:
    its :func:`outranked_edges` alone, as each edge's neighbour and its
    owner minus ``lo``, plus the vertices' degrees."""

    lo: int
    hi: int
    indices: np.ndarray
    owner: np.ndarray
    degree: np.ndarray


def chunk_edges(csr: CSR, outranked: np.ndarray, lo: int,
                hi: int) -> ChunkEdges:
    edges = slice(int(csr.indptr[lo]), int(csr.indptr[hi]))
    keep = outranked[edges]
    return ChunkEdges(lo, hi, csr.indices[edges][keep],
                      csr.owner[edges][keep] - lo, csr.degree[lo:hi])


def select_chunk(colors: np.ndarray,
                 edges: ChunkEdges) -> tuple[np.ndarray, np.ndarray]:
    """``(selected, uncolored)`` masks of vertices ``lo..hi-1``:
    which are uncolored, and which of those outrank every uncolored
    neighbour.

    The priorities are distinct and there are no self-loops, so a
    vertex is blocked exactly by an uncolored neighbour along one of
    its outranked edges (priority ``>=`` its own).
    """
    lo, hi = edges.lo, edges.hi
    blockers = np.bincount(edges.owner[colors[edges.indices] < 0],
                           minlength=hi - lo)
    uncolored = colors[lo:hi] < 0
    return uncolored & (blockers == 0), uncolored


def neighbour_arrays(csr: CSR) -> list[np.ndarray]:
    """Vertex ``v``'s neighbours as the ``v``-th view of
    ``csr.indices``."""
    bounds = csr.indptr.tolist()
    return [csr.indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def color_in_order(colors: np.ndarray, neighbours: list,
                   vertices) -> int:
    """Give each of ``vertices``, in order, the smallest color none of
    its neighbours holds when its turn comes (so it sees the colors
    given before it); return the sum of their degrees."""
    degrees = 0
    for vertex in vertices:
        around = neighbours[vertex]
        used = set(colors[around].tolist())
        color = 0
        while color in used:
            color += 1
        colors[vertex] = color
        degrees += len(around)
    return degrees


def jones_plassmann(csr: CSR, priority: np.ndarray) -> tuple[np.ndarray, int]:
    """Precise round-based coloring: (colors, number of rounds)."""
    n = len(csr.degree)
    edges = chunk_edges(csr, outranked_edges(csr, priority), 0, n)
    neighbours = neighbour_arrays(csr)
    colors = np.full(n, -1, dtype=np.int64)
    rounds = 0
    while (colors < 0).any():
        rounds += 1
        chosen = np.flatnonzero(select_chunk(colors, edges)[0])
        color_in_order(colors, neighbours, chosen.tolist())
    return colors, rounds


def coloring_priority(graph: GraphInput) -> np.ndarray:
    """The random vertex priorities, seeded from the graph seed."""
    return np.random.default_rng(graph.seed + 12345).permutation(
        graph.num_vertices)


def greedy_coloring_reference(graph: GraphInput) -> np.ndarray:
    """Jones-Plassmann style round-based coloring (the paper's baseline
    is itself approximate; this is the precise execution of that
    algorithm, priorities seeded from the graph seed)."""
    return jones_plassmann(graph.csr(), coloring_priority(graph))[0]
