"""Deterministic expander decomposition (Theorem 5 substitute).

The paper uses the Chang–Saranurak deterministic distributed expander
decomposition as a black box: a partition ``E = E_1 ∪ ... ∪ E_x ∪ E_r`` where
the subgraphs ``G[E_i]`` are vertex-disjoint φ-clusters and ``|E_r| <= ε|E|``.
Re-implementing the distributed CS20 construction (cut-matching games with
deterministic derandomisation) is far outside the scope of a Python
reproduction, and the listing layer only depends on the *output object*.  We
therefore provide a deterministic, centralized construction with the same
guarantees, and charge its round cost separately through the cost model
(see :func:`decomposition_round_cost`).

The construction is the classical recursive sparse-cut argument:

1. pick ``φ = ε / (2 ⌈log2 m⌉ + 2)``;
2. on each connected piece, search for a sweep cut (over the Fiedler vector
   of the normalised Laplacian) of conductance below ``φ``;
3. if none exists, the piece is certified as a φ-cluster; otherwise remove
   the cut edges (they join the remainder ``E_r``) and recurse on both sides,
   the cut side first.

Charging every removed edge to an endpoint on the smaller-volume side of its
cut shows each edge is charged ``O(log m)`` times with ``φ`` volume fraction
per level, so ``|E_r| <= ε |E|`` — the same accounting CS20 and its
predecessors use.

The recursion runs on one ``scipy.sparse`` CSR adjacency, built once per
call over the sorted vertex ids; a piece is a sorted array of indices into
it.  Each piece's connected components come from
``scipy.sparse.csgraph.connected_components`` on its slice and are visited
in the order of their first vertex in ``graph.nodes``, as
``nx.connected_components`` yields them, so clusters are numbered in a
fixed order.  Every piece of at least three vertices gets its Fiedler vector
from one ARPACK solve: the two largest eigenpairs of ``2I − L``, started
from the all-ones vector.  The sweep over the Fiedler ordering is
vectorised: prefix boundaries are the running sum of a difference array over
each edge's span of positions, prefix volumes the running sum of the
degrees, and cut edges are found with masks.

The procedure is deterministic: the solver's input, start vector and
restart seed are fixed, and ties between equal Fiedler entries are broken by
vertex identifier.  ARPACK restarts from a random vector when the Krylov
space of the all-ones start closes early, as it does on a regular piece
(there the start is an eigenvector); ``eigsh`` draws that vector from the
generator passed as ``rng`` (SciPy 1.17 or later, as ``setup.py``
requires), so the seed is fixed at 0.  No dense eigensolver runs, so the
output does not depend on the BLAS thread count either
(``tests/test_expander_decomposition.py`` compares one and two threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import networkx as nx
import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
import scipy.sparse.linalg

from repro.congest.cost import CostAccountant
from repro.graphs.cliques import canonical_edge

Edge = tuple[int, int]


@dataclass(frozen=True)
class ExpanderCluster:
    """One φ-cluster of a decomposition.

    Attributes:
        index: position of this cluster in the decomposition.
        vertices: vertex set ``V_i`` of the cluster.
        edges: edge set ``E_i`` (edges of the input graph with both endpoints
            in ``vertices`` that were assigned to this cluster).
        conductance_lower_bound: the certified conductance lower bound
            (no sweep cut below this value exists in the cluster).
    """

    index: int
    vertices: frozenset[int]
    edges: frozenset[Edge]
    conductance_lower_bound: float

    def subgraph(self) -> nx.Graph:
        """The cluster as a standalone graph ``G[E_i]``."""
        graph = nx.Graph()
        graph.add_nodes_from(sorted(self.vertices))
        graph.add_edges_from(sorted(self.edges))
        return graph

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class ExpanderDecomposition:
    """An (ε, φ)-expander decomposition (Definition 4).

    ``E = E_1 ∪ ... ∪ E_x ∪ E_r`` with vertex-disjoint φ-clusters ``G[E_i]``
    and ``|E_r| <= ε |E|`` (the bound holds for the construction in this
    module; :meth:`remainder_fraction` reports the achieved value).
    """

    graph: nx.Graph
    epsilon: float
    phi: float
    clusters: list[ExpanderCluster]
    remainder_edges: set[Edge] = field(default_factory=set)

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def remainder_fraction(self) -> float:
        """``|E_r| / |E|`` actually achieved."""
        m = self.graph.number_of_edges()
        if m == 0:
            return 0.0
        return len(self.remainder_edges) / m

    def cluster_of_vertex(self) -> dict[int, int]:
        """Map vertex -> cluster index (vertices in no cluster are absent)."""
        assignment: dict[int, int] = {}
        for cluster in self.clusters:
            for vertex in cluster.vertices:
                assignment[vertex] = cluster.index
        return assignment

    def covered_edges(self) -> set[Edge]:
        covered: set[Edge] = set()
        for cluster in self.clusters:
            covered.update(cluster.edges)
        return covered

    def validate(self) -> None:
        """Raise ``AssertionError`` if the decomposition object is inconsistent."""
        seen_vertices: set[int] = set()
        for cluster in self.clusters:
            overlap = seen_vertices & cluster.vertices
            assert not overlap, f"clusters share vertices: {sorted(overlap)[:5]}"
            seen_vertices.update(cluster.vertices)
        covered = self.covered_edges()
        all_edges = {canonical_edge(*e) for e in self.graph.edges}
        assert covered | self.remainder_edges == all_edges, "edges lost by decomposition"
        assert not (covered & self.remainder_edges), "edge both covered and in remainder"


# ---------------------------------------------------------------------------
# Sparse-cut search on a CSR adjacency
# ---------------------------------------------------------------------------


def _csr_index(graph: nx.Graph) -> tuple[np.ndarray, scipy.sparse.csr_array, np.ndarray]:
    """``(ids, A, rank)`` of ``graph`` over its sorted vertex ids.

    ``ids[i]`` is the ``i``-th smallest vertex, ``A`` the symmetric 0/1
    adjacency over those indices (a self-loop is one diagonal entry, as in
    networkx's adjacency matrix) and ``rank[i]`` the position of ``ids[i]``
    in ``graph.nodes``.
    """
    nodes = sorted(graph.nodes)
    n = len(nodes)
    position = {vertex: i for i, vertex in enumerate(nodes)}
    rank = np.empty(n, dtype=np.intp)
    rank[[position[vertex] for vertex in graph.nodes]] = np.arange(n)
    ends = np.array(
        [(position[u], position[v]) for u, v in graph.edges], dtype=np.intp
    ).reshape(-1, 2)
    proper = ends[:, 0] != ends[:, 1]
    rows = np.concatenate([ends[:, 0], ends[proper, 1]])
    cols = np.concatenate([ends[:, 1], ends[proper, 0]])
    adjacency = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return np.fromiter(nodes, dtype=object, count=n), adjacency, rank


def _fiedler_vector(adjacency: scipy.sparse.csr_array) -> np.ndarray:
    """The Fiedler vector of the normalised Laplacian ``L`` of ``adjacency``.

    One ARPACK solve for the two largest eigenpairs of ``2I - L`` (the
    spectrum of ``L`` lies in ``[0, 2]``, so these are the two smallest of
    ``L``), started from the all-ones vector; the eigenvector of the smaller
    of the two eigenvalues is the Fiedler vector.  A solve that does not
    converge raises ``ArpackNoConvergence``.
    """
    n = adjacency.shape[0]
    degree = adjacency.sum(axis=1)
    scale = np.zeros(n)
    np.divide(1.0, np.sqrt(degree), out=scale, where=degree > 0)
    root = scipy.sparse.diags_array(scale)
    # D^{-1/2} (D - A) D^{-1/2}, the same float entries as networkx's
    # normalised Laplacian: on symmetric graphs the Fiedler direction the
    # solver settles on is decided by their rounding.
    laplacian = root @ ((scipy.sparse.diags_array(degree) - adjacency) @ root)
    eigenvalues, eigenvectors = scipy.sparse.linalg.eigsh(
        2.0 * scipy.sparse.eye_array(n) - laplacian,
        k=2,
        which="LA",
        v0=np.ones(n) / math.sqrt(n),
        rng=0,
    )
    return eigenvectors[:, int(np.argmin(eigenvalues))]


def _sweep_profile(
    adjacency: scipy.sparse.csr_array, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Boundary and volume of every proper prefix of a vertex ordering.

    Returns ``(boundary, volume, total)``: entry ``k`` of the two arrays
    belongs to the prefix ``order[:k + 1]`` (``k < n - 1``), and ``total`` is
    the volume of the whole graph.  An edge crosses prefix ``k`` exactly when
    ``k`` lies in ``[first, last)`` of its endpoints' positions, so the
    running sum of a difference array over those spans gives every boundary
    at once.  Degrees count a self-loop twice, as networkx does; a loop
    never crosses a cut.
    """
    n = adjacency.shape[0]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    upper = scipy.sparse.triu(adjacency, k=1, format="coo")
    first = np.minimum(position[upper.row], position[upper.col])
    last = np.maximum(position[upper.row], position[upper.col])
    crossing = np.bincount(first, minlength=n) - np.bincount(last, minlength=n)
    degree = np.diff(adjacency.indptr) + adjacency.diagonal().astype(np.intp)
    volume = np.cumsum(degree[order])
    return np.cumsum(crossing)[:-1], volume[:-1], int(volume[-1])


def _first_minimum(boundary: np.ndarray, volume: np.ndarray, total: int) -> tuple[int, float]:
    """``(k, conductance)`` of the first prefix of least conductance.

    Prefixes with an empty side have no conductance; ``(-1, inf)`` when no
    prefix has one.
    """
    denominator = np.minimum(volume, total - volume)
    conductance = np.full(len(boundary), math.inf)
    np.divide(boundary, denominator, out=conductance, where=denominator > 0)
    best = int(np.argmin(conductance))
    value = float(conductance[best])
    return (best, value) if value < math.inf else (-1, math.inf)


def _sweep_cut(adjacency: scipy.sparse.csr_array) -> tuple[np.ndarray | None, float]:
    """Best sweep cut of the Fiedler ordering: (smaller-volume side mask, conductance).

    The ordering sorts vertices by Fiedler entry with ties broken by index,
    which is vertex id order; ``(None, inf)`` when no prefix has a
    conductance.
    """
    n = adjacency.shape[0]
    order = np.arange(n) if n <= 2 else np.argsort(_fiedler_vector(adjacency), kind="stable")
    boundary, volume, total = _sweep_profile(adjacency, order)
    best, value = _first_minimum(boundary, volume, total)
    if best < 0:
        return None, math.inf
    side = np.zeros(n, dtype=bool)
    side[order[: best + 1]] = True
    # Return the smaller-volume side for the charging argument.
    if total - volume[best] < volume[best]:
        side = ~side
    return side, value


def sparsest_sweep_cut(graph: nx.Graph) -> tuple[set[int], float]:
    """Best sweep cut of the Fiedler ordering: (cut vertex set, conductance).

    Returns the side with the smaller volume.  For graphs with fewer than two
    vertices returns an empty cut with infinite conductance.
    """
    if graph.number_of_nodes() < 2 or graph.number_of_edges() == 0:
        return set(), math.inf
    ids, adjacency, _ = _csr_index(graph)
    side, value = _sweep_cut(adjacency)
    if side is None:
        return set(), math.inf
    return set(ids[side].tolist()), value


# ---------------------------------------------------------------------------
# The decomposition itself
# ---------------------------------------------------------------------------


def expander_decompose(
    graph: nx.Graph,
    epsilon: float = 0.15,
    phi: float | None = None,
    min_cluster_size: int = 1,
    accountant: CostAccountant | None = None,
) -> ExpanderDecomposition:
    """Compute a deterministic (ε, φ)-expander decomposition.

    Args:
        graph: input graph (vertices must be hashable and mutually
            comparable; integers expected).
        epsilon: target bound on the remainder fraction ``|E_r| / |E|``.
        phi: conductance threshold.  Defaults to
            ``epsilon / (2 ceil(log2 m) + 2)``, the value for which the
            recursive charging argument bounds the remainder by ``ε|E|``.
        min_cluster_size: pieces with at most this many vertices are accepted
            as clusters without further cutting (their conductance is
            computed exactly for the certificate).
        accountant: optional cost accountant; if given, the CS20 round cost
            of the decomposition is charged to phase ``"expander-decomposition"``.

    Returns:
        An :class:`ExpanderDecomposition` whose clusters are vertex-disjoint
        and certified to contain no sweep cut of conductance below ``phi``.
        Clusters are numbered in the order the recursion accepts them.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    m = graph.number_of_edges()
    if phi is None:
        phi = epsilon / (2 * math.ceil(math.log2(max(2, m))) + 2) if m else epsilon

    clusters: list[ExpanderCluster] = []
    remainder: set[Edge] = set()
    ids, adjacency, rank = _csr_index(graph)

    def edges(idx: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> Iterator[Edge]:
        # idx and ids are sorted, so row <= col gives u <= v: already canonical.
        return zip(ids[idx[rows]].tolist(), ids[idx[cols]].tolist())

    def accept(idx: np.ndarray, piece: scipy.sparse.csr_array, bound: float) -> None:
        upper = scipy.sparse.triu(piece, format="coo")
        clusters.append(
            ExpanderCluster(
                index=len(clusters),
                vertices=frozenset(ids[idx].tolist()),
                edges=frozenset(edges(idx, upper.row, upper.col)),
                conductance_lower_bound=bound,
            )
        )

    def split(idx: np.ndarray, piece: scipy.sparse.csr_array) -> None:
        """Recurse on the connected components of ``piece`` that have edges."""
        if piece.nnz == 0:
            return
        count, labels = scipy.sparse.csgraph.connected_components(piece, directed=False)
        if count == 1:
            cut(idx, piece)
            return
        # Lay the components out as contiguous blocks, each in index order,
        # so that each one is a slice of one permuted copy of the piece.
        order = np.argsort(labels, kind="stable")
        size = np.bincount(labels, minlength=count)
        end = np.cumsum(size)
        start = end - size
        blocks = piece[order][:, order]
        # Visit components in the order of their first vertex in graph.nodes.
        first = np.full(count, len(ids))
        np.minimum.at(first, labels, rank[idx])
        has_edges = np.bincount(labels, weights=np.diff(piece.indptr), minlength=count) > 0
        for component in np.argsort(first):
            if has_edges[component]:
                s, e = start[component], end[component]
                cut(idx[order[s:e]], blocks[s:e, s:e])

    def cut(idx: np.ndarray, piece: scipy.sparse.csr_array) -> None:
        """Certify a connected piece as a cluster, or cut it and recurse."""
        if len(idx) <= max(2, min_cluster_size):
            bound = 1.0 if len(idx) <= 2 else min(1.0, _sweep_cut(piece)[1])
            accept(idx, piece, bound)
            return
        side, value = _sweep_cut(piece)
        if side is None or value >= phi:
            accept(idx, piece, max(phi, min(1.0, value)))
            return
        upper = scipy.sparse.triu(piece, k=1, format="coo")
        crossing = side[upper.row] != side[upper.col]
        remainder.update(edges(idx, upper.row[crossing], upper.col[crossing]))
        split(idx[side], piece[side][:, side])
        split(idx[~side], piece[~side][:, ~side])

    split(np.arange(len(ids)), adjacency)

    decomposition = ExpanderDecomposition(
        graph=graph,
        epsilon=epsilon,
        phi=phi,
        clusters=clusters,
        remainder_edges=remainder,
    )
    if accountant is not None:
        accountant.local_rounds(
            decomposition_round_cost(graph.number_of_nodes(), epsilon),
            phase="expander-decomposition",
        )
    return decomposition


def decomposition_round_cost(n: int, epsilon: float) -> float:
    """CS20 round cost ``poly(1/ε) · 2^{O(sqrt(log n log log n))}`` (Theorem 5).

    This is the number of rounds the deterministic distributed construction
    would take; the listing experiments charge it explicitly so that the
    measured totals reflect the whole pipeline.
    """
    if n < 2:
        return 0.0
    logn = math.log2(n)
    loglogn = math.log2(max(2.0, logn))
    subpoly = 2.0 ** math.sqrt(logn * loglogn)
    return (1.0 / epsilon) * subpoly


# ---------------------------------------------------------------------------
# Recursion schedule (Lemma 8 / Lemma 33 driver)
# ---------------------------------------------------------------------------


def recursive_decomposition_schedule(
    graph: nx.Graph,
    epsilon: float = 0.15,
    max_depth: int | None = None,
) -> Iterator[tuple[int, ExpanderDecomposition, nx.Graph]]:
    """Yield the per-level decompositions of the recursive listing driver.

    Level ``i`` decomposes the graph induced by the edges left over from
    level ``i-1`` (the remainder ``E_r`` plus the edges outside all ``E_i^-``
    sets — here simply the remainder, since the listing layer decides which
    cluster edges to defer).  The iteration stops when no edges remain or the
    depth cap is hit.  Lemma 8 guarantees a logarithmic number of levels when
    the listing layer removes a constant fraction per level; the tests check
    this on workload graphs.
    """
    if max_depth is None:
        max_depth = 2 * math.ceil(math.log2(max(2, graph.number_of_edges() + 1))) + 4
    current = graph
    for depth in range(max_depth):
        if current.number_of_edges() == 0:
            return
        decomposition = expander_decompose(current, epsilon=epsilon)
        yield depth, decomposition, current
        residual = nx.Graph()
        residual.add_nodes_from(current.nodes)
        residual.add_edges_from(decomposition.remainder_edges)
        # Remove isolated vertices to keep recursion cheap.
        residual.remove_nodes_from([v for v in residual.nodes if residual.degree(v) == 0])
        if residual.number_of_edges() >= current.number_of_edges():
            return
        current = residual
