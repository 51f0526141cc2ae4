"""The clique kernel: every ``K_p`` enumeration in the package runs here.

The final step of Lemmas 34, 35 and 37 is local work: a vertex that has
learned an edge set (or its induced neighbourhood) lists the ``K_p`` in it.
The cost-model listings, the distributed lister, the baselines and the
ground truth of :func:`repro.listing.validation.validate_listing` all do
that step through one ID-ordered forward kernel over adjacency sets:

* every vertex keeps only its *higher* neighbours (``u > v``), so a
  self-loop never takes part in a clique;
* a clique is emitted once, from its smallest vertex: a prefix is extended
  with a candidate ``x`` and the candidates narrow to
  ``candidates & higher[x]``.  Every candidate is larger than every prefix
  vertex, so each clique comes out as a sorted tuple with no sort and no
  ``<= last`` filter, and no candidate is ever revisited.

The kernel reads either an explicit edge set or a ``{vertex: neighbours}``
mapping: ``graph.adj`` itself (no copy) or a dict of sets.  The mapping must
be symmetric, as ``graph.adj`` is.  Its two entry shapes are every ``K_p`` of
a graph or edge set (:func:`enumerate_cliques`, :func:`cliques_in_edge_set`)
and every ``K_p`` through one vertex (:func:`cliques_through_vertex`).

Independence of the oracle: :func:`enumerate_cliques` is the truth
``validate_listing`` checks the listing algorithms against, although the
algorithms' local step uses the same kernel.  ``networkx.
enumerate_all_cliques`` would be independent but is far too slow for that
role: about 45 s against 0.5 s for the 673,534 triangles of
``erdos_renyi(400, 160.0, seed=1)`` on a 2-core host.  The kernel's own
independent check is the differential test in ``tests/test_property_based.py``,
which compares every entry point with ``networkx.enumerate_all_cliques`` on
random graphs, on messy edge lists and through single vertices.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

import networkx as nx

Clique = tuple[int, ...]
Edge = tuple[int, int]
Adjacency = Mapping[Hashable, Iterable[Hashable]]


def canonical_edge(u: int, v: int) -> Edge:
    """Canonical (sorted pair) representation of an undirected edge."""
    return (u, v) if u <= v else (v, u)


def canonical_clique(vertices: Iterable[int]) -> Clique:
    """Canonical (sorted tuple) representation of a clique instance."""
    return tuple(sorted(vertices))


def _extend(higher: dict, prefix: Clique, candidates: set, depth: int, out: set) -> None:
    """Add ``prefix + c`` to ``out`` for every ``depth``-clique ``c`` of ``candidates``."""
    if depth == 1:
        out.update([prefix + (x,) for x in candidates])
        return
    for x in candidates:
        narrowed = candidates & higher[x]
        if len(narrowed) >= depth - 1:
            _extend(higher, prefix + (x,), narrowed, depth - 1, out)


def _forward(higher: dict, p: int) -> set[Clique]:
    """Every ``K_p`` of the higher-neighbour sets ``higher``."""
    if p < 1:
        raise ValueError("clique size must be positive")
    if p == 1:
        return {(v,) for v in higher}
    out: set[Clique] = set()
    for v, above in higher.items():
        if len(above) >= p - 1:
            _extend(higher, (v,), above, p - 1, out)
    return out


def enumerate_cliques(graph: nx.Graph, p: int) -> set[Clique]:
    """All instances of ``K_p`` in ``graph`` as canonical tuples.

    Args:
        graph: undirected graph; self-loops are ignored.
        p: clique size, ``p >= 1``.

    Returns:
        The set of all ``p``-vertex cliques, each as a sorted tuple
        (isolated vertices included for ``p == 1``).
    """
    higher = {v: {u for u in nbrs if u > v} for v, nbrs in graph.adj.items()}
    return _forward(higher, p)


def count_cliques(graph: nx.Graph, p: int) -> int:
    """Number of ``K_p`` instances in ``graph``."""
    return len(enumerate_cliques(graph, p))


def cliques_in_edge_set(edges: Iterable[tuple[int, int]], p: int) -> set[Clique]:
    """All ``K_p`` formed by a (small) explicit edge set.

    This is the local computation a vertex performs after *learning* a set of
    edges (the final step of Lemmas 34 and 37, and of the distributed
    edge-learning protocol): every ``p``-subset of endpoints whose
    ``p(p-1)/2`` edges are all present in the set is a clique instance.
    Edges may come in either orientation and more than once.
    """
    higher: dict = {}
    for u, v in edges:
        if v < u:
            u, v = v, u
        above = higher.get(u)
        if above is None:
            above = higher[u] = set()
        if v not in higher:
            higher[v] = set()
        if u != v:
            above.add(v)
    return _forward(higher, p)


def cliques_through_vertex(adjacency: Adjacency, vertex: Hashable, p: int) -> set[Clique]:
    """All ``K_p`` containing ``vertex`` (local computation).

    This is exactly what a vertex can compute after learning its induced
    neighbourhood: every clique through ``v`` is ``v`` plus a ``(p-1)``-clique
    among its neighbours.  ``adjacency`` is ``graph.adj``, an ``nx.Graph``,
    or a ``{vertex: neighbours}`` dict that covers ``vertex`` and its
    neighbours.
    """
    if p < 1:
        return set()
    if p == 1:
        return {(vertex,)}
    neighbors = set(adjacency[vertex])
    neighbors.discard(vertex)
    higher = {x: {u for u in neighbors.intersection(adjacency[x]) if u > x} for x in neighbors}
    return {canonical_clique((vertex,) + rest) for rest in _forward(higher, p - 1)}


def cliques_containing_edge(graph: nx.Graph, edge: tuple[int, int], p: int) -> set[Clique]:
    """All ``K_p`` instances that contain the given edge."""
    u, v = edge
    if u == v or not graph.has_edge(u, v):
        return set()
    return {clique for clique in cliques_through_vertex(graph.adj, u, p) if v in clique}


def triangles_of_vertex(graph: nx.Graph, vertex: int) -> set[Clique]:
    """All triangles containing ``vertex`` (used by the local-search baseline)."""
    return cliques_through_vertex(graph.adj, vertex, 3)
