"""Property-based tests (hypothesis) of the core data structures and invariants."""

import math

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.congest.message import words_for_payload
from repro.graphs.cliques import (
    canonical_clique,
    cliques_containing_edge,
    cliques_in_edge_set,
    enumerate_cliques,
    triangles_of_vertex,
)
from repro.listing import list_triangles
from repro.listing.local import cliques_through_vertex
from repro.partition_trees.parts import Partition
from repro.streaming.chains import build_vertex_chain
from repro.streaming.stream import MainToken, Stream


# ---------------------------------------------------------------------------
# Graph strategies
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, max_vertices=14):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edge for edge, keep in zip(possible, mask) if keep)
    return graph


# ---------------------------------------------------------------------------
# Clique enumeration invariants
# ---------------------------------------------------------------------------


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_enumerated_cliques_are_cliques_and_canonical(graph):
    for clique in enumerate_cliques(graph, 3):
        assert clique == canonical_clique(clique)
        assert all(graph.has_edge(u, v) for u in clique for v in clique if u < v)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_triangle_count_matches_networkx(graph):
    assert len(enumerate_cliques(graph, 3)) == sum(nx.triangles(graph).values()) // 3


@given(small_graphs())
@settings(max_examples=30, deadline=None)
def test_k4_is_subset_closed_over_k3(graph):
    """Every K4 contains four K3s, all of which must be enumerated."""
    triangles = enumerate_cliques(graph, 3)
    for clique in enumerate_cliques(graph, 4):
        members = list(clique)
        for skip in range(4):
            sub = tuple(sorted(members[:skip] + members[skip + 1 :]))
            assert sub in triangles


# ---------------------------------------------------------------------------
# The clique kernel against an independent oracle
# ---------------------------------------------------------------------------


def _oracle(graph, p):
    """``K_p`` of ``graph`` by ``networkx.enumerate_all_cliques`` (sizes ascend)."""
    found = set()
    for clique in nx.enumerate_all_cliques(graph):
        if len(clique) > p:
            break
        if len(clique) == p:
            found.add(tuple(sorted(clique)))
    return found


@st.composite
def looped_graphs(draw):
    graph = draw(small_graphs(max_vertices=11))
    n = graph.number_of_nodes()
    graph.add_edges_from((v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return graph


@st.composite
def messy_edge_lists(draw):
    """A graph's edges, each kept, reversed or doubled, plus self-loops, shuffled."""
    graph = draw(looped_graphs())
    edges = []
    for u, v in graph.edges:
        shape = draw(st.sampled_from(["kept", "reversed", "doubled"]))
        edges += {"kept": [(u, v)], "reversed": [(v, u)], "doubled": [(v, u), (u, v)]}[shape]
    return draw(st.permutations(edges))


@given(looped_graphs())
@settings(max_examples=40, deadline=None)
def test_kernel_whole_graph_matches_networkx(graph):
    for p in range(1, 7):
        assert enumerate_cliques(graph, p) == _oracle(graph, p)


@given(messy_edge_lists())
@settings(max_examples=40, deadline=None)
def test_kernel_edge_list_matches_networkx(edges):
    for p in range(1, 7):
        assert cliques_in_edge_set(edges, p) == _oracle(nx.Graph(edges), p)


@given(looped_graphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_through_vertex_matches_networkx(graph, data):
    vertex = data.draw(st.sampled_from(sorted(graph.nodes)))
    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}
    for p in range(1, 7):
        expected = {clique for clique in _oracle(graph, p) if vertex in clique}
        assert cliques_through_vertex(graph.adj, vertex, p) == expected
        assert cliques_through_vertex(adjacency, vertex, p) == expected
    assert triangles_of_vertex(graph, vertex) == {c for c in _oracle(graph, 3) if vertex in c}
    for u in graph.neighbors(vertex):
        if u != vertex:
            expected = {c for c in _oracle(graph, 4) if u in c and vertex in c}
            assert cliques_containing_edge(graph, (u, vertex), 4) == expected


# ---------------------------------------------------------------------------
# The headline invariant: the deterministic listing is exactly correct
# ---------------------------------------------------------------------------


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_triangle_listing_matches_ground_truth(graph):
    result = list_triangles(graph)
    assert result.cliques == enumerate_cliques(graph, 3)


# ---------------------------------------------------------------------------
# Vertex chains
# ---------------------------------------------------------------------------


@given(
    st.sets(st.integers(min_value=0, max_value=500), min_size=1, max_size=60),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_vertex_chain_blocks_partition_the_universe(universe, beta):
    chain = build_vertex_chain(sorted(universe), beta)
    covered = []
    for position in range(1, len(chain) + 1):
        block = chain.block(position)
        assert len(block) <= beta
        covered.extend(block)
    assert sorted(covered) == sorted(universe)
    for vertex in universe:
        owner = chain.responsible_for(vertex)
        assert vertex in chain.block(chain.members.index(owner) + 1)


# ---------------------------------------------------------------------------
# Partitions from boundaries
# ---------------------------------------------------------------------------


@given(
    st.sets(st.integers(min_value=0, max_value=300), min_size=2, max_size=50),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_partition_from_boundaries_always_covers(universe, data):
    ordered = sorted(universe)
    cut_count = data.draw(st.integers(min_value=0, max_value=len(ordered) - 1))
    cuts = sorted(data.draw(
        st.sets(st.integers(min_value=1, max_value=len(ordered) - 1),
                min_size=cut_count, max_size=cut_count)
    )) if len(ordered) > 1 else []
    boundaries = []
    start = 0
    for cut in cuts + [len(ordered)]:
        boundaries.append((ordered[start], ordered[cut - 1]))
        start = cut
    partition = Partition.from_boundaries(ordered, boundaries)
    assert partition.covers_universe()
    for vertex in ordered:
        index = partition.part_containing(vertex)
        assert partition[index].contains(vertex)


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=0, max_size=40))
@settings(max_examples=60, deadline=None)
def test_stream_read_preserves_order_and_counts(values):
    tokens = [MainToken(index=i, owner=i, summary=v) for i, v in enumerate(values)]
    stream = Stream(tokens)
    seen = []
    while True:
        token = stream.read()
        if token is None:
            break
        seen.append(token.summary)
    assert seen == values
    assert stream.log.main_reads == len(values)


# ---------------------------------------------------------------------------
# Message sizing
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(), min_size=0, max_size=50), st.integers(min_value=2, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_payload_words_monotone_in_length(items, n):
    shorter = words_for_payload(tuple(items[: len(items) // 2]), n)
    longer = words_for_payload(tuple(items), n)
    assert longer >= shorter
    assert longer == 1 + len(items)
