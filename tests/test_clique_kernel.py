"""Tests of the clique kernel (``repro.graphs.cliques``) and its callers.

The differential test against ``networkx.enumerate_all_cliques`` lives in
``test_property_based.py``; this module pins the kernel's contract and the
self-loop regression on every listing entry point that reaches it.
"""

import networkx as nx
import pytest

from repro import list_triangles_distributed, validate_listing
from repro.baselines import cs20_triangle_listing, naive_listing
from repro.baselines.naive import neighborhood_exchange_listing
from repro.graphs.cliques import (
    cliques_containing_edge,
    cliques_in_edge_set,
    enumerate_cliques,
    triangles_of_vertex,
)
from repro.listing.local import cliques_through_vertex, two_hop_exhaustive_listing

K4_TRIANGLES = {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}


@pytest.fixture
def k4_with_self_loop():
    """``K_4`` plus the self-loop ``(2, 2)``: its triangles are those of ``K_4``."""
    graph = nx.complete_graph(4)
    graph.add_edge(2, 2)
    return graph


class TestSelfLoopsMakeNoCliques:
    def test_naive_listing(self, k4_with_self_loop):
        result = naive_listing(k4_with_self_loop, p=3)
        assert result.cliques == K4_TRIANGLES
        assert validate_listing(k4_with_self_loop, result).correct

    def test_cliques_through_vertex(self, k4_with_self_loop):
        expected = {c for c in K4_TRIANGLES if 2 in c}
        assert cliques_through_vertex(k4_with_self_loop, 2, 3) == expected
        assert cliques_through_vertex(k4_with_self_loop.adj, 2, 3) == expected
        assert cliques_through_vertex(k4_with_self_loop, 2, 2) == {(0, 2), (1, 2), (2, 3)}

    def test_two_hop_exhaustive_listing(self, k4_with_self_loop):
        outcome = two_hop_exhaustive_listing(k4_with_self_loop, k4_with_self_loop.nodes, p=3)
        assert outcome.cliques == K4_TRIANGLES

    def test_cliques_containing_edge(self, k4_with_self_loop):
        assert cliques_containing_edge(k4_with_self_loop, (1, 2), 3) == {(0, 1, 2), (1, 2, 3)}
        assert cliques_containing_edge(k4_with_self_loop, (2, 2), 3) == set()
        assert cliques_containing_edge(k4_with_self_loop, (2, 2), 2) == set()

    def test_triangles_of_vertex(self, k4_with_self_loop):
        assert triangles_of_vertex(k4_with_self_loop, 2) == {c for c in K4_TRIANGLES if 2 in c}

    def test_enumerate_cliques_and_edge_sets(self, k4_with_self_loop):
        assert enumerate_cliques(k4_with_self_loop, 3) == K4_TRIANGLES
        assert (2, 2) not in enumerate_cliques(k4_with_self_loop, 2)
        assert cliques_in_edge_set(list(k4_with_self_loop.edges), 3) == K4_TRIANGLES
        assert cliques_in_edge_set([(2, 2)], 1) == {(2,)}
        assert cliques_in_edge_set([(2, 2)], 2) == set()

    def test_engine_executed_listings(self, k4_with_self_loop):
        assert neighborhood_exchange_listing(k4_with_self_loop).cliques == K4_TRIANGLES
        assert list_triangles_distributed(k4_with_self_loop).cliques == K4_TRIANGLES

    def test_cs20_baseline(self, k4_with_self_loop):
        assert cs20_triangle_listing(k4_with_self_loop).cliques == K4_TRIANGLES


class TestKernelContract:
    def test_isolated_vertices_are_one_cliques(self):
        graph = nx.Graph([(0, 1)])
        graph.add_node(7)
        assert enumerate_cliques(graph, 1) == {(0,), (1,), (7,)}
        assert enumerate_cliques(graph, 3) == set()

    def test_cliques_are_sorted_tuples_from_any_edge_orientation(self):
        edges = [(3, 1), (1, 2), (2, 3), (3, 2), (0, 3), (1, 0), (0, 2)]
        assert cliques_in_edge_set(edges, 4) == {(0, 1, 2, 3)}
        assert cliques_in_edge_set(iter(edges), 3) == {
            (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)
        }
        assert cliques_in_edge_set([], 3) == set()

    def test_string_labels(self):
        graph = nx.Graph([("alice", "bob"), ("bob", "carol"), ("carol", "alice"), ("carol", "dave")])
        assert enumerate_cliques(graph, 3) == {("alice", "bob", "carol")}
        assert cliques_through_vertex(graph, "dave", 2) == {("carol", "dave")}
