"""Deterministic triangle listing in ``n^{1/3+o(1)}`` rounds (Theorem 32).

The outer recursion (Lemma 33) is provided by
:class:`~repro.listing.recursion.RecursiveListingDriver`; this module supplies
the per-cluster work of Lemma 34:

* vertices whose communication degree is below ``δ = K^{1/3}`` learn their
  induced 2-hop neighbourhood by exhaustive search (Lemma 35) and report all
  triangles through them;
* the remaining high-degree vertices ``V_C^-`` build a K3-partition tree of
  ``C[V_C^-]`` (Theorem 16); each ``V_C^*`` vertex then learns, for every
  leaf part assigned to it, the edges running between the part's ancestor
  parts and reports the triangles it sees.  Theorem 13 guarantees that every
  triangle with all three vertices in ``V_C^-`` is caught by some leaf part.

The module also holds :class:`ClusterBlueprint`, the cluster work division
that Lemma 34 here and Lemma 37 (:mod:`repro.listing.cliques`) share: both
finish a cluster with exhaustive listers plus leaf owners that learn their
ancestor-part edges, so the leaf-owner edge loop, the cost charging and the
central extraction are written once, for both listings and for the
distributed driver (:mod:`repro.listing.distributed`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import networkx as nx

from repro.congest.cost import CostAccountant, RoutingOverhead
from repro.decomposition.cluster import CommunicationCluster, K3CompatibleCluster
from repro.decomposition.routing import ClusterRouter
from repro.graphs.cliques import Clique, cliques_in_edge_set
from repro.listing.local import charge_exhaustive_pass, two_hop_exhaustive_listing
from repro.listing.recursion import ClusterTask, ListingResult, RecursiveListingDriver
from repro.partition_trees.construction import K3TreeResult, construct_k3_partition_tree
from repro.partition_trees.split_tree import SplitTreeResult
from repro.partition_trees.tree import HTreeConstraints

Edge = tuple[int, int]

_NO_NEIGHBOURS: frozenset[int] = frozenset()


@dataclass
class ClusterBlueprint:
    """The cluster work division of Lemmas 34 and 37, execution-agnostic.

    The blueprint separates *what* a cluster computes from *how* it is
    executed: the cost-model handlers charge its communication
    (:meth:`charge`) and extract the cliques centrally (:meth:`cliques`),
    while the distributed driver (:mod:`repro.listing.distributed`)
    compiles the same blueprint into a per-vertex message protocol and
    runs it on the execution engine.

    Attributes:
        p: clique size.
        cluster: the communication cluster over the working edge set.
        working: the graph the exhaustive listers list in (the cluster's
            working graph for triangles, ``G`` itself for Lemma 41).
        prefix: metric phase prefix of the cluster.
        low_degree: vertices below the degree threshold — handled by the
            exhaustive 2-hop pass of Lemma 35.
        alpha: degree bound used for the exhaustive pass round cost.
        tiny_core: ``V_C^-`` members when there are too few of them for a
            partition tree (exhausted directly instead).
        owner_edges: for every leaf-part owner, the ancestor-part edges it
            must learn, over all partition trees of the cluster.
        deliveries: one ``(phase, load_per_degree, words)`` Theorem 6
            edge delivery per partition tree; ``words`` counts learned
            edges per leaf, before per-owner deduplication.
    """

    p: int
    cluster: CommunicationCluster
    working: nx.Graph
    prefix: str
    low_degree: list[int] = field(default_factory=list)
    alpha: int = 1
    tiny_core: list[int] = field(default_factory=list)
    owner_edges: dict[int, set[Edge]] = field(default_factory=dict)
    deliveries: list[tuple[str, float, int]] = field(default_factory=list)

    @property
    def listers(self) -> list[int]:
        """Vertices that run the exhaustive 2-hop pass."""
        return self.low_degree + self.tiny_core

    def learn_leaf_edges(
        self,
        result: K3TreeResult | SplitTreeResult,
        adjacency: dict[int, set[int]],
        phase: str,
    ) -> None:
        """Each leaf owner learns the edges between its leaf's ancestor parts.

        ``adjacency`` maps the tree's vertices to their neighbour sets.
        Appends the tree's edge delivery: every edge travels
        ``O(k^{1/p})`` times on the send side and each owner receives its
        learned edges, so the Theorem 6 load per degree is the larger of
        the two.
        """
        if result.violations:
            raise AssertionError(
                f"{phase}: partition tree violates its definition: "
                + "; ".join(result.violations[:3])
            )
        tree = result.tree
        # One tuple per edge for all its owners: owner sets live as long
        # as the blueprint, across every tree of the cluster.
        shared: dict[Edge, Edge] = {}
        received: dict[int, int] = {}
        for (path, part_index), owner in result.assignment.owner.items():
            ancestors = [
                set(part.vertices())
                for part in tree.ancestor_parts(tree.node_at(path), part_index)
            ]
            learned: set[Edge] = set()
            for left, right in itertools.combinations(ancestors, 2):
                for u in left:
                    for w in adjacency.get(u, _NO_NEIGHBOURS) & right:
                        edge = (u, w) if u <= w else (w, u)
                        learned.add(shared.setdefault(edge, edge))
            received[owner] = received.get(owner, 0) + len(learned)
            self.owner_edges.setdefault(owner, set()).update(learned)
        load_per_degree = max(1.0, self.cluster.k ** (1.0 / self.p))
        for owner, words in received.items():
            degree = max(1, self.cluster.communication_degree(owner))
            load_per_degree = max(load_per_degree, words / degree)
        self.deliveries.append((phase, load_per_degree, sum(received.values())))

    def charge(self, accountant: CostAccountant) -> None:
        """Charge the exhaustive passes (Lemma 35) and the edge deliveries.

        Tree construction and any edge import were charged while the
        blueprint was built.
        """
        if self.low_degree:
            charge_exhaustive_pass(
                self.working, self.low_degree, self.alpha,
                accountant, phase=f"{self.prefix}:low-degree",
            )
        if self.tiny_core:
            tiny_alpha = max(self.working.degree(v) for v in self.tiny_core)
            charge_exhaustive_pass(
                self.working, self.tiny_core, tiny_alpha,
                accountant, phase=f"{self.prefix}:tiny-core",
            )
        router = ClusterRouter(
            cluster=self.cluster, accountant=accountant, phase_prefix=self.prefix
        )
        for phase, load_per_degree, words in self.deliveries:
            router.route_proportional(
                load_per_degree=load_per_degree, total_words=words, phase=phase
            )

    def cliques(self) -> set[Clique]:
        """Centrally extract the cliques the cluster reports.

        Listers report every clique through themselves in their 2-hop view
        of ``working`` (Lemma 35); each owner reports the cliques among the
        ancestor-part edges it learned.  This is exactly what the
        per-vertex outputs of the distributed protocol union to, which is
        what makes the two modes output-equivalent.
        """
        found = two_hop_exhaustive_listing(self.working, self.listers, p=self.p).cliques
        for edges in self.owner_edges.values():
            found |= cliques_in_edge_set(edges, self.p)
        return found


@dataclass
class TriangleListing:
    """Theorem 32: deterministic CONGEST triangle listing.

    Attributes:
        epsilon: expander-decomposition remainder parameter (the proof of
            Lemma 38 fixes 1/18; any constant below ~1/4 keeps the recursion
            logarithmic).
        overhead: routing-overhead model for the ``n^{o(1)}`` factor.
        check_tree_constraints: validate every constructed partition tree
            against Definition 14 (slower; used by the test-suite).
    """

    epsilon: float = 1.0 / 18.0
    overhead: RoutingOverhead | None = None
    max_levels: int | None = None
    check_tree_constraints: bool = False

    def run(self, graph: nx.Graph) -> ListingResult:
        """List every triangle of ``graph``; see :class:`ListingResult`."""
        driver = RecursiveListingDriver(
            p=3, epsilon=self.epsilon, overhead=self.overhead, max_levels=self.max_levels
        )
        return driver.run(graph, self._handle_cluster)

    # -- Lemma 34: the cluster blueprint (shared with the distributed driver) --

    def blueprint_cluster(self, task: ClusterTask, accountant: CostAccountant) -> ClusterBlueprint:
        """Compute the Lemma 34 work division for one cluster.

        The partition-tree construction (Theorem 16, via the Theorem 11
        streaming simulation) is performed here and its round cost is
        charged to ``accountant``; the returned blueprint records which
        vertices run the exhaustive pass and which edges each ``V_C^*``
        owner must learn.
        """
        working = task.working_graph()
        cluster = K3CompatibleCluster.from_edges(task.graph, task.working_edges)
        blueprint = ClusterBlueprint(
            p=3,
            cluster=cluster,
            working=working,
            prefix=task.prefix,
            low_degree=[v for v in working.nodes if working.degree(v) < cluster.delta],
            alpha=max(1, math.ceil(cluster.delta)),
        )
        members = cluster.ordered_members()
        if len(members) >= 3:
            router = ClusterRouter(
                cluster=cluster, accountant=accountant, phase_prefix=task.prefix
            )
            result = construct_k3_partition_tree(
                cluster, router=router,
                constraints=HTreeConstraints(p=3),
                check_constraints=self.check_tree_constraints,
            )
            adjacency = {v: set(working.adj[v]) for v in members}
            blueprint.learn_leaf_edges(result, adjacency, "lemma34-edge-learning")
        elif members:
            blueprint.tiny_core = members
        return blueprint

    def predict_cluster_cost(
        self, task: ClusterTask
    ) -> tuple[ClusterBlueprint, CostAccountant]:
        """Blueprint plus the cost model's round prediction for the cluster.

        Used by the distributed driver as the cross-check baseline: the
        prediction accounts the full Lemma 34 pipeline (tree construction,
        exhaustive passes, Theorem 6 edge delivery) the way the cost-model
        execution mode would.
        """
        accountant = CostAccountant(n=task.graph.number_of_nodes(), overhead=self.overhead)
        blueprint = self.blueprint_cluster(task, accountant)
        blueprint.charge(accountant)
        return blueprint, accountant

    def _handle_cluster(self, task: ClusterTask) -> set[Clique]:
        blueprint = self.blueprint_cluster(task, task.accountant)
        blueprint.charge(task.accountant)
        return blueprint.cliques()


def list_triangles(graph: nx.Graph, **kwargs) -> ListingResult:
    """Convenience wrapper: run :class:`TriangleListing` with keyword options."""
    return TriangleListing(**kwargs).run(graph)
