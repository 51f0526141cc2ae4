"""The benchmark's four workloads and the seeded graphs they run on.

A *cell* is one call into a listing entry point on one input graph, timed
from the call to its return.  Every cell of a run gets its own graph, drawn
from ``(workload, seed, cell index)``, so no cache inside the program can
carry work over from one cell to the next.

The generators here are the benchmark's own and deliberately do not call
``repro.graphs.generators``: a later change to the library's samplers must
not change what this benchmark measures.  Each input's edge-set digest is
stored with the results, and the determinism check in ``run.py`` fails a
run whose digest for a given ``(workload, seed, cell)`` ever changes.

This module imports nothing from ``repro`` so that ``run.py`` can read the
workload table without importing the program under test.

Why each workload exists, and which layer it is meant to exercise and to
bypass, is recorded per workload below.  A later change that targets one
layer names a workload that exercises its mechanism and one that bypasses
it; on the second the prediction is no change.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

Edge = tuple[int, int]

# Every run calls the cells of these first graph indices, whatever the host
# speed.  ``rounds_per_cell`` and ``words_per_cell`` are means over exactly
# this set, so each is a function of the code and the seed alone; twelve
# cells also give ``cell_s_tail`` a percentile with 10 cells beyond it.
FIXED_CELLS = 12


@dataclass(frozen=True)
class Family:
    """A seeded random graph family: ``G(n, m)`` plus optional planted cliques.

    ``G(n, m)`` (a fixed edge count) rather than ``G(n, p)`` keeps the cell
    size constant across seeds, which narrows the run-to-run spread.
    """

    n: int
    avg_degree: float
    planted_size: int = 0
    planted_count: int = 0

    def edges(self, rng: random.Random) -> list[Edge]:
        n = self.n
        target = int(round(n * self.avg_degree / 2))
        edges: set[Edge] = set()
        while len(edges) < target:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.add((u, v) if u < v else (v, u))
        for _ in range(self.planted_count):
            members = sorted(rng.sample(range(n), self.planted_size))
            edges.update(itertools.combinations(members, 2))
        return sorted(edges)


@dataclass(frozen=True)
class Workload:
    """One named workload: which entry point a cell calls, on which graphs.

    Attributes:
        entry: ``"distributed"`` calls ``list_triangles_distributed``;
            ``"cost"`` calls ``list_cliques(graph, p)`` (cost model).
        backend: ``"vectorized"`` or ``"sharded"`` (2 forked workers).
        drop_probability: ``LinkDropScenario`` drop rate, or ``None`` for
            the clean synchronous model.
        family: graphs of the timed cells.
        warmup: the smaller graph of the untimed warm-up cell that ends
            set-up (it pays the lazy scipy / networkx imports and first-call
            costs); it lies outside the timed set.
        why: why the workload exists.
        exercises: the layers that do most of its work.
        bypasses: the layers it is meant to leave (almost) untouched.
    """

    name: str
    entry: str
    p: int
    backend: str | None
    drop_probability: float | None
    family: Family
    warmup: Family
    why: str
    exercises: str
    bypasses: str

    def graph_edges(self, seed: int, index: int) -> tuple[int, list[Edge]]:
        """``(n, sorted edges)`` of cell ``index`` (``-1`` is the warm-up)."""
        family = self.warmup if index < 0 else self.family
        # Seeding with a string hashes it with SHA-512: stable across
        # processes and independent of PYTHONHASHSEED.
        rng = random.Random(f"perfbench:{self.name}:{seed}:{index}")
        return family.n, family.edges(rng)


def edge_digest(n: int, edges: list[Edge]) -> str:
    """SHA-256 of the vertex count and the sorted edge list."""
    digest = hashlib.sha256(f"n={n};".encode())
    digest.update(";".join(f"{u},{v}" for u, v in edges).encode())
    return digest.hexdigest()[:16]


_DENSE_150 = Family(n=150, avg_degree=20)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dist-k3-sparse",
            entry="distributed",
            p=3,
            backend="vectorized",
            drop_probability=None,
            family=Family(n=4000, avg_degree=4, planted_size=5, planted_count=160),
            warmup=Family(n=1000, avg_degree=4, planted_size=5, planted_count=40),
            why=(
                "The user-facing triangle-listing cell on sparse planted-K5 "
                "graphs (n=4000, ~10k edges): the recursion does most of the work."
            ),
            exercises=(
                "expander_decompose (~27%) and engine execution (~57%: "
                "ListingVertex steps ~36%, local extraction ~18%)"
            ),
            bypasses=(
                "the scheduler (<=5%), the clique kernel and the partition trees "
                "do little here"
            ),
        ),
        Workload(
            name="dist-k3-lossy",
            entry="distributed",
            p=3,
            backend="vectorized",
            drop_probability=0.1,
            family=_DENSE_150,
            warmup=Family(n=60, avg_degree=20),
            why=(
                "The same engine as dist-k3-sparse with delivery under faults "
                "(LinkDropScenario q=0.1) on dense G(n=150, avg degree 20)."
            ),
            exercises=(
                "scheduling plus transmit-mask kernels (~25%), vertex compute "
                "(~39%), the k3 partition tree (~10%), the clique kernel (~15%)"
            ),
            bypasses=(
                "decomposition (~1%); a scheduler change that helps faulty "
                "traffic but costs clean traffic shows up against dist-k3-sparse"
            ),
        ),
        Workload(
            name="cost-k4-dense",
            entry="cost",
            p=4,
            backend=None,
            drop_probability=None,
            family=Family(n=120, avg_degree=30),
            warmup=Family(n=50, avg_degree=20),
            why=(
                "Cost-model K4 listing on dense G(n=120, avg degree 30): the main "
                "workload for the one-clique-kernel item; no engine runs."
            ),
            exercises=(
                "cliques_in_edge_set (~63%), construct_split_kp_tree (~22%) with "
                "simulate_in_cluster nested inside it"
            ),
            bypasses="the whole engine: every engine change should show no effect",
        ),
        Workload(
            name="dist-k3-sharded",
            entry="distributed",
            p=3,
            backend="sharded",
            drop_probability=None,
            family=_DENSE_150,
            warmup=Family(n=60, avg_degree=20),
            why=(
                "dist-k3-lossy's graphs, clean, on ShardedBackend(num_workers=2): "
                "the only workload that runs engine.sharded / engine.shm."
            ),
            exercises=(
                "fork-per-execution sharded workers, shared-memory transport and "
                "the per-round barrier"
            ),
            bypasses=(
                "link-fault scheduling kernels; vertex steps run in the forked "
                "workers, where the benchmark's spans are not visible"
            ),
        ),
    )
}
