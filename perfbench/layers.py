"""Per-layer spans for the traced run.

The benchmark records a span around every call into a layer boundary of the
listing pipeline, by swapping each boundary function for a timing wrapper
*at the site where callers look it up* (``repro.listing.triangles.
cliques_in_edge_set``, not only ``repro.graphs.cliques``), and folds in the
engine's own ``compute`` / ``schedule`` / ``deliver`` / ``barrier`` tracer
spans.  The program itself is not changed.

Spans are kept in memory as ``(name, start, end, cell)`` and written out at
the end of the run; each span's parent is the innermost span whose interval
contains it.  A layer's self time is its spans' durations minus the part of
them their child spans cover.

Limits, stated where they matter:

* A boundary that no longer exists (a later change renamed or removed it)
  is reported as ``missing``; the run still completes and still reports
  its end-to-end numbers.
* Spans inside forked shard workers are not visible: the wrappers are
  switched off in a forked child (``os.register_at_fork``), and on
  ``dist-k3-sharded`` the worker side is read only from the engine's
  parent-side ``barrier`` / ``compute`` spans.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_perf = time.perf_counter


@dataclass(frozen=True)
class Boundary:
    """One wrapped lookup site: ``module.qualname`` charged to ``layer``."""

    layer: str
    module: str
    qualname: str


# The boundaries of the per-layer table.  A layer with several sites sums
# over them; its ``.calls`` counts calls made in the benchmark's process.
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("listing.recursion", "repro.listing.recursion", "RecursiveListingDriver.run"),
    Boundary("listing.blueprint", "repro.listing.triangles", "TriangleListing.predict_cluster_cost"),
    Boundary("listing.plan", "repro.listing.distributed", "plan_two_hop_protocol"),
    Boundary("listing.plan", "repro.listing.distributed", "add_edge_learning"),
    Boundary("listing.vertex_step", "repro.listing.distributed", "ListingVertex.on_round"),
    Boundary("listing.local_extract", "repro.listing.distributed", "cliques_through_vertex"),
    Boundary("listing.two_hop_exhaustive", "repro.listing.triangles", "two_hop_exhaustive_listing"),
    Boundary("listing.two_hop_exhaustive", "repro.listing.cliques", "two_hop_exhaustive_listing"),
    Boundary("listing.two_hop_exhaustive", "repro.listing.recursion", "two_hop_exhaustive_listing"),
    Boundary("graphs.clique_kernel", "repro.listing.triangles", "cliques_in_edge_set"),
    Boundary("graphs.clique_kernel", "repro.listing.cliques", "cliques_in_edge_set"),
    Boundary("graphs.clique_kernel", "repro.listing.distributed", "cliques_in_edge_set"),
    Boundary("decomposition.expander_decompose", "repro.listing.recursion", "expander_decompose"),
    Boundary("decomposition.cluster_build", "repro.decomposition.cluster", "K3CompatibleCluster.from_edges"),
    Boundary("decomposition.cluster_build", "repro.decomposition.cluster", "KpCompatibleCluster.from_edges"),
    Boundary("partition_trees.k3_tree", "repro.listing.triangles", "construct_k3_partition_tree"),
    Boundary("partition_trees.split_tree", "repro.listing.cliques", "construct_split_kp_tree"),
    Boundary("streaming.simulate", "repro.partition_trees.construction", "simulate_in_cluster"),
    Boundary("streaming.simulate", "repro.partition_trees.split_tree", "simulate_in_cluster"),
    Boundary("streaming.simulate", "repro.partition_trees.load_balance", "simulate_in_cluster"),
    Boundary("experiments.execute", "repro.experiments.session", "Session.execute"),
)

# Engine tracer span names folded in as ``engine.<name>``; ``broadcast`` (the
# sharded parent's round fan-out) is kept so it is not charged to its parent.
ENGINE_SPANS = ("compute", "schedule", "deliver", "barrier", "broadcast")


class SpanRecorder:
    """Spans kept in compact arrays; a name table maps names to indices."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.cell = array("i")
        self.current_cell = -1
        # Counters measured at the boundaries (edges in, cliques out).
        self.counts: dict[str, int] = {}
        # Off inside forked shard workers, whose memory the parent never sees.
        self.enabled = True

    def name_id(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
        return index

    def add(self, name_id: int, start: float, end: float) -> None:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.cell.append(self.current_cell)

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "cell": np.frombuffer(self.cell, dtype=np.int32).copy(),
        }


def _timed(recorder: SpanRecorder, layer: str, fn: Callable) -> Callable:
    name_id = recorder.name_id(layer)

    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.add(name_id, start, _perf())

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_kernel(recorder: SpanRecorder, layer: str, fn: Callable) -> Callable:
    """The clique-kernel wrapper also counts edges in and cliques out."""
    name_id = recorder.name_id(layer)

    def wrapper(edges, p, *args, **kwargs):
        if not recorder.enabled:
            return fn(edges, p, *args, **kwargs)
        if not hasattr(edges, "__len__"):
            edges = list(edges)
        start = _perf()
        try:
            found = fn(edges, p, *args, **kwargs)
        finally:
            recorder.add(name_id, start, _perf())
        recorder.count(layer + ".edges_in", len(edges))
        recorder.count(layer + ".cliques_out", len(found))
        return found

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(boundary: Boundary) -> tuple[Any, str, Any] | None:
    """``(owner, attribute, raw attribute)`` of a site, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(boundary.module)
    except ImportError:
        return None
    *path, attribute = boundary.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # The raw descriptor (classmethod, function), found along the MRO.
        raw = next(
            (k.__dict__[attribute] for k in owner.__mro__ if attribute in k.__dict__),
            None,
        )
    else:
        raw = getattr(owner, attribute, None)
    if raw is None or not callable(getattr(owner, attribute, None)):
        return None
    return owner, attribute, raw


class Instrumentation:
    """Installs the boundary wrappers for the duration of one traced cell."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.sites: list[tuple[Boundary, tuple[Any, str, Any] | None]] = [
            (boundary, _resolve(boundary)) for boundary in BOUNDARIES
        ]
        self._installed: list[tuple[Any, str, Any]] = []
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.recorder.enabled = False

    def missing_layers(self) -> set[str]:
        """Layers none of whose sites exist any more."""
        present = {b.layer for b, site in self.sites if site is not None}
        return {b.layer for b, _ in self.sites} - present

    def site_status(self) -> dict[str, str]:
        return {
            f"{b.module}.{b.qualname}": ("ok" if site is not None else "missing")
            for b, site in self.sites
        }

    def __enter__(self) -> "Instrumentation":
        for boundary, site in self.sites:
            if site is None:
                continue
            owner, attribute, raw = site
            make = _timed_kernel if boundary.layer == "graphs.clique_kernel" else _timed
            if isinstance(raw, classmethod):
                patched: Any = classmethod(make(self.recorder, boundary.layer, raw.__func__))
            else:
                patched = make(self.recorder, boundary.layer, raw)
            setattr(owner, attribute, patched)
            self._installed.append((owner, attribute, raw))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)


def layer_tracer_class(recorder: SpanRecorder):
    """A ``RecordingTracer`` subclass that also turns engine spans into
    recorder spans.

    Returns ``None`` when the program's tracer API is gone, in which case
    the engine metrics are reported as ``missing``.
    """
    try:
        from repro.obs import RecordingTracer
    except ImportError:
        return None

    ids = {name: recorder.name_id("engine." + name) for name in ENGINE_SPANS}

    class LayerTracer(RecordingTracer):
        """Places each engine span on the benchmark's clock.

        The engine reports a span's length only after it ends.  Its start is
        pinned to the ``round_begin`` call for the round's first span, which
        precedes every vertex step of the round, so the steps nest inside
        ``compute``; later spans of the round start no earlier than the
        previous one ended, so engine spans never overlap one another.
        """

        _cursor = 0.0
        _first = False

        def round_begin(self, round_index, **fields):
            self._cursor = _perf()
            self._first = True
            super().round_begin(round_index, **fields)

        def _record(self, name, seconds):
            end = _perf()
            start = self._cursor if self._first else max(end - seconds, self._cursor)
            self._first = False
            self._cursor = start + seconds
            if recorder.enabled:
                recorder.add(ids[name], start, start + seconds)

        def span_add(self, name, seconds, round_index=None):
            if name in ids:
                self._record(name, seconds)
            super().span_add(name, seconds, round_index)

        def barrier_wait(self, round_index, worker, seconds):
            self._record("barrier", seconds)
            super().barrier_wait(round_index, worker, seconds)

    return LayerTracer


def self_times(spans: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(parent index, self seconds)`` of every span.

    Parents come from interval containment: sweeping spans by start time
    (longest first on ties), a span's parent is the innermost span still
    open when it starts.  Engine spans are placed on the clock after the
    fact (see ``layer_tracer_class``) and can sit a microsecond late; self
    time is clamped at zero so such an edge never reads negative.
    """
    start, end = spans["start"], spans["end"]
    count = len(start)
    parent = np.full(count, -1, dtype=np.int64)
    stack: list[int] = []
    ends = end.tolist()
    starts = start.tolist()
    for i in np.lexsort((-end, start)).tolist():
        s = starts[i]
        while stack and ends[stack[-1]] <= s:
            stack.pop()
        if stack:
            parent[i] = stack[-1]
        stack.append(i)
    duration = end - start
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=count
    )
    return parent, np.maximum(duration - child, 0.0)
