"""The workload process: set-up, timed cells, and the checks on each cell.

Started by ``run.py`` once per run (and once more per extra set-up sample
with ``--setup-only``).  It imports the program from ``./src`` of the
checkout it runs in, builds the workload's session and backend, runs one
untimed warm-up cell, then times cells on fresh seeded graphs for the run's
measuring window.  Each cell is checked after its timer stops:

* the listed cliques must equal ``networkx.enumerate_all_cliques``
  restricted to size ``p`` -- never the program's own enumerators, which
  are layers under test;
* distributed cells must halt within their round cap (``DistributedListingDriver`` raises
  otherwise) and satisfy ``validate_distributed_listing(...).within_predicted``.

With ``--trace 1`` every graph runs twice, untraced and traced in
alternating order, so ``trace.overhead_frac`` compares the two on the same
inputs; the per-layer metrics come from the traced calls.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import layers
import speed
from workloads import FIXED_CELLS, WORKLOADS, Workload, edge_digest

SHARDED_WORKERS = 2
# Rounds one engine execution may take before DistributedListingDriver raises.
# Pinned here so that a change to its default cannot change what a
# cell is allowed; the largest execution on these workloads needs ~1k.
ROUND_CAP = 200_000


class Program:
    """The entry points of the program under test, resolved once."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import networkx
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(root.resolve()):
            raise SystemExit(f"imported repro from {repro.__file__}, not from {root}/src")
        from repro.engine.scenarios import LinkDropScenario
        from repro.engine.sharded import ShardedBackend

        self.nx = networkx
        self.repro = repro
        self.LinkDropScenario = LinkDropScenario
        self.ShardedBackend = ShardedBackend


class Runner:
    """Calls one workload's entry point on a graph."""

    def __init__(self, program: Program, workload: Workload):
        self.program = program
        self.workload = workload
        repro = program.repro
        self.session = repro.Session(name="perfbench")
        if workload.backend == "sharded":
            self.backend = program.ShardedBackend(num_workers=SHARDED_WORKERS)
        else:
            self.backend = workload.backend

    def graph(self, seed: int, index: int):
        n, edges = self.workload.graph_edges(seed, index)
        graph = self.program.nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        return graph, edge_digest(n, edges)

    def call(self, graph, session=None):
        repro = self.program.repro
        w = self.workload
        if w.entry == "cost":
            return repro.list_cliques(graph, w.p)
        scenario = (
            None if w.drop_probability is None
            # A fresh scenario per cell: its per-graph bindings never carry over.
            else self.program.LinkDropScenario(drop_probability=w.drop_probability)
        )
        return repro.list_triangles_distributed(
            graph,
            backend=self.backend,
            scenario=scenario,
            session=session if session is not None else self.session,
            max_rounds_per_execution=ROUND_CAP,
        )

    def cost(self, result) -> tuple[int, int]:
        """``(rounds, words)``: measured on the engine, or charged by the model."""
        if self.workload.entry == "cost":
            return result.rounds, result.metrics.words
        return result.measured_rounds, result.measured_words


def oracle(nx, graph, p: int) -> set[tuple]:
    """Every ``K_p`` of ``graph``, from networkx's clique enumeration."""
    found = set()
    for clique in nx.enumerate_all_cliques(graph):
        if len(clique) > p:
            break
        if len(clique) == p:
            found.add(tuple(sorted(clique)))
    return found


def check(runner: Runner, graph, result, expected: set[tuple]) -> str | None:
    """Why the cell failed, or ``None`` when it is correct."""
    listed = set(result.cliques)
    if listed != expected:
        return (
            f"oracle mismatch: {len(expected - listed)} missing, "
            f"{len(listed - expected)} spurious"
        )
    if runner.workload.entry == "distributed":
        if not all(record.halted for record in result.executions):
            return "an engine execution did not halt"
        report = runner.program.repro.validate_distributed_listing(graph, result)
        if not report.within_predicted:
            return (
                f"measured {report.measured_rounds} rounds > predicted "
                f"{report.predicted_rounds}"
            )
    return None


class Clock:
    """Rescales each timed call to the reference host speed (``speed.py``).

    The probe measured right after one call is the probe before the next.
    """

    def __init__(self) -> None:
        self.probe = speed.SpeedProbe()
        self.last = self.probe.measure()

    def rescale(self, wall: float) -> float:
        after = self.probe.measure()
        seconds = speed.rescale(wall, self.last, after)
        self.last = after
        return seconds


def run_cell(runner: Runner, clock: Clock, graph, expected, trace=None) -> tuple[dict, object]:
    """One checked cell: its record and its result (``None`` if it raised).

    ``trace`` is ``(instrumentation, session)`` for a traced call: the
    boundary wrappers are installed for the call only, never for the checks.
    """
    gc.collect()
    session = None
    if trace is not None:
        instrumentation, session = trace
        instrumentation.__enter__()
    start = time.perf_counter()
    try:
        result = runner.call(graph, session)
    except Exception as error:  # pragma: a failing cell is counted, not fatal
        traceback.print_exc()
        result, failure = None, f"raised {type(error).__name__}: {error}"
    finally:
        end = time.perf_counter()
        if trace is not None:
            instrumentation.__exit__(None, None, None)
            recorder = instrumentation.recorder
            recorder.add(recorder.name_id("cell"), start, end)
    seconds = clock.rescale(end - start)
    if result is None:
        return {"seconds": None, "wall_s": end - start, "failure": failure}, None
    rounds, words = runner.cost(result)
    record = {
        "seconds": seconds,
        "wall_s": end - start,
        "rounds": rounds,
        "words": words,
        "cliques": len(result.cliques),
        "failure": check(runner, graph, result, expected),
    }
    return record, result


class LayerTotals:
    """Result-field and engine-event totals over the traced cells."""

    def __init__(self) -> None:
        self.cells = 0
        self.fields: Counter = Counter()
        self.engine: Counter = Counter()
        self.remainders: list[float] = []
        # Result fields a later version of the program no longer has.
        self.missing: set[str] = set()
        # Traced cell index -> reference-speed seconds / wall seconds.
        self.factors: dict[int, float] = {}

    def speed_factors(self, cells: np.ndarray) -> np.ndarray:
        lookup = np.ones(max(self.factors, default=0) + 1)
        for index, factor in self.factors.items():
            lookup[index] = factor
        return lookup[cells]

    def add_result(self, runner: Runner, result, index: int, record: dict) -> None:
        self.cells += 1
        self.factors[index] = record["seconds"] / record["wall_s"]
        probes = {
            "levels": lambda: result.levels,
            "clusters": lambda: sum(r.clusters for r in result.level_reports),
            "fallback_edges": lambda: result.fallback_edges,
            "reports": lambda: result.reports,
            "distinct": lambda: len(result.cliques),
            "remainder_fraction": lambda: [r.remainder_fraction for r in result.level_reports],
        }
        if runner.workload.entry == "distributed":
            probes["measured_rounds"] = lambda: result.measured_rounds
            probes["predicted_rounds"] = lambda: result.predicted_rounds
        for key, probe in probes.items():
            try:
                value = probe()
            except AttributeError:
                self.missing.add(key)
                continue
            if key == "remainder_fraction":
                self.remainders.extend(value)
            else:
                self.fields[key] += value

    def add_events(self, tracer) -> None:
        engine = self.engine
        for event in tracer.events:
            kind = event["kind"]
            if kind == "round_end":
                engine["rounds"] += 1
                engine["messages"] += event.get("delivered", 0)
                engine["words"] += event.get("words", 0)
                engine["dropped"] += event.get("dropped", 0)
            elif kind == "scheduler":
                engine["transfers"] += event.get("transfers", 0)
                engine["deferred"] += event.get("deferred", 0)
                engine["window_cols"] += event.get("window_cols", 0)
                engine["kernel_batches"] += event.get("path") == "kernel"
            elif kind == "scheduled":
                engine["transfers"] += event.get("count", 0)
                engine["deferred"] += event.get("deferred", 0)
            elif kind == "shm_overflow":
                engine["shm_overflow"] += 1


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: layers.SpanRecorder,
    instrumentation: layers.Instrumentation,
    totals: LayerTotals,
    engine_traced: bool,
    overhead: float,
) -> dict[str, float | None]:
    """Every per-layer metric by name; ``None`` marks a missing boundary.

    Self times are rescaled to the reference host speed with their cell's
    factor, like the end-to-end times.
    """
    spans = recorder.arrays()
    _, self_s = layers.self_times(spans)
    self_s = self_s * totals.speed_factors(spans["cell"])
    missing = instrumentation.missing_layers()
    engine_layers = {"engine." + name for name in layers.ENGINE_SPANS}
    if not engine_traced:
        missing |= engine_layers
    metrics: dict[str, float | None] = {}
    for layer in {b.layer for b in layers.BOUNDARIES} | engine_layers:
        if layer in missing:
            seconds = calls = None
        elif layer in recorder.names:
            mask = spans["name"] == recorder.names.index(layer)
            seconds, calls = float(self_s[mask].sum()), int(mask.sum())
        else:  # the boundary exists but never ran on this workload
            seconds, calls = 0.0, 0
        # Every layer time is self time; ``.s`` and ``.self_s`` name one value.
        metrics[layer + ".s"] = metrics[layer + ".self_s"] = seconds
        metrics[layer + ".calls"] = calls
    kernel_missing = "graphs.clique_kernel" in missing
    for key in ("edges_in", "cliques_out"):
        name = "graphs.clique_kernel." + key
        metrics[name] = None if kernel_missing else recorder.counts.get(name, 0)

    fields = totals.fields
    cells = max(1, totals.cells)

    def field(metric: str, needs: tuple[str, ...], value) -> None:
        metrics[metric] = None if set(needs) & totals.missing else value()

    field("listing.levels", ("levels",), lambda: fields["levels"] / cells)
    field("listing.clusters", ("clusters",), lambda: fields["clusters"] / cells)
    field("listing.fallback_edges", ("fallback_edges",), lambda: fields["fallback_edges"] / cells)
    field(
        "listing.duplication", ("reports", "distinct"),
        lambda: _ratio(fields["reports"], fields["distinct"]),
    )
    field(
        "listing.rounds_over_predicted", ("measured_rounds", "predicted_rounds"),
        lambda: _ratio(fields["measured_rounds"], fields["predicted_rounds"]),
    )
    field(
        "decomposition.remainder_fraction", ("remainder_fraction",),
        lambda: statistics.fmean(totals.remainders) if totals.remainders else 0.0,
    )

    engine = totals.engine
    engine_values = {
        "engine.rounds": engine["rounds"],
        "engine.messages": engine["messages"],
        "engine.words": engine["words"],
        "engine.dropped": engine["dropped"],
        "engine.delivery_yield": _ratio(
            engine["messages"], engine["messages"] + engine["dropped"]
        ),
        "engine.deferred_frac": _ratio(engine["deferred"], engine["transfers"]),
        "engine.scheduler.kernel_batches": engine["kernel_batches"],
        "engine.scheduler.window_cols": engine["window_cols"],
        "engine.shm_overflow": engine["shm_overflow"],
    }
    for name, value in engine_values.items():
        metrics[name] = value if engine_traced else None
    metrics["trace.overhead_frac"] = overhead
    return metrics


def peak_rss_mb(workload: Workload) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload.backend == "sharded":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--t0", type=float, required=True,
        help="time.monotonic() at which the parent started this process",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here (.npz)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    program = Program(Path.cwd())
    runner = Runner(program, workload)
    warmup, _ = runner.graph(args.seed, -1)
    runner.call(warmup)
    setup_wall_s = time.monotonic() - args.t0
    clock = Clock()
    setup = {
        "setup_s": setup_wall_s * speed.REFERENCE_S / clock.last,
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    instrumentation = recorder = tracer_class = None
    totals = LayerTotals()
    if args.trace:
        recorder = layers.SpanRecorder()
        instrumentation = layers.Instrumentation(recorder)
        tracer_class = layers.layer_tracer_class(recorder)

    cells: list[dict] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    window_start = time.monotonic()
    index = 0
    while index < FIXED_CELLS or time.monotonic() - window_start < args.seconds:
        graph, digest = runner.graph(args.seed, index)
        expected = oracle(program.nx, graph, workload.p)
        base = {"index": index, "edges": graph.number_of_edges(), "digest": digest}
        # A traced run calls each graph untraced and traced; alternating the
        # order keeps either side from always inheriting the other's caches.
        if not args.trace:
            modes: tuple[bool, ...] = (False,)
        else:
            modes = (False, True) if index % 2 == 0 else (True, False)
        for traced in modes:
            trace = tracer = None
            if traced:
                recorder.current_cell = index
                session = None
                if tracer_class is not None:
                    tracer = tracer_class(record_messages=False)
                    session = program.repro.Session(name="perfbench-traced", tracer=tracer)
                trace = (instrumentation, session)
            record, result = run_cell(runner, clock, graph, expected, trace)
            cells.append({**base, **record, "traced": traced})
            if result is None:
                continue
            (traced_s if traced else untraced_s).append(record["seconds"])
            if traced:
                totals.add_result(runner, result, index, record)
                if tracer is not None:
                    totals.add_events(tracer)
        index += 1

    report: dict = {
        **setup,
        "peak_rss_mb": peak_rss_mb(workload),
        "cells": cells,
        "repro_version": getattr(program.repro, "__version__", None),
    }
    if args.trace:
        overhead = (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
            if traced_s and untraced_s else 0.0
        )
        report["layers"] = layer_metrics(
            recorder, instrumentation, totals, tracer_class is not None, overhead
        )
        report["sites"] = instrumentation.site_status()
        if args.spans is not None:
            write_spans(args.spans, recorder)
    print(json.dumps(report))
    return 0


def write_spans(path: Path, recorder: layers.SpanRecorder) -> None:
    """Every span: name, start, end, parent span index and cell id."""
    spans = recorder.arrays()
    parent, self_s = layers.self_times(spans)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        names=np.array(recorder.names),
        parent=parent,
        self_s=self_s,
        **spans,
    )


if __name__ == "__main__":
    sys.exit(main())
