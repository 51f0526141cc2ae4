"""The repository benchmark: deterministic K_p listing on four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dist-k3-sparse --seed 1 --seconds 18 --trace 0

One run starts the workload process (``worker.py``) that imports the
program from ``./src``, sets up, runs an untimed warm-up cell and then times
fresh-graph cells for ``--seconds`` seconds (and at least the first 12 graphs),
checking each against networkx.  Two more set-up-only processes give
``setup_s`` three samples; their median is reported.  Every time is
rescaled to a reference host speed by the probe in ``speed.py``; the raw
wall times are kept in the run record.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics (see ``layers.py``).  The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the run
-- every cell, the set-up samples, host facts, the inputs' edge-set digests
-- goes to ``.perfbench_out/runs/``; ``compare.py`` summarises or diffs
directories of such records.

Determinism check: per-cell rounds, words and input edge-set digests are
kept in ``.perfbench_out/ledger.json`` keyed by a digest of the source tree,
and must be identical in every run of the same code and seed.  A mismatch
fails the run (``correct: false``); it is never averaged away.

``fail_frac`` (failed cells / attempted cells) is the top-level
``failed`` / ``attempted`` pair; the metric list carries ``ok_frac =
1 - fail_frac`` because a metric that reads 0 on every run has no spread
to bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import FIXED_CELLS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_SAMPLES = 3
# Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's files."""
    digest = hashlib.sha256()
    for base in (root / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def host_facts(root: Path) -> dict:
    versions = {}
    for package in ("numpy", "networkx", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
    }


def start_worker(root: Path, args: argparse.Namespace, extra: list[str]) -> dict:
    """Run ``worker.py`` to completion; its last stdout line is its report."""
    remaining = args.deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left in the run budget")
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(time.monotonic()), *extra,
    ]
    # Its own session, so a timeout can stop the forked shard workers too.
    process = subprocess.Popen(
        command, cwd=root, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise TimeoutError(f"workload process exceeded the {RUN_BUDGET_S:.0f} s run budget")
    if process.returncode != 0:
        raise RuntimeError(f"workload process exited with {process.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no report")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with >= 10 cells beyond.

    With ``N`` cells that is the ``(N - 10)``-th smallest.  A run of 10 cells
    or fewer has no such percentile; it reports its slowest cell (p100).
    """
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND  # 1-based rank with 10 cells above it
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(report: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """The end-to-end metric values and the facts stored alongside them."""
    cells = report["cells"]
    timed = [c for c in cells if c["seconds"] is not None]
    failed = sum(1 for c in cells if c["failure"] is not None)
    seconds = [c["seconds"] for c in timed]
    values = {"ok_frac": 1.0 - failed / len(cells)}
    facts: dict = {
        "cells": len(cells),
        "fail_frac": failed / len(cells),
        "setup_samples": setup_samples,
    }
    values["setup_s"] = statistics.median(setup_samples)
    values["peak_rss_mb"] = report["peak_rss_mb"]
    if timed:
        values["edges_per_s"] = sum(c["edges"] for c in timed) / sum(seconds)
        values["cell_s_p50"] = statistics.median(seconds)
        values["cell_s_tail"], facts["tail_percentile"] = tail(seconds)
        # Over the fixed first graphs only: how many more cells fit in the
        # window depends on the host, and must not move these two.
        fixed = [c for c in timed if c["index"] < FIXED_CELLS and not c.get("traced")]
        if fixed:
            values["rounds_per_cell"] = statistics.fmean(c["rounds"] for c in fixed)
            values["words_per_cell"] = statistics.fmean(c["words"] for c in fixed)
        facts["cell_s_quartiles"] = quartiles(seconds)
        facts["cell_wall_s_quartiles"] = quartiles([c["wall_s"] for c in timed])
    return values, facts


def check_determinism(ledger_path: Path, key: str, cells: list[dict]) -> list[str]:
    """Compare this run's per-cell digests and costs with earlier runs.

    Returns the mismatches; new cells are added to the ledger.
    """
    try:
        ledger = json.loads(ledger_path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        ledger = {}
    known = ledger.setdefault(key, {})
    mismatches = []
    for cell in cells:
        if cell["seconds"] is None:
            continue
        entry = [cell["digest"], cell["rounds"], cell["words"]]
        seen = known.setdefault(str(cell["index"]), entry)
        if seen != entry:
            mismatches.append(
                f"cell {cell['index']}: (digest, rounds, words) {entry} != earlier {seen}"
            )
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    scratch = ledger_path.with_suffix(".tmp")
    scratch.write_text(json.dumps(ledger, sort_keys=True))
    os.replace(scratch, ledger_path)
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_BUDGET_S
    # Wall-clock start, so compare.py can tell whether two sets interleaved.
    started_at = time.time()
    root = Path.cwd()

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {root}/src/repro is missing")
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # Only the latest traced run's spans per workload are kept on disk.
        extra += ["--spans", str(OUT_DIR / "spans" / f"{args.workload}.npz")]
    try:
        setup_runs = [
            start_worker(root, args, ["--setup-only"]) for _ in range(SETUP_SAMPLES - 1)
        ]
        report = start_worker(root, args, extra)
    except (TimeoutError, RuntimeError, json.JSONDecodeError) as error:
        return fail(str(error))
    setup_runs.append(report)
    setup_samples = [run["setup_s"] for run in setup_runs]

    host = host_facts(root)
    cells = report["cells"]
    mismatches = check_determinism(
        OUT_DIR / "ledger.json",
        f"{host['source_digest']}/{args.workload}/{args.seed}",
        cells,
    )
    failed = sum(1 for c in cells if c["failure"] is not None)
    values, facts = end_to_end(report, setup_samples)
    facts["setup_wall_samples"] = [run["setup_wall_s"] for run in setup_runs]
    if args.trace:
        values = report["layers"]
        facts["sites"] = report["sites"]
        table = spec["per_layer"]
    else:
        table = spec["end_to_end"]
    metrics = {}
    for metric in table:
        value = values.get(metric["name"])
        entry = {"value": value, "unit": metric["unit"]}
        if value is None:
            entry["status"] = "missing"
        metrics[metric["name"]] = entry

    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(cells),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_at": started_at,
        "why": WORKLOADS[args.workload].why,
        "result": result,
        **facts,
        "determinism_mismatches": mismatches,
        "failures": sorted({c["failure"] for c in cells if c["failure"]}),
        "host": {**host, "repro": report.get("repro_version")},
        "cell_records": cells,
    }
    runs_dir = OUT_DIR / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{name}.json").write_text(json.dumps(record, indent=1))
    for problem in record["failures"] + mismatches:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
