"""Summarise one result set, or diff two, workload by workload.

A result set is a directory of run records written by ``run.py``
(``.perfbench_out/runs/`` by default)::

    python3 perfbench/compare.py BASE_DIR            # summary of one set
    python3 perfbench/compare.py BASE_DIR NEW_DIR    # base vs new

For each workload and metric the summary gives the median, the quartiles
and the spread (inter-quartile distance over the median) across runs, with
the host facts, runs and cells per run.  The diff labels each pair with the
bounds of ``BENCHMARK.json``:

* ``improved`` -- the new side wins at least 9 in 10 of the paired runs
  (ties count for neither), the medians differ by more than the base runs'
  inter-quartile distance, and the runs were made in base/new pairs;
* ``unresolved`` -- either side's spread is wider than the metric's bound,
  and not every new run reads better than every base run; or the new side
  would be ``improved`` but the runs were not made in base/new pairs, so
  host drift between the two sets may be what moved it;
* ``worse`` -- the new median is worse than the base median by more than
  the bound (per-layer metrics, which have no bound: the new side loses
  9 in 10 pairs by more than the base inter-quartile distance);
* ``unchanged`` -- otherwise.

Runs pair by seed: the k-th run (in start order) of a seed in the base set
with the k-th run of that seed in the new set, each run used once.  Sets
with no seed in common pair in start order.  A gain only counts when the
runs were made interleaved -- one base and one new run at a time, either
side first (``B N N B B N ...``) -- because a
shared VM's speed drifts over minutes: on a 2-vCPU VM two sets of the same
code taken half an hour apart differed by up to 17.5%.

Every ratio is printed with its base.  The exit code is 1 when any
end-to-end metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
HOST_KEYS = ("nproc", "python", "numpy", "networkx", "scipy", "git_sha", "source_digest")


def load_set(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Run records by ``(workload, trace)``, in start order."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.rglob("*.json")):
        record = json.loads(path.read_text())
        if "workload" in record and "result" in record:
            runs[record["workload"], record["trace"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r.get("started_at") or 0.0, r["seed"]))
    return runs


def value(record: dict, metric: str) -> float | None:
    return record["result"]["metrics"].get(metric, {}).get("value")


def values_of(records: list[dict], metric: str) -> list[float]:
    return [v for v in (value(r, metric) for r in records) if v is not None]


def stats(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3, "runs": len(values),
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


def pair_runs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """``(base, new)`` pairs: the k-th run of a seed on each side, each run once."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in base:
        by_seed[record["seed"]].append(record)
    used: dict[int, int] = defaultdict(int)
    pairs = []
    for record in new:
        seed = record["seed"]
        if used[seed] < len(by_seed[seed]):
            pairs.append((by_seed[seed][used[seed]], record))
            used[seed] += 1
    return pairs or list(zip(base, new))


def interleaved(base: list[dict], new: list[dict]) -> bool:
    """Whether the runs were made in base/new pairs (choosing-metrics §8).

    In start order, each consecutive two runs must be one base and one
    new run, in either order (``B N B N`` and ``B N N B`` both qualify).
    """
    runs = [(r.get("started_at"), "base") for r in base]
    runs += [(r.get("started_at"), "new") for r in new]
    if any(start is None for start, _ in runs) or abs(len(base) - len(new)) > 1:
        return False
    sides = [side for _, side in sorted(runs)]
    return all(a != b for a, b in zip(sides[::2], sides[1::2]))


def label(base: list[dict], new: list[dict], metric: dict) -> dict:
    """The §6.5 / §8 verdict for one metric on one workload."""
    name, bound = metric["name"], metric.get("bound")
    lower = metric["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    b_vals, n_vals = values_of(base, name), values_of(new, name)
    if not b_vals or not n_vals:
        return {"metric": name, "label": "missing"}
    b, n = stats(b_vals), stats(n_vals)
    pairs = [(value(n_run, name), value(b_run, name)) for b_run, n_run in pair_runs(base, new)]
    pairs = [(x, y) for x, y in pairs if x is not None and y is not None]
    alternated = interleaved(base, new)
    wins = sum(better(x, y) for x, y in pairs)
    losses = sum(better(y, x) for x, y in pairs)
    clear = abs(n["median"] - b["median"]) > b["q3"] - b["q1"]
    every_run_better = all(better(x, y) for x in n_vals for y in b_vals)
    worse_by = (
        (n["median"] - b["median"]) if lower else (b["median"] - n["median"])
    ) / abs(b["median"]) if b["median"] else 0.0
    if wins >= 0.9 * len(pairs) and clear and better(n["median"], b["median"]):
        verdict = "improved" if alternated else "unresolved"
    elif bound is not None and max(b["spread"], n["spread"]) > bound and not every_run_better:
        verdict = "unresolved"
    elif bound is not None:
        verdict = "worse" if worse_by > bound else "unchanged"
    elif losses >= 0.9 * len(pairs) and clear and better(b["median"], n["median"]):
        verdict = "worse"
    else:
        verdict = "unchanged"
    ratio = n["median"] / b["median"] if b["median"] else float("nan")
    return {
        "metric": name, "label": verdict, "base": b, "new": n, "bound": bound,
        "ratio": ratio, "pairs": len(pairs), "wins": wins, "losses": losses,
        "interleaved": alternated,
    }


def host_summary(records: list[dict]) -> dict:
    facts: dict = {}
    for key in HOST_KEYS:
        seen = sorted({str(r["host"].get(key)) for r in records})
        facts[key] = seen[0] if len(seen) == 1 else seen
    facts["runs"] = len(records)
    facts["cells_per_run"] = statistics.median(r["cells"] for r in records)
    facts["seconds"] = sorted({r["seconds"] for r in records})
    return facts


def tables(spec: dict) -> dict[int, list[dict]]:
    return {0: spec["end_to_end"], 1: spec["per_layer"]}


def summarise(runs: dict, spec: dict) -> dict:
    out: dict = {}
    for (workload, trace), records in sorted(runs.items()):
        rows = {}
        for metric in tables(spec)[trace]:
            values = values_of(records, metric["name"])
            if values:
                rows[metric["name"]] = {**stats(values), "unit": metric["unit"]}
        out[f"{workload} trace={trace}"] = {"host": host_summary(records), "metrics": rows}
    return out


def diff(base: dict, new: dict, spec: dict) -> dict:
    out: dict = {}
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        out[f"{workload} trace={trace}"] = {
            "base_host": host_summary(base[key]),
            "new_host": host_summary(new[key]),
            "metrics": [label(base[key], new[key], m) for m in tables(spec)[trace]],
        }
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        out[f"{key[0]} trace={key[1]}"] = {"only_in": side}
    return out


def print_summary(summary: dict) -> None:
    for key, block in summary.items():
        print(f"== {key}  {json.dumps(block['host'])}")
        for name, row in block["metrics"].items():
            print(
                f"  {name:40s} median {row['median']:.6g} {row['unit']}"
                f"  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}"
                f"  spread {100 * row['spread']:.1f}%  runs {row['runs']}"
            )


def print_diff(result: dict) -> None:
    for key, block in result.items():
        if "only_in" in block:
            print(f"== {key}: only in the {block['only_in']} set")
            continue
        print(f"== {key}")
        print(f"   base {json.dumps(block['base_host'])}")
        print(f"   new  {json.dumps(block['new_host'])}")
        for row in block["metrics"]:
            if row["label"] == "missing":
                print(f"  {row['metric']:40s} missing")
                continue
            b, n = row["base"], row["new"]
            bound = "-" if row["bound"] is None else f"{100 * row['bound']:.0f}%"
            print(
                f"  {row['metric']:40s} {row['label']:10s}"
                f" new/base = {n['median']:.6g}/{b['median']:.6g} = {row['ratio']:.3f}x of base"
                f"  spread base {100 * b['spread']:.1f}% new {100 * n['spread']:.1f}%"
                f"  bound {bound}  wins {row['wins']}/{row['pairs']}"
                f"  {'interleaved' if row['interleaved'] else 'not interleaved'}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base = load_set(args.base)
    if not base:
        print(f"no run records under {args.base}", file=sys.stderr)
        return 2
    if args.new is None:
        print_summary(summarise(base, spec))
        return 0
    result = diff(base, load_set(args.new), spec)
    print_diff(result)
    worse = any(
        row["label"] == "worse"
        for key, block in result.items() if key.endswith("trace=0")
        for row in block.get("metrics", [])
    )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
