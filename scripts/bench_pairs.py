#!/usr/bin/env python3
"""Run the benchmark in two checkouts in alternating pairs and judge a
performance claim.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

PARENT and CHANGE are checkouts of this repository.  Each pair runs
`ROOT/perfbench/run.py --workload W --seed S --seconds T` once in each
checkout, one run at a time, with T the `run_seconds` of this
checkout's `BENCHMARK.json`; the first pair starts with PARENT, the
next with CHANGE, and so on.  For every end-to-end metric that this
checkout's `BENCHMARK.json` lists, the script prints both sides' median
and quartiles, the change's relative difference, and in how many pairs
the change was strictly better under the metric's `better` direction.
It then says whether a claimed gain on that metric would hold: the change
wins at least 9 of every 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range.  Quartiles are
`statistics.quantiles(..., n=4)` (the exclusive method); with one run
per side they equal the run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run in the checkout at root: its end-to-end metric
    values, from the JSON on the last line of its standard output."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: the run's outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired runs of one metric; `better` is "lower" or "higher".

    `wins` counts the pairs where the change is strictly better; `holds`
    is true when the change wins at least 9 of every 10 pairs and its
    median beats the parent's by more than the parent's interquartile
    range."""
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "rel": (cm - pm) / pm if pm else 0.0,
        "wins": wins,
        "pairs": len(parent),
        "holds": 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1,
    }


def format_row(name: str, s: dict) -> str:
    (pm, p1, p3), (cm, c1, c3) = s["parent"], s["change"]
    return (f"{name:15s} {pm:.4g} [{p1:.4g}, {p3:.4g}] -> {cm:.4g} [{c1:.4g}, {c3:.4g}]"
            f"  {s['rel']:+.1%}  better in {s['wins']}/{s['pairs']}"
            f"  claim {'holds' if s['holds'] else 'fails'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(roots[side], args.workload, args.seed, seconds))
        print(f"pair {i + 1}: wall_s {runs['parent'][-1].get('wall_s')} -> "
              f"{runs['change'][-1].get('wall_s')}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs: "
          "median [quartiles], parent -> change")
    for metric in metrics:
        name = metric["name"]
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], metric["better"])
        print(format_row(name, s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
