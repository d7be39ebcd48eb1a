#!/usr/bin/env python3
"""Benchmark of the four equicolor engines, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from the `src/` next to
this directory.  Set-up imports the package and generates the corpus
several times and reports the median.  The measured phase then solves the
corpus in a closed loop (one process, one instance at a time, each under
its own deadline) for about S seconds, checks every output with this
directory's own code, and reports each instance's median solve time.
With --trace 1 one more pass generates and solves the corpus with every
traced public function wrapped, and the per-module metrics replace the
end-to-end ones.  The last line of standard output is the result as JSON;
the full record, and with --trace 1 the spans, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# never used while the benchmark or a change is tuned: confirm claims on it
HELD_OUT_SEED = 9173011
SETUP_REPS = 3
# On a shared 2-vCPU virtual machine the host's speed drifted by 20% and
# more within seconds, and the guest did not see it as steal time.  Every
# measured call is bracketed by a fixed pure-Python loop, and its wall time
# is scaled by REFERENCE_LOOP_S / (mean loop time around it): times are
# reported in seconds at the speed where the loop takes REFERENCE_LOOP_S.
# Raw wall times are kept in the results file.
REFERENCE_LOOP_S = 0.005
# tracing slows every traced call; the traced pass widens each deadline so
# that it times out the same instances as the untraced passes
TRACE_DEADLINE_FACTOR = 2

END_TO_END = {
    "wall_s": "s",
    "time_slope": "ratio",
    "solved_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recolored_frac": "ratio",
    "final_gap_mean": "vertices",
}

PER_LAYER = {
    # dynamics
    "find_improving_move.self_s": "s",
    "find_improving_move.calls": "count",
    "apply_move.self_s": "s",
    "apply_move.calls": "count",
    "apply_monotone_prefix.self_s": "s",
    "select_separated_batch.self_s": "s",
    "equitable_k_coloring.self_s": "s",
    "admissible_witness.calls": "count",
    "candidate_yield": "ratio",
    "steps": "count",
    "batches": "count",
    "restarts": "count",
    "ledger_ratio": "ratio",
    # distributions
    "ConvergenceLedger.record.self_s": "s",
    "ConvergenceLedger.record.calls": "count",
    "ColorDistribution.from_coloring.self_s": "s",
    "ColorDistribution.from_coloring.calls": "count",
    "is_more_equitable.self_s": "s",
    "is_more_equitable.calls": "count",
    "l1_distance.self_s": "s",
    "l1_distance.calls": "count",
    # colorings
    "PartialColoring.copy.self_s": "s",
    "PartialColoring.copy.calls": "count",
    "copy_elements": "count",
    "greedy_maximal.self_s": "s",
    "greedy_maximal.calls": "count",
    "is_proper.self_s": "s",
    "is_proper.calls": "count",
    # graphs
    "Graph.induced_subgraph.self_s": "s",
    "Graph.induced_subgraph.calls": "count",
    "block_decomposition.self_s": "s",
    "block_decomposition.calls": "count",
    "is_gallai_tree.self_s": "s",
    "is_gallai_tree.calls": "count",
    "components.self_s": "s",
    "components.calls": "count",
    "contains_clique.self_s": "s",
    "build_graph.self_s": "s",
    # forests
    "forest_recolor.self_s": "s",
    "forest_recolor.calls": "count",
    "strata": "count",
    "build_one_ended_subforest.self_s": "s",
    "dominating_delta_coloring.self_s": "s",
    # domination
    "dominating_full_coloring.self_s": "s",
    "dominating_full_coloring.calls": "count",
    "dominating_full_coloring.timeouts": "count",
    # pipeline
    "quick_balance.self_s": "s",
    "extract_dense_set.self_s": "s",
    "equitable_delta_coloring.self_s": "s",
    "dense_frac": "ratio",
    "slack_verdicts": "count",
    # generators
    "generate.self_s": "s",
    "trace.overhead_frac": "ratio",
}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import equicolor; print(time.perf_counter() - t)"
)


class DeadlineExceeded(Exception):
    pass


def load_package():
    """Import equicolor from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import equicolor
    if Path(equicolor.__file__).resolve().parent != SRC / "equicolor":
        raise ImportError(f"equicolor resolved to {equicolor.__file__}, not {SRC}")
    return equicolor


def alarm_handler(tracer=None):
    def handler(signum, frame):
        if tracer is not None:
            tracer.on_timeout()
        raise DeadlineExceeded()
    return handler


def reference_loop_s() -> float:
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(20_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    return time.perf_counter() - start


def timed(call):
    """Run call(); return (result, raw seconds, speed factor to calibrate
    any time measured during the call)."""
    before = reference_loop_s()
    start = time.perf_counter()
    result = call()
    raw = time.perf_counter() - start
    return result, raw, REFERENCE_LOOP_S / ((before + reference_loop_s()) / 2)


def with_deadline(call, deadline_s: float):
    def guarded():
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return guarded


class Results:
    """Per-instance solve times, check outcomes and failures."""

    def __init__(self, count: int):
        self.times: list[list[float]] = [[] for _ in range(count)]   # calibrated
        self.raw: list[list[float]] = [[] for _ in range(count)]
        self.outcomes: list = [None] * count
        self.failures: dict[int, str] = {}

    def attempt(self, workload, index: int, case, deadline_s: float, tracer=None) -> None:
        def solve():
            if tracer is None:
                return workload.solve(case)
            return tracer.run(index, lambda: workload.solve(case))
        try:
            out, raw, speed = timed(with_deadline(solve, deadline_s))
        except DeadlineExceeded:
            self.failures[index] = f"deadline {deadline_s:.1f} s passed"
            return
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.failures[index] = f"raised {type(exc).__name__}: {exc}"
            return
        outcome = workload.check(case, out)
        self.outcomes[index] = outcome
        if outcome.ok:
            self.times[index].append(raw * speed)
            self.raw[index].append(raw)
        else:
            self.failures[index] = "; ".join(
                outcome.problems + [f"claim {c} fails" for c in outcome.claim_failures]
            )

    def solved(self) -> list[int]:
        return [i for i in range(len(self.times)) if i not in self.failures]

    def correct(self) -> bool:
        return not any(o is not None and o.problems for o in self.outcomes)


def setup(workloads, workload, seed: int):
    """Median of SETUP_REPS (import in a fresh interpreter + corpus
    generation), calibrated; returns it with the last generated corpus."""
    totals = []
    for _ in range(SETUP_REPS):
        def rep():
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                capture_output=True, text=True, check=True, timeout=120,
            )
            start = time.perf_counter()
            cases = [workloads.build(inst) for inst in workload.corpus(seed)]
            return cases, float(probe.stdout) + time.perf_counter() - start
        (cases, seconds), _, speed = timed(rep)
        totals.append(seconds * speed)
    return statistics.median(totals), cases


def measure(workload, cases, seconds: float) -> tuple[Results, int]:
    """Closed loop over the corpus until the next pass, predicted from the
    last pass over the instances still solving, would overrun the measuring
    time (at least one pass).  An instance that fails is not attempted
    again."""
    results = Results(len(cases))
    began = time.perf_counter()
    passes = 0
    while True:
        next_pass = 0.0
        for i, case in enumerate(cases):
            if i not in results.failures:
                start = time.perf_counter()
                results.attempt(workload, i, case, case.deadline_s)
                if i not in results.failures:
                    next_pass += time.perf_counter() - start
        passes += 1
        if time.perf_counter() - began + next_pass > seconds or not next_pass:
            return results, passes


def fit_slope(points) -> float:
    """Least-squares slope of log(time) on log(n+m), one intercept per
    family; families with one instance carry no slope information."""
    by_family = defaultdict(list)
    for family, size, seconds in points:
        by_family[family].append((math.log(size), math.log(seconds)))
    sxy = sxx = 0.0
    for pts in by_family.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
    return sxy / sxx


def end_to_end_metrics(cases, results: Results, setup_s: float) -> dict:
    ok = results.solved()
    med = {i: statistics.median(results.times[i]) for i in ok}
    vertices = sum(cases[i].graph.n for i in ok)
    return {
        "wall_s": sum(med.values()),
        "time_slope": fit_slope(
            (cases[i].inst.family, cases[i].size, med[i]) for i in ok
        ),
        "solved_frac": len(ok) / len(cases),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "recolored_frac": sum(results.outcomes[i].changed for i in ok) / vertices,
        "final_gap_mean": statistics.fmean(results.outcomes[i].gap for i in ok),
    }


def traced_pass(workloads, tracing, workload, seed: int):
    """Generate and solve the corpus once with tracing on.  Generation spans
    carry instance id -1-i, solve spans instance id i."""
    tracer = tracing.Tracer()
    signal.signal(signal.SIGALRM, alarm_handler(tracer))
    tracer.install()
    try:
        cases = [
            tracer.run(-1 - i, lambda: workloads.build(inst))
            for i, inst in enumerate(workload.corpus(seed))
        ]
        results = Results(len(cases))
        for i, case in enumerate(cases):
            results.attempt(workload, i, case, case.deadline_s * TRACE_DEADLINE_FACTOR, tracer)
    finally:
        tracer.uninstall()
        signal.signal(signal.SIGALRM, alarm_handler())
    return tracer, cases, results


def per_layer_metrics(tracer, traced: Results, untraced: Results) -> dict:
    """Per-layer metrics over the generation of every instance and the
    solves that succeeded; a failed solve shows only in `.timeouts`."""
    solved = set(traced.solved())
    by_name = defaultdict(lambda: [0.0, 0])
    for (inst, caller, name), (self_s, calls) in tracer.self_times().items():
        if inst < 0 or inst in solved:
            by_name[name][0] += self_s
            by_name[name][1] += calls
    counts: defaultdict = defaultdict(int)
    for (inst, name), value in tracer.counts.items():
        if inst < 0 or inst in solved:
            counts[name] += value
    both = solved & set(untraced.solved())
    traced_wall = sum(traced.times[i][0] for i in both)
    untraced_wall = sum(statistics.median(untraced.times[i]) for i in both)
    witness_calls = by_name["admissible_witness"][1]
    derived = {
        "candidate_yield": (
            (counts["steps"] + counts["batches"]) / witness_calls if witness_calls else 0.0
        ),
        "ledger_ratio": (
            float(counts["ledger_cumulative"] / counts["ledger_bound"])
            if counts["ledger_bound"] else 0.0
        ),
        "dense_frac": (
            counts["dense_vertices"] / counts["pipeline_vertices"]
            if counts["pipeline_vertices"] else 0.0
        ),
        "trace.overhead_frac": (
            (traced_wall - untraced_wall) / untraced_wall if untraced_wall else 0.0
        ),
    }
    metrics = {}
    for metric in PER_LAYER:
        fn, _, field = metric.rpartition(".")
        if metric in derived:
            metrics[metric] = derived[metric]
        elif field == "self_s":
            metrics[metric] = by_name[fn][0]
        elif field == "calls":
            metrics[metric] = by_name[fn][1]
        elif field == "timeouts":
            metrics[metric] = tracer.timeouts[fn]
        else:
            metrics[metric] = counts[metric]
    return metrics


def self_time_by_family(tracing, tracer, cases) -> dict:
    """Per family: traced self time by module, and the largest
    "caller > function" self times.  The traced generation is family
    "setup"."""
    modules: dict = defaultdict(lambda: defaultdict(float))
    edges: dict = defaultdict(lambda: defaultdict(float))
    for (inst, caller, name), (self_s, _) in tracer.self_times().items():
        family = "setup" if inst < 0 else cases[inst].inst.family
        modules[family][tracing.MODULE_OF.get(name, name)] += self_s
        edges[family][f"{caller} > {name}" if caller else name] += self_s

    def top(table, count=None):
        return dict(sorted(table.items(), key=lambda kv: -kv[1])[:count])
    return {
        family: {"modules": top(modules[family]), "functions": top(edges[family], 6)}
        for family in modules
    }


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "equicolor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            sha = git.stdout.strip() if git.returncode == 0 else None
        except OSError:
            sha = None
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def instance_rows(cases, results: Results) -> list[dict]:
    rows = []
    for i, case in enumerate(cases):
        outcome = results.outcomes[i]
        rows.append({
            "family": case.inst.family, "spec": case.inst.spec,
            "seed": case.inst.seed, "n": case.graph.n, "m": case.graph.edge_count,
            "deadline_s": case.deadline_s, "times": results.times[i],
            "raw_times": results.raw[i],
            "failure": results.failures.get(i),
            "changed": None if outcome is None else outcome.changed,
            "gap": None if outcome is None else outcome.gap,
        })
    return rows


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        load_package()
    except ImportError as exc:
        print(f"cannot import equicolor from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, alarm_handler())

    setup_s, cases = setup(workloads, workload, args.seed)
    results, passes = measure(workload, cases, args.seconds)
    if not results.solved():
        print("every instance failed:", results.failures, file=sys.stderr)
        return 1
    metrics = end_to_end_metrics(cases, results, setup_s)
    meta = {"workload": workload.name, **provenance(args.seed)}
    record = {**meta, "seconds": args.seconds, "trace": args.trace, "passes": passes}
    correct = results.correct()
    RESULTS.mkdir(exist_ok=True)

    if args.trace:
        tracer, traced_cases, traced = traced_pass(workloads, tracing, workload, args.seed)
        correct = correct and traced.correct()
        record["end_to_end"] = metrics
        metrics = per_layer_metrics(tracer, traced, results)
        record["traced_failures"] = {str(i): f for i, f in traced.failures.items()}
        record["timeouts"] = dict(tracer.timeouts)
        record["self_time_by_family"] = self_time_by_family(tracing, tracer, traced_cases)
        tracer.write(RESULTS / f"{workload.name}-seed{args.seed}-spans.tsv")
        for family, tables in record["self_time_by_family"].items():
            total = sum(tables["modules"].values()) or 1.0
            for title, table in tables.items():
                shares = ", ".join(f"{k} {v / total:.0%}" for k, v in list(table.items())[:4])
                print(f"  {family:16s} {total:7.3f} s {title}: {shares}", file=sys.stderr)

    units = PER_LAYER if args.trace else END_TO_END
    record["metrics"] = metrics
    record["instances"] = instance_rows(cases, results)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for i, reason in sorted(results.failures.items()):
        print(f"  failed {cases[i].inst.family} {cases[i].inst.spec} "
              f"seed {cases[i].inst.seed}: {reason}", file=sys.stderr)

    print(json.dumps(meta))
    print(json.dumps({
        "correct": correct,
        "attempted": len(cases),
        "failed": len(results.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
