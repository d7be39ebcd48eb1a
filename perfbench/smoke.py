#!/usr/bin/env python3
"""Smoke run of the benchmark on tiny corpora, in a few seconds.

    python3 perfbench/smoke.py

It asserts that BENCHMARK.json names the workloads and metrics that
run.py defines.  For every workload, untraced and traced, it asserts that
the run emits exactly those metrics with their units, and that every tiny
instance solves and passes its checks.  It then corrupts solved
outputs and asserts that the checks reject them.  Exits 0 on success.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run


def tiny_corpora(workloads) -> dict:
    Instance = workloads.Instance
    driver = workloads.driver_corpus({"cubic": [20, 30], "gnp": [30, 40]}, 0.4)
    return {
        "equitable-serial": driver,
        "equitable-batch": driver,
        "delta-dominate": lambda seed: [
            Instance("dominate-cubic", f"regular:n={n},d=3", n, 3.0) for n in (16, 24)
        ] + [
            Instance("dominate-torus", f"torus:rows=3,cols={c}", 0, 3.0, cut=(0, 1))
            for c in (5, 9)
        ],
        "sparse-pipeline": lambda seed: [
            Instance("pipeline-hub10", f"hub:n={n},delta=10", n, 0.5) for n in (100, 200)
        ],
    }


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    assert code == 0, f"{argv} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_rejections(workloads) -> None:
    for name, workload in workloads.WORKLOADS.items():
        case = workloads.build(tiny_corpora(workloads)[name](0)[0])
        out = workload.solve(case)
        assert workload.check(case, out).ok, f"{name}: clean output rejected"
        f = out[0] if isinstance(out, tuple) else out
        u, v = case.graph.edges()[0]
        bad = f.copy()
        bad.assign(v, f.get(u))
        bad_out = (bad,) + out[1:] if isinstance(out, tuple) else bad
        assert workload.check(case, bad_out).problems, f"{name}: improper coloring accepted"
        if name.startswith("equitable"):
            trace = out[1]
            trace.ledger.cumulative += 1
            assert workload.check(case, out).problems, f"{name}: tampered ledger accepted"
        if name == "delta-dominate":
            # a seed with one more vertex of some color than the output has
            colors = f.as_list()
            boosted = list(colors)
            boosted[0] = (colors[0] + 1) % f.k
            fake = dataclasses.replace(
                case, seed_colors=boosted,
                seed_coloring=type(f)(f.n, f.k, boosted),
            )
            assert workload.check(fake, f).problems, f"{name}: non-dominating output accepted"


def main() -> int:
    run.load_package()
    import workloads

    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    assert declared == {name: w.why for name, w in workloads.WORKLOADS.items()}, names
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert declared == table, f"{section} in BENCHMARK.json differs from run.py"

    check_rejections(workloads)
    for name, corpus in tiny_corpora(workloads).items():
        workloads.WORKLOADS[name] = dataclasses.replace(workloads.WORKLOADS[name], corpus=corpus)
    for name in names:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            result = run_cli(["--workload", name, "--seed", "0", "--seconds", "0.1",
                              "--trace", str(trace)])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            assert emitted == table, (name, trace, sorted(set(emitted) ^ set(table)))
            print(f"ok {name} trace {trace}: {len(emitted)} metrics", file=sys.stderr)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
