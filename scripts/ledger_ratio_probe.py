#!/usr/bin/env python3
"""Probe how loose the exponential movement budget is in practice.

The ledger guarantees cumulative l1 movement at most (1+A)^(k+1)/A times the
initial discrepancy with A = 6.  Whether the exponential dependence on k is
necessary is open; this script reports the observed cumulative/disc0 ratio
across seeded corpora so the gap is visible, with the number of rounds
(recorded steps) of the serial and the batch driver on each instance.

Usage: python3 scripts/ledger_ratio_probe.py [--runs N] [--seed S]
"""

import argparse
import sys

from equicolor import DriverConfig, equitable_k_coloring, greedy_extend_full
from equicolor.generators import InstanceSpec, generate


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    specs = [
        ("regular", {"n": 120, "d": 3}),
        ("regular", {"n": 120, "d": 4}),
        ("regular", {"n": 120, "d": 5}),
        ("gnp", {"n": 150, "p": 0.025}),
        ("torus", {"rows": 8, "cols": 12}),
    ]
    print(f"{'instance':28s} {'mode':>6s} {'k':>3s} {'rounds':>6s} {'disc0':>9s} "
          f"{'cum':>9s} {'ratio':>9s} {'budget':>12s} {'slack x':>9s}")
    for name, params in specs:
        for r in range(args.runs):
            g = generate(InstanceSpec(name, dict(params), args.seed + r))
            k = g.max_degree + 1
            f0 = greedy_extend_full(g, k)
            for mode in ("serial", "batch"):
                config = DriverConfig(batch_mode=mode == "batch")
                f, trace = equitable_k_coloring(g, k, f0=f0, config=config)
                led = trace.ledger
                ratio = led.observed_ratio()
                if ratio is None:
                    continue
                budget_ratio = led.bound() / led.disc0
                rows.append((name, k, ratio, budget_ratio))
                if r == 0:
                    print(f"{name + str(params):28s} {mode:>6s} {k:3d} "
                          f"{len(trace.records):6d} "
                          f"{float(led.disc0):9.4f} {float(led.cumulative):9.4f} "
                          f"{float(ratio):9.3f} {float(budget_ratio):12.1f} "
                          f"{float(budget_ratio / ratio):9.1f}")
    if not rows:
        print("\nno run started with a positive discrepancy")
        return 0
    worst = max(rows, key=lambda row: row[2] / row[3])
    share = worst[2] / worst[3]
    print(f"\nworst observed ratio/budget: {float(share):.2e} "
          f"({worst[0]}, k={worst[1]})")
    print(f"across {len(rows)} runs the budget was "
          + ("tight on the worst run" if share == 1 else
             f"never tight: the worst run used {float(share):.2e} of it"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
