#!/usr/bin/env python3
"""Count the heap work of the driver's pattern-1 index on the two driver
workloads, per family of each corpus.

Usage: python3 scripts/index_probe.py ROOT [--seed 1]

ROOT is a checkout of this repository; its `src/` and
`perfbench/workloads.py` are imported (the latter only read), so two
checkouts can be compared line by line.  Each instance of the
`equitable-serial` and `equitable-batch` corpora is generated and solved
once.  The script wraps `heappush`, `heappop` and `_Pattern1Index.__init__`
of `equicolor.dynamics` and prints, for each family, the rounds (trace
records), the heap entries written (the heap lengths right after each
index is built, plus every push) and the `heappop` calls, in total and
per round.  The counts are exact, so they do not vary between runs.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

DRIVER_WORKLOADS = ("equitable-serial", "equitable-batch")


def install_counters(dynamics) -> Counter:
    """Wrap the index's heap calls and constructor in `dynamics`; return the
    counter they add to."""
    counts: Counter = Counter()
    push, pop = dynamics.heappush, dynamics.heappop
    init = dynamics._Pattern1Index.__init__

    def counted_push(heap, item):
        counts["entries"] += 1
        push(heap, item)

    def counted_pop(heap):
        counts["pops"] += 1
        return pop(heap)

    def counted_init(self, *args):
        init(self, *args)
        counts["entries"] += sum(len(heap) for row in self.heaps for heap in row)

    dynamics.heappush, dynamics.heappop = counted_push, counted_pop
    dynamics._Pattern1Index.__init__ = counted_init
    return counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from equicolor import dynamics

    counts = install_counters(dynamics)
    for name in DRIVER_WORKLOADS:
        workload = workloads.WORKLOADS[name]
        families: dict[str, Counter] = {}
        for inst in workload.corpus(args.seed):
            case = workloads.build(inst)
            counts.clear()
            _, trace = workload.solve(case)
            counts["rounds"] = trace.step_count
            counts["instances"] = 1
            families.setdefault(inst.family, Counter()).update(counts)
        for family, c in families.items():
            rounds = max(c["rounds"], 1)
            print(
                f"{name} seed={args.seed} {family} instances={c['instances']} "
                f"rounds={c['rounds']} entries={c['entries']} pops={c['pops']} "
                f"entries/round={c['entries'] / rounds:.2f} "
                f"pops/round={c['pops'] / rounds:.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
