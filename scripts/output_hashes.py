#!/usr/bin/env python3
"""Hash every output of the four benchmark workloads, one hash per
workload and seed, to check that a change leaves the outputs identical.

Usage: python3 scripts/output_hashes.py ROOT [--seeds 1 9173011]

ROOT is a checkout of this repository; its `src/` and
`perfbench/workloads.py` are imported (the latter only read), so two
checkouts can be compared line by line.  Each instance of a workload's
corpus is generated and solved once, without deadlines, and the hash
covers, in corpus order:

* equitable-serial, equitable-batch: the coloring, the trace JSONL and CSV,
  and the JSON of every ledger;
* delta-dominate: the coloring;
* sparse-pipeline: the coloring, the report JSON, and the extended, dense
  and dominated colorings.

An instance that raises an `EquicolorError` hashes as its error type and
message; any other exception stops the script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path


def outputs(name: str, out) -> list:
    """The parts of one solve's output that the hash covers."""
    if name.startswith("equitable"):
        f, trace = out
        return [f.as_list(), trace.to_jsonl(), trace.to_csv(),
                [ledger.to_json_dict() for ledger in trace.ledgers]]
    if name == "delta-dominate":
        return [out.as_list()]
    f, report = out
    return [f.as_list(), report.to_json(), report.extended_coloring,
            report.dense_coloring, report.dominated_coloring]


def corpus_digest(workloads, name: str, seed: int) -> str:
    """SHA-256 over the outputs of one workload's corpus at one seed;
    `workloads` is the imported `perfbench/workloads.py`."""
    digest = hashlib.sha256()
    workload = workloads.WORKLOADS[name]
    for inst in workload.corpus(seed):
        case = workloads.build(inst)
        try:
            parts = outputs(name, workload.solve(case))
        except workloads.eq.EquicolorError as exc:
            parts = [type(exc).__name__, str(exc)]
        digest.update(json.dumps(parts, default=str).encode())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 9173011])
    args = parser.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        for seed in args.seeds:
            count = len(workload.corpus(seed))
            print(f"{name} seed={seed} instances={count} {corpus_digest(workloads, name, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
