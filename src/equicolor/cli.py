"""Command-line surface.

Exit codes: 0 success, 1 domain error (structured JSON on stderr), 2 usage.
All randomized paths take --seed and are bit-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .colorings import ListAssignment, PartialColoring, _check_lists
from .distributions import ColorDistribution, discrepancy
from .domination import DominationInstance, dominating_full_coloring
from .dynamics import DriverConfig, equitable_k_coloring
from .errors import EquicolorError, ParseError
from .generators import InstanceSpec, generate
from .graphio import read_graph
from .graphs import Graph
from .oracle import (
    OracleBudget,
    count_proper_colorings,
    domination_exists,
    equitable_exists,
    improving_move_exists,
)
from .pipeline import equitable_delta_coloring


def _load_graph(args) -> Graph:
    if getattr(args, "gen", None):
        return generate(InstanceSpec.parse(args.gen, seed=args.seed))
    if getattr(args, "graph", None):
        return read_graph(args.graph, getattr(args, "format", None))
    raise EquicolorError("pass --graph FILE or --gen SPEC")


def _coloring_json(f: PartialColoring) -> dict:
    return {
        "k": f.k,
        "assignment": f.as_list(),
        "counts": list(f.counts()),
    }


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _read_json(path: str, parse):
    """parse(data) on the JSON document in the file; a malformed or
    incomplete document raises ParseError."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed or incomplete: {exc!r}",
                         line=getattr(exc, "lineno", None)) from exc


def _load_coloring(path: str, n: int, k: Optional[int] = None) -> PartialColoring:
    return _read_json(path, lambda data: PartialColoring(
        n, k if k is not None else int(data["k"]), data["assignment"]
    ))


def _load_lists(path: str, n: int):
    def parse(data):
        lists = ListAssignment.of(data["lists"])
        return lists, PartialColoring(n, max(lists.max_color() + 1, 1), data.get("partial"))
    return _read_json(path, parse)


def cmd_color_equitable(args) -> int:
    g = _load_graph(args)
    config = DriverConfig(batch_mode=args.batch)
    f0 = _load_coloring(args.initial, g.n, args.k) if args.initial else None
    f, trace = equitable_k_coloring(g, args.k, f0=f0, config=config)
    if args.trace_jsonl:
        Path(args.trace_jsonl).write_text(trace.to_jsonl())
    if args.trace_csv:
        Path(args.trace_csv).write_text(trace.to_csv())
    payload = _coloring_json(f)
    payload["steps"] = trace.step_count
    payload["ledger"] = trace.ledger.to_json_dict() if args.ledger else {
        "cumulative": str(trace.ledger.cumulative),
        "bound": str(trace.ledger.bound()),
    }
    _emit(payload, args.out)
    return 0


def cmd_color_delta(args) -> int:
    g = _load_graph(args)
    f, report = equitable_delta_coloring(g, g.max_degree)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    payload = _coloring_json(f)
    payload["final_gap"] = report.final_gap
    payload["claims"] = [
        {"name": c.name, "verdict": c.verdict} for c in report.claims
    ]
    _emit(payload, args.out)
    return 0


def cmd_dominate(args) -> int:
    g = _load_graph(args)
    lists, seed = _load_lists(args.lists, g.n)
    f = dominating_full_coloring(DominationInstance(g, lists, seed))
    _emit(_coloring_json(f), args.out)
    return 0


def cmd_verify(args) -> int:
    g = _load_graph(args)
    f = _load_coloring(args.coloring, g.n)
    violations = []
    for u, v in g.edges():
        if f.is_assigned(u) and f.get(u) == f.get(v):
            violations.append([u, v])
    report = {
        "proper": not violations,
        "violated_edges": violations[:20],
        "total": f.is_total(),
        "counts": list(f.counts()),
        "gap": f.gap(),
    }
    if args.equitable:
        report["equitable"] = f.is_total() and not violations and f.gap() <= 1
    if args.lists:
        lists, _ = _load_lists(args.lists, g.n)
        _check_lists(g, lists, error=ParseError)
        bad = [v for v in f.domain() if f.get(v) not in lists[v]]
        report["in_lists"] = not bad
        report["list_violations"] = bad[:20]
    ok = report["proper"] and report.get("equitable", True) \
        and report.get("in_lists", True)
    _emit(report, args.out)
    return 0 if ok else 1


def cmd_trace(args) -> int:
    g = _load_graph(args)
    f, trace = equitable_k_coloring(
        g, args.k, config=DriverConfig(batch_mode=args.batch)
    )
    jsonl = args.jsonl or "trace.jsonl"
    Path(jsonl).write_text(trace.to_jsonl())
    if args.csv:
        Path(args.csv).write_text(trace.to_csv())
    d = ColorDistribution.from_coloring(f)
    _emit({
        "steps": trace.step_count,
        "final_counts": list(f.counts()),
        "final_disc": str(discrepancy(d)),
        "cumulative_l1": str(trace.ledger.cumulative),
        "ledger_bound": str(trace.ledger.bound()),
        "jsonl": jsonl,
    }, args.out)
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args)
    budget = OracleBudget(
        max_vertices=args.max_vertices, max_palette=args.max_palette
    )
    if args.probe == "equitable-exists":
        result = equitable_exists(g, args.k, budget)
    elif args.probe == "count-colorings":
        result = count_proper_colorings(g, args.k, budget)
    elif args.probe == "improving-move":
        f = _load_coloring(args.coloring, g.n, args.k)
        result = improving_move_exists(g, f, args.m, budget)
    else:
        lists, seed = _load_lists(args.lists, g.n)
        result = domination_exists(g, lists, seed, budget)
    _emit({"probe": args.probe, "result": result}, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equicolor",
        description="equitable coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--graph", help="graph file (.col dimacs or .json)")
        p.add_argument("--format", choices=["dimacs", "edge-json"])
        p.add_argument("--gen", help="generator spec, e.g. regular:n=24,d=3")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON result here instead of stdout")

    p = sub.add_parser("color-equitable", help="equitable k-coloring")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--initial", help="JSON coloring file to start from")
    p.add_argument("--batch", action="store_true", help="batched move application")
    p.add_argument("--ledger", action="store_true", help="embed the full ledger")
    p.add_argument("--trace-jsonl")
    p.add_argument("--trace-csv")
    p.set_defaults(func=cmd_color_equitable)

    p = sub.add_parser("color-delta", help="max-degree coloring of a sparse graph")
    common(p)
    p.add_argument("--report", help="write the full claim report here")
    p.set_defaults(func=cmd_color_delta)

    p = sub.add_parser("dominate", help="dominating list coloring")
    common(p)
    p.add_argument("--lists", required=True,
                   help='JSON {"lists": [[...]], "partial": [...]}')
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("verify", help="check a coloring file")
    common(p)
    p.add_argument("--coloring", required=True)
    p.add_argument("--equitable", action="store_true")
    p.add_argument("--lists")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace", help="run the driver and dump its trace")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--batch", action="store_true")
    p.add_argument("--jsonl")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("oracle", help="brute-force probes on tiny inputs")
    common(p)
    p.add_argument("probe", choices=[
        "equitable-exists", "count-colorings", "improving-move",
        "domination-exists",
    ])
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--coloring")
    p.add_argument("--lists")
    p.add_argument("--max-vertices", type=int, default=10)
    p.add_argument("--max-palette", type=int, default=8)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (EquicolorError, OSError) as exc:
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
        }
        for attr in ("name", "values", "line", "gap", "component"):
            value = getattr(exc, attr, None)
            if value is not None:
                payload[attr] = value if not isinstance(value, dict) else {
                    k: str(v) for k, v in value.items()
                }
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
