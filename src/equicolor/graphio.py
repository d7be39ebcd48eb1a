"""Graph file I/O: DIMACS .col and a small edge-list JSON dialect."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .errors import HeaderMismatch, ParseError
from .graphs import Graph, build_graph

PathLike = Union[str, Path]


def parse_dimacs(text: str) -> Graph:
    """DIMACS coloring format: "p edge n m" header, "e u v" lines with
    1-based vertex ids, "c" comment lines."""
    n: Optional[int] = None
    declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line=lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed problem line {line!r}", line=lineno)
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer header {line!r}", line=lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", line=lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", line=lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer endpoints {line!r}", line=lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", line=lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {parts[0]!r}", line=lineno)
    if n is None:
        raise ParseError("missing problem line", line=None)
    if len(edges) != declared:
        raise HeaderMismatch(
            f"header declares {declared} edges, file has {len(edges)}"
        )
    return build_graph(n, edges)


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_json(text: str) -> Graph:
    """JSON dialect: {"n": int, "edges": [[u, v], ...]} with 0-based ids."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno)
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ParseError("expected an object with 'n' and 'edges'", line=None)
    n, edges = data["n"], data["edges"]
    # JSON integers load as int; booleans and floats do not pass
    if type(n) is not int or not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e) for e in edges
    ):
        raise ParseError("'n' must be an integer and 'edges' a list of [u, v] "
                         "integer pairs", line=None)
    return build_graph(n, [tuple(e) for e in edges])


def write_edge_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


def read_graph(path: PathLike, fmt: Optional[str] = None) -> Graph:
    """Read a graph file; the format is inferred from the extension
    (.col dimacs, .json edge-json) unless given explicitly."""
    path = Path(path)
    if fmt is None:
        fmt = "edge-json" if path.suffix == ".json" else "dimacs"
    text = path.read_text()
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "edge-json":
        return parse_edge_json(text)
    raise ParseError(f"unknown format {fmt!r}", line=None)


def write_graph(g: Graph, path: PathLike, fmt: Optional[str] = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "edge-json" if path.suffix == ".json" else "dimacs"
    if fmt == "dimacs":
        path.write_text(write_dimacs(g))
    elif fmt == "edge-json":
        path.write_text(write_edge_json(g))
    else:
        raise ParseError(f"unknown format {fmt!r}", line=None)
