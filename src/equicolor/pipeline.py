"""Near-equitable max-degree colorings of sparse graphs.

For a graph of maximum degree D >= 3 with no clique on D+1 vertices and
average degree at most D/5, the pipeline:

1. extracts a dense set X (at most a quarter of the vertices) outside of
   which degrees are below 4D/5 and into which few edges point back,
2. colors the subgraph on X equitably with D+1 colors via the recoloring
   dynamics, uncolors its largest class, and re-completes to a dominating
   D-coloring of X whose classes all stay large,
3. extends greedily to the whole graph (vertices outside X have degree
   below D, so the extension is total),
4. balances class sizes without touching X: each vertex of a class above
   its target size moves straight to a class below target that none of
   its neighbors has, and pairwise transfers run only on what that leaves.

Every inequality used along the way is evaluated exactly on normalized
counts and recorded in the report with a three-valued verdict: holds,
holds within the integer-rounding slack (D+1)/n, or fails.  The report has
one row per claim I-VIII, in that order.  `_claim` judges a row from its
two sides, its slack and whether the bound is strict.  Claim II's row is
the exception: it bounds the unions of the s smallest and of the s largest
dense-set classes for every s, and carries the worst of those verdicts.
Claims III, V, VII and VIII are vacuous when no color is below its
share.  The balance fixpoint guarantee is exact: whenever two class sizes
differ by at least 2, every vertex of the larger class outside X has a
neighbor in the smaller.
"""

from __future__ import annotations

import json
import random
from bisect import insort
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Iterable

from .colorings import (
    ListAssignment,
    PartialColoring,
    _check_coloring,
    _greedy_fill,
    _recolor,
    greedy_extend_full,
    is_proper,
)
from .dynamics import equitable_k_coloring
from .errors import (
    ImproperAux,
    ImproperInput,
    PreconditionViolated,
    debug_checks_enabled,
)
from .forests import dominating_delta_coloring
from .graphs import Graph, _check_vertices, average_degree, contains_clique


@dataclass(frozen=True)
class CostReport:
    """Normalized count of edges incident to a vertex set: boundary edges
    count once, internal edges once (each internal edge is seen from both
    endpoints and halved)."""

    subset: tuple[int, ...]
    value: Fraction
    boundary_edges: int
    internal_edges: int


def _cost_value(g: Graph, xs: frozenset[int]) -> tuple[Fraction, int, int]:
    boundary = 0
    internal_twice = 0
    for v in xs:
        for w in g.adjacency(v):
            if w in xs:
                internal_twice += 1
            else:
                boundary += 1
    value = Fraction(2 * boundary + internal_twice, 2 * g.n) if g.n else Fraction(0)
    return value, boundary, internal_twice // 2


def _require(holds: bool, message: str, name: str, **values) -> None:
    """PreconditionViolated, with the precondition's name and values, unless it holds."""
    if not holds:
        raise PreconditionViolated(message, name=name, values=values)


def cost(g: Graph, x: Iterable[int]) -> CostReport:
    xs = frozenset(x)
    _check_vertices(g, xs)
    value, boundary, internal = _cost_value(g, xs)
    if debug_checks_enabled() and len(xs) >= 2:
        _check_cost_additivity(g, xs)
    return CostReport(tuple(sorted(xs)), value, boundary, internal)


def _check_cost_additivity(g: Graph, xs: frozenset[int]) -> None:
    rng = random.Random(0)
    part = frozenset(v for v in sorted(xs) if rng.random() < 0.5)
    rest = xs - part
    if not part or not rest:
        return
    cross = sum(1 for v in rest for w in g.adjacency(v) if w in part)
    lhs = _cost_value(g, xs)[0]
    rhs = _cost_value(g, part)[0] + _cost_value(g, rest)[0] - Fraction(cross, g.n)
    assert lhs == rhs, "cost additivity identity failed"


def extract_dense_set(g: Graph, t) -> tuple[int, ...]:
    """Vertex set X such that degrees outside X are below 2t, every outside
    vertex has fewer than t neighbors outside X, and (checked on demand)
    every subset of X has cost at least t times its normalized size.

    Built in rounds over the classes of a pinned greedy proper coloring:
    start from the vertices of degree at least 2t, then repeatedly absorb
    one independent set of outside vertices that still have t or more
    neighbors outside.
    """
    t = Fraction(t)
    _require(t >= 0, "threshold must be nonnegative", "t")
    return _dense_set(g, t, greedy_extend_full(g, g.max_degree + 1))


def _dense_set(g: Graph, t: Fraction, aux: PartialColoring) -> tuple[int, ...]:
    """`extract_dense_set` over the given pinned greedy coloring; each round
    visits only its own aux class."""
    # degrees and neighbor counts are integers: compare with the ceilings
    high, many = ceil(2 * t), ceil(t)
    adj, degrees = g.adj, g.degrees
    classes: list[list[int]] = [[] for _ in range(aux.k)]
    for v, c in enumerate(aux.colors):
        classes[c].append(v)
    inside = [d >= high for d in degrees]
    # a vertex of degree below `many` has fewer outside neighbors than that
    for members in classes:
        joiners = [
            y for y in members
            if not inside[y] and degrees[y] >= many
            and [inside[w] for w in adj[y]].count(False) >= many
        ]
        for y in joiners:
            inside[y] = True
    out = tuple(v for v, into in enumerate(inside) if into)
    for y, into in enumerate(inside):
        if not into:
            assert degrees[y] < high, "outside degree bound violated"
            assert degrees[y] < many or [inside[w] for w in adj[y]].count(False) < many, \
                "outside neighborhood bound violated"
    if debug_checks_enabled():
        rng = random.Random(0)
        subsets = [out] + [
            tuple(v for v in out if rng.random() < 0.5) for _ in range(100)
        ]
        for sub in subsets:
            if sub:
                assert cost(g, sub).value >= t * Fraction(len(sub), g.n), \
                    "dense-set cost floor violated"
    return out


def quick_balance(
    g: Graph,
    f: PartialColoring,
    frozen: Iterable[int],
    aux: PartialColoring,
) -> PartialColoring:
    """Balance class sizes by moving vertices from larger to smaller classes
    without touching the frozen set.

    Both passes below visit the unfrozen vertices in (aux class, vertex)
    order.  The aux coloring is proper, so the moves within one aux class
    form an independent batch; every move checks the current colors of the
    mover's neighbors, so the recoloring stays proper.

    Targets are fixed first: with the classes sorted by (-count, color), the
    first n mod k get ceil(n/k) vertices and the rest floor(n/k).  The
    direct pass moves each vertex of a class above its target to the color
    furthest below its target (the smallest on a tie) among those none of
    its neighbors has.  A ceil(n/k) class started no smaller than any
    floor(n/k) class, so it can be short only while no floor class is over
    target: every move goes between classes differing by at least 2, and
    drops the pairwise-difference potential by at least 2.  The pass moves
    each vertex at most once.  It keeps the colors below target in
    (-need, color) order and re-files only the receiving color after a
    move, so a vertex costs O(deg) to scan that list and a move O(k):
    O(n + m + k * moves) work.

    Only if classes still differ by 2 or more after that pass do pairwise
    passes run, until the gap is at most 1 or a pass moves nothing.  A pass
    skips each vertex of a class less than 2 above the minimum count and
    moves any other to its least-count free color (the smallest on a tie)
    when that class is at least 2 smaller; so a vertex may reach a short
    class through an intermediate one.  Each move drops the potential by at
    least 2, which bounds the number of passes; a pass costs O(deg + k) per
    vertex it does not skip.  When a pass moves nothing, no vertex of a
    class 2 or more above another can move into it: the fixpoint.
    """
    _check_coloring(g, f, error=ImproperInput, total=True)
    _check_coloring(g, aux, error=ImproperAux, total=True)
    frozen_set = frozenset(frozen)
    _check_vertices(g, frozen_set, "frozen vertex")
    return _quick_balance(g, f, frozen_set, aux)


def _quick_balance(
    g: Graph, f: PartialColoring, frozen_set: frozenset[int], aux: PartialColoring
) -> PartialColoring:
    """`quick_balance` on checked inputs."""
    out = f.copy()
    k, colors, adj, count_of = out.k, out.colors, g.adj, out.count_of
    counts = out.counts()
    # the unfrozen vertices by aux class, each class in vertex order
    by_class: list[list[int]] = [[] for _ in range(aux.k)]
    for v, c in enumerate(aux.colors):
        if v not in frozen_set:
            by_class[c].append(v)
    order = [v for members in by_class for v in members]

    q, extra = divmod(g.n, k)
    target = [0] * k
    for i, c in enumerate(sorted(range(k), key=lambda c: (-counts[c], c))):
        target[c] = q + (i < extra)
    # each class's size is its target less its need
    need = [t - c for t, c in zip(target, counts)]
    # the colors below target, furthest below first, the smallest on a tie
    short = sorted((-need[a], a) for a in range(k) if need[a] > 0)
    for y in order:
        if not short:
            break
        beta = colors[y]
        if need[beta] >= 0:
            continue
        seen = {colors[w] for w in adj[y]}
        for i, (minus, alpha) in enumerate(short):
            if alpha not in seen:
                break
        else:
            continue
        assert (target[beta] - need[beta]) - (target[alpha] - need[alpha]) >= 2, \
            "a direct move must go between classes differing by 2 or more"
        _recolor(out, y, alpha)
        need[beta] += 1
        need[alpha] -= 1
        # beta's need stays <= 0; only alpha's entry moves
        del short[i]
        if minus < -1:
            insort(short, (minus + 1, alpha))
    assert all(t - d == count_of(c) for c, (t, d) in enumerate(zip(target, need))), \
        "each need must be its class's target less its size"

    def rank(a: int) -> tuple[int, int]:
        return count_of(a), a

    moved = True
    while moved and out.gap() >= 2:
        moved = False
        # the first free color of this ranking is the least-count one
        ranked = sorted(range(k), key=rank)
        for y in order:
            beta = colors[y]
            top = count_of(beta) - 2
            if count_of(ranked[0]) > top:
                continue
            seen = {colors[w] for w in adj[y]}
            for alpha in ranked:
                if count_of(alpha) > top:
                    break
                if alpha not in seen:
                    _recolor(out, y, alpha)
                    ranked.sort(key=rank)
                    moved = True
                    break

    assert is_proper(g, out)
    for v in frozen_set:
        assert out.get(v) == f.get(v), "frozen vertices must keep their colors"
    if out.gap() >= 2:
        # every unfrozen vertex sees each class 2 or more below its own
        for y in order:
            top = count_of(colors[y]) - 2
            seen = {colors[w] for w in adj[y]}
            assert all(a in seen for a in range(k) if count_of(a) <= top), \
                "fixpoint guarantee violated"
    return out


@dataclass
class ClaimVerdict:
    name: str
    statement: str
    lhs: Fraction
    rhs: Fraction
    verdict: str                      # "holds" | "holds-with-slack" | "fails"
    slack_allowed: Fraction
    vacuous: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "verdict": self.verdict,
            "slack_allowed": str(self.slack_allowed),
            "vacuous": self.vacuous,
            "details": {k: str(v) for k, v in self.details.items()},
        }


def _verdict(lhs: Fraction, rhs: Fraction, slack: Fraction, strict: bool = False) -> str:
    if (lhs < rhs) if strict else (lhs <= rhs):
        return "holds"
    if (lhs < rhs + slack) if strict else (lhs <= rhs + slack):
        return "holds-with-slack"
    return "fails"


def _claim(
    name: str, statement: str, lhs: Fraction, rhs: Fraction, slack: Fraction,
    strict: bool = False, vacuous: bool = False, details: dict | None = None,
) -> ClaimVerdict:
    """One report row: lhs <= rhs (lhs < rhs when strict), judged by `_verdict`."""
    return ClaimVerdict(name, statement, lhs, rhs, _verdict(lhs, rhs, slack, strict),
                        slack, vacuous, details or {})


@dataclass
class PipelineReport:
    n: int
    delta: int
    average_degree: Fraction
    x_set: tuple[int, ...]
    dense_coloring: list                     # D+1 coloring of the subgraph on X
    dominated_coloring: list                 # D-coloring of X; None outside X
    extended_coloring: list                  # greedy extension to the whole graph
    final_coloring: list
    claims: list[ClaimVerdict]
    final_counts: tuple[int, ...]
    final_gap: int

    def claim(self, name: str) -> ClaimVerdict:
        return next(c for c in self.claims if c.name == name)

    def all_verdicts_ok(self) -> bool:
        return all(c.verdict in ("holds", "holds-with-slack") for c in self.claims)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "delta": self.delta,
            "average_degree": str(self.average_degree),
            "x_set": list(self.x_set),
            "final_counts": list(self.final_counts),
            "final_gap": self.final_gap,
            "claims": [c.to_dict() for c in self.claims],
        }, indent=2)


def _evaluate_claims(
    g: Graph,
    delta: int,
    x_set: tuple[int, ...],
    hstar_counts: tuple[int, ...],
    f: PartialColoring,
) -> list[ClaimVerdict]:
    n = g.n
    slack = Fraction(delta + 1, n)
    counts = f.counts()
    # per-color counts of the vertices outside X
    outside = list(counts)
    for v in x_set:
        outside[f.get(v)] -= 1
    share = Fraction(len(x_set), delta + 1)
    sorted_counts = sorted(hstar_counts)
    # the worst verdict over both bounds of every s comes first in this order
    rank = ("fails", "holds-with-slack", "holds")
    worst = min((
        v for s in range(1, delta + 1) for v in (
            _verdict(s * share, Fraction(sum(sorted_counts[:s])), slack * n),
            _verdict(Fraction(sum(sorted_counts[-s:])), (s + 1) * share, slack * n),
        )
    ), key=rank.index)

    small = [a for a in range(delta) if counts[a] * delta < n]
    big = [a for a in range(delta) if counts[a] * delta >= n]
    xi = Fraction(len(small), delta)
    mu_big = Fraction(sum(counts[b] for b in big), n)
    mu_v_minus = Fraction(sum(counts[b] - outside[b] for b in big), n)

    def outside_from(floor: int) -> int:
        return sum(outside[c] for c in range(delta) if counts[c] >= floor)

    # the balance fixpoint only constrains class pairs differing by >= 2,
    # so the overfull side is measured against each small class at gap 2
    worst_v = max((Fraction(outside_from(counts[a] + 2), n) for a in small),
                  default=Fraction(0))
    far_above = outside_from(max(counts[a] for a in small) + 2) if small else 0
    lhs7 = Fraction(2 * delta, 5) * mu_v_minus + len(small) * Fraction(far_above, n)

    return [
        _claim("I", "dense set covers at most a quarter of the vertices",
               Fraction(len(x_set), n), Fraction(1, 4), slack),
        ClaimVerdict(
            "II", "unions of s dense-subgraph classes weigh between s and s+1 shares",
            Fraction(min(hstar_counts)), share, worst, slack,
            details={"class_counts": tuple(hstar_counts)},
        ),
        _claim("III", "below-share colors span less than 4/5 of the palette",
               xi, Fraction(4, 5), slack, strict=True, vacuous=not small,
               details={"small_colors": tuple(small)}),
        _claim("IV", "at-share classes carry at least their numeric share",
               1 - xi, mu_big, slack),
        _claim("V", "vertices two above a below-share class fill less than 7/10",
               worst_v, Fraction(7, 10), slack, strict=True, vacuous=not small),
        _claim("VI", "at-share mass inside the dense set stays below half the remainder",
               mu_v_minus, (1 - xi) / 2, slack, strict=True),
        _claim("VII", "dense-set cost floor plus forced adjacencies fit the degree budget",
               lhs7, Fraction(delta, 10), slack * delta, vacuous=not small,
               details={"far_above": far_above, "xi": xi} if small else None),
        _claim("VIII", "below-share colors span less than 2/5 of the palette",
               xi, Fraction(2, 5), slack, strict=True, vacuous=not small),
    ]


def equitable_delta_coloring(
    g: Graph, delta: int
) -> tuple[PartialColoring, PipelineReport]:
    """Total proper coloring with palette size = max degree on a sparse
    graph, with a near-equitable class profile and a full claim report."""
    _require(g.n > 0, "empty graph", "n", n=0)
    _require(delta == g.max_degree, f"palette {delta} must equal the max degree "
             f"{g.max_degree}", "delta", delta=delta, max_degree=g.max_degree)
    _require(delta >= 3, f"max degree must be at least 3, got {delta}", "delta", delta=delta)
    _require(not contains_clique(g, delta + 1),
             f"graph contains a clique on {delta + 1} vertices", "clique", q=delta + 1)
    avg, bound = average_degree(g), Fraction(delta, 5)
    _require(avg <= bound, f"average degree {avg} exceeds {bound}", "average_degree",
             average_degree=avg, bound=bound)

    # one pinned greedy (D+1)-coloring serves the dense-set rounds and the
    # balancer's batches; the colorings built here go to the unchecked cores
    aux = greedy_extend_full(g, delta + 1)
    x_set = _dense_set(g, Fraction(2 * delta, 5), aux)
    # X takes every vertex of degree >= ceil(4D/5), and 4D/5 < D, so it
    # holds a max-degree vertex: X is never empty
    assert 4 * len(x_set) <= g.n, "dense set exceeded a quarter of the graph"

    sub, mapping = g.induced_subgraph(x_set)
    h, _ = equitable_k_coloring(sub, delta + 1)
    # uncolor the largest class and shift the colors above it down by one
    drop = max(range(delta + 1), key=lambda c: (h.counts()[c], -c))
    sub_seed = PartialColoring(sub.n, delta, [
        None if c == drop else c - (c > drop) for c in h.as_list()
    ])
    hstar = dominating_delta_coloring(sub, sub_seed, delta)
    hstar_counts = hstar.counts()
    floor_share = len(x_set) // (delta + 1)
    assert all(c >= floor_share for c in hstar_counts), \
        "dominated classes fell below the floor share"
    g_ext = PartialColoring(g.n, delta)
    for new, old in enumerate(mapping):
        g_ext.assign(old, hstar.get(new))

    _greedy_fill(g, ListAssignment.uniform(g.n, delta), g_ext, range(g.n))
    assert g_ext.is_total(), \
        "low outside degrees must force a total greedy extension"

    frozen = frozenset(x_set)
    f = _quick_balance(g, g_ext, frozen, aux)
    hstar_list = [g_ext.get(v) if v in frozen else None for v in range(g.n)]
    claims = _evaluate_claims(g, delta, x_set, hstar_counts, f)
    report = PipelineReport(
        n=g.n, delta=delta, average_degree=avg, x_set=x_set,
        dense_coloring=h.as_list(), dominated_coloring=hstar_list,
        extended_coloring=g_ext.as_list(), final_coloring=f.as_list(),
        claims=claims, final_counts=f.counts(), final_gap=f.gap(),
    )
    return f, report
