"""Partial colorings, list assignments, greedy maximal constructions, and
the per-color-count domination order.

Each public entry point checks its inputs once, through one set of
helpers that raise the error type the caller names: `graphs._check_vertices`
(ids in [0, n)), `_check_coloring` (size, palette, totality, properness,
list membership) and `_check_lists` (size, degree lists).  Internal stages
call the unchecked private cores; each entry point asserts its output once.

Every greedy construction here uses one first-fit rule, `_greedy_fill`:
an uncolored vertex takes the smallest color of its list that no neighbor
has.  It scans `ListAssignment.ordered`, a cached view holding each list as
one ascending tuple (equal lists share one tuple, so uniform lists cost one
sort), and stops at the first free color.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    EquicolorError,
    ImproperInput,
    ImproperSeed,
    NotIndependent,
    OutOfRange,
    PaletteTooSmall,
    debug_checks_enabled,
)
from .graphs import Graph, OneEndedForest, _check_vertices


def palette_size(k: int, least: int = 1) -> int:
    """k as a palette size: OutOfRange below 1, PaletteTooSmall below `least`."""
    size = int(k)
    if size < 1:
        raise OutOfRange(f"palette size must be >= 1, got {size}")
    if size < least:
        raise PaletteTooSmall(f"palette {size} is below {least}")
    return size


class PartialColoring:
    """Map from a subset of vertices to colors 0..k-1 with cached class counts.
    `colors[v]` is v's color, or None: a public read-only view that callers
    never mutate; colors change only through `assign`, `unassign` and
    `_recolor`."""

    __slots__ = ("k", "colors", "_counts")

    def __init__(self, n: int, k, assignment: Optional[Sequence[Optional[int]]] = None):
        self.k = palette_size(k)
        self.colors: list[Optional[int]] = [None] * n if assignment is None else list(assignment)
        if len(self.colors) != n:
            raise OutOfRange(f"assignment length {len(self.colors)} != n {n}")
        self._counts = [0] * self.k
        for c in self.colors:
            if c is None:
                continue
            if not (0 <= c < self.k):
                raise OutOfRange(f"color {c} outside palette of size {self.k}")
            self._counts[c] += 1

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def domain_size(self) -> int:
        return sum(self._counts)

    def get(self, v: int) -> Optional[int]:
        return self.colors[v]

    def is_assigned(self, v: int) -> bool:
        return self.colors[v] is not None

    def assign(self, v: int, c: int) -> None:
        if not (0 <= c < self.k):
            raise OutOfRange(f"color {c} outside palette of size {self.k}")
        _recolor(self, v, c)

    def unassign(self, v: int) -> None:
        _recolor(self, v, None)

    def counts(self) -> tuple[int, ...]:
        return tuple(self._counts)

    def count_of(self, c: int) -> int:
        return self._counts[c] if 0 <= c < self.k else 0

    def domain(self) -> list[int]:
        return [v for v, c in enumerate(self.colors) if c is not None]

    def is_total(self) -> bool:
        return sum(self._counts) == len(self.colors)

    def gap(self) -> int:
        return max(self._counts) - min(self._counts)

    def as_list(self) -> list[Optional[int]]:
        return list(self.colors)

    def copy(self) -> "PartialColoring":
        # the source already satisfies every invariant __init__ would check
        out = object.__new__(PartialColoring)
        out.k = self.k
        out.colors = list(self.colors)
        out._counts = list(self._counts)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialColoring)
            and self.k == other.k
            and self.colors == other.colors
        )

    def __repr__(self) -> str:
        return f"PartialColoring(n={self.n}, k={self.k}, dom={self.domain_size})"


def _recolor(f: PartialColoring, v: int, c: Optional[int]) -> None:
    """Give v the color c, or uncolor it when c is None, with no palette
    check: the one write path, for cores whose colors are in the palette
    by construction."""
    old = f.colors[v]
    if old is not None:
        f._counts[old] -= 1
    if c is not None:
        f._counts[c] += 1
    f.colors[v] = c


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex finite color sets."""

    lists: tuple[frozenset[int], ...]

    def __post_init__(self):
        # uniform lists share one set, so each distinct list is checked once
        if any(min(l) < 0 for l in set(self.lists) if l):
            raise OutOfRange("negative color in a list")

    @classmethod
    def uniform(cls, n: int, k) -> "ListAssignment":
        full = frozenset(range(palette_size(k)))
        return cls((full,) * n)

    @classmethod
    def of(cls, lists: Iterable[Iterable[int]]) -> "ListAssignment":
        return cls(tuple(frozenset(l) for l in lists))

    @cached_property
    def ordered(self) -> tuple[tuple[int, ...], ...]:
        """Each list as an ascending tuple; equal lists share one tuple."""
        memo = {l: tuple(sorted(l)) for l in set(self.lists)}
        return tuple(map(memo.__getitem__, self.lists))

    def __len__(self) -> int:
        return len(self.lists)

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def union_colors(self) -> frozenset[int]:
        return frozenset().union(*set(self.lists))

    def max_color(self) -> int:
        u = self.union_colors()
        return max(u) if u else -1


def is_proper(g: Graph, f: PartialColoring) -> bool:
    """No edge with both endpoints assigned the same color."""
    if f.n != g.n:
        raise ImproperInput(f"coloring covers {f.n} vertices, graph has {g.n}")
    colors = f.colors
    for cu, nbrs in zip(colors, g.adj):
        if cu is not None:
            for w in nbrs:
                if colors[w] == cu:
                    return False
    return True


def is_proper_list_coloring(g: Graph, lists: ListAssignment, f: PartialColoring) -> bool:
    return is_proper(g, f) and all(
        c in l for c, l in zip(f.colors, lists.lists, strict=True) if c is not None
    )


def _check_coloring(
    g: Graph, f: PartialColoring, k: Optional[int] = None, *, error: type[EquicolorError],
    proper: bool = True, total: bool = False, lists: Optional[ListAssignment] = None,
) -> None:
    """Raise `error` unless f covers g, has palette k (if given), is total
    (if asked), is proper (unless proper=False) and keeps to the lists, and
    OutOfRange if a list color lies outside f's palette."""
    if f.n != g.n:
        raise error(f"coloring covers {f.n} vertices, graph has {g.n}")
    if k is not None and f.k != k:
        raise error(f"coloring uses palette {f.k}, expected {k}")
    if total and not f.is_total():
        raise error("coloring is not total")
    if proper and not is_proper(g, f):
        raise error("coloring is not proper")
    if lists is not None:
        bad = [v for v in f.domain() if f.get(v) not in lists[v]]
        if bad:
            raise error(f"color {f.get(bad[0])} at vertex {bad[0]} not in its list")
        if lists.max_color() >= f.k:
            raise OutOfRange(f"list color {lists.max_color()} outside the seed palette {f.k}")


def _check_lists(
    g: Graph, lists: ListAssignment, *, error: type[EquicolorError], degree: bool = False
) -> None:
    """Raise `error` unless the lists cover g and, if `degree`, each is at
    least its vertex's degree."""
    if len(lists) != g.n:
        raise error(f"list assignment covers {len(lists)} vertices, graph has {g.n}")
    short = [v for v in range(g.n) if len(lists[v]) < g.degree(v)] if degree else []
    if short:
        raise error(f"list of vertex {short[0]} is smaller than its degree")


def greedy_maximal(
    g: Graph,
    lists: ListAssignment,
    seed: PartialColoring,
    order: Optional[Sequence[int]] = None,
) -> PartialColoring:
    """Inclusion-maximal proper partial list coloring extending the seed.

    Visits uncolored vertices in the given order (identity by default),
    which must hold every vertex the seed leaves uncolored, and assigns
    the smallest list color not present on already-colored neighbors.  A
    vertex left uncolored has every list color represented in its colored
    neighborhood, so the result is inclusion-maximal.
    """
    _check_lists(g, lists, error=OutOfRange)
    _check_coloring(g, seed, error=ImproperSeed, lists=lists)
    out = seed.copy()
    _greedy_fill(g, lists, out, _fill_order(g, out, order))
    return out


def _fill_order(g: Graph, f: PartialColoring, order: Optional[Sequence[int]]) -> Sequence[int]:
    """The given order, or every vertex; OutOfRange unless it holds only
    vertices of g and every vertex that f leaves uncolored."""
    if order is None:
        return range(g.n)
    _check_vertices(g, order)
    missed = set(range(g.n)).difference(order, f.domain())
    if missed:
        raise OutOfRange(f"order leaves out uncolored vertex {min(missed)}")
    return order


def _greedy_fill(
    g: Graph, lists: ListAssignment, f: PartialColoring, vertices: Iterable[int]
) -> None:
    """In place: each uncolored vertex, in the given order, takes its
    smallest list color absent from its neighbors (first fit).  OutOfRange
    at the first vertex whose color lies outside f's palette."""
    colors, adj, ordered, k = f.colors, g.adj, lists.ordered, f.k
    for v in vertices:
        if colors[v] is None:
            taken = {colors[w] for w in adj[v]}
            for c in ordered[v]:
                if c not in taken:
                    # list colors are nonnegative, so one compare checks c
                    if c >= k:
                        raise OutOfRange(f"color {c} outside palette of size {k}")
                    _recolor(f, v, c)
                    break


def _forest_sweep(
    g: Graph, lists: ListAssignment, seed: PartialColoring, forest: OneEndedForest
) -> tuple[PartialColoring, list[bool]]:
    """Proper partial list coloring covering every non-anchor vertex, with
    class counts at least the seed's, and for each vertex whether a child
    took its color.  Every list must be at least the vertex degree.

    Sweeps strata by height on one working coloring.  At each stage the
    coloring is first greedily maximalized (after stage 0 only the parents
    that lost their color and their uncolored neighbors can be colorable);
    an uncolored stratum vertex then has exactly one neighbor of every list
    color, so it can take its parent's color while the parent is
    uncolored.  The parent has a strictly larger height, so it is handled
    at its own stage, and a class only loses a vertex to a child entering
    it.
    """
    debug = debug_checks_enabled()
    strata: list[list[int]] = [[] for _ in range(forest.max_height() + 1)]
    for v, hv in enumerate(forest.heights):
        if v not in forest.anchors:
            strata[hv].append(v)
    f = seed.copy()
    colors, adj, parent = f.colors, g.adj, forest.parent
    stolen = [False] * g.n
    frontier: Iterable[int] = range(g.n)

    for stage, stratum in enumerate(strata):
        prev = f.copy() if debug else f
        _greedy_fill(g, lists, f, frontier)
        stealers = {x: colors[parent[x]] for x in stratum if colors[x] is None}
        if debug:
            assert f == greedy_maximal(g, lists, prev), "frontier fill missed a vertex"
            for x, c in stealers.items():
                assert sum(1 for w in g.adjacency(x) if f.get(w) == c) == 1, \
                    "parent must be the unique neighbor with its color"
        stolen_from = {parent[x] for x in stealers}
        for p in stolen_from:
            _recolor(f, p, None)
            stolen[p] = True
        for x, c in stealers.items():
            assert c is not None, "maximal coloring left an uncolored neighbor"
            _recolor(f, x, c)
        frontier = sorted(stolen_from.union(
            w for p in stolen_from for w in adj[p] if colors[w] is None
        ))
        if debug:
            assert is_proper_list_coloring(g, lists, f)
            for v in range(g.n):
                if forest.heights[v] < stage and prev.is_assigned(v):
                    assert f.get(v) == prev.get(v), "settled strata must not change"
                if forest.heights[v] < stage + 1 and v not in forest.anchors:
                    assert f.is_assigned(v), "swept strata must be covered"
            for alpha in range(f.k):
                left = [
                    y for y in range(g.n)
                    if prev.get(y) == alpha and f.get(y) != alpha
                ]
                for y in left:
                    assert any(
                        forest.parent.get(x) == y and f.get(x) == alpha
                        and forest.heights[x] == stage
                        for x in stealers
                    ), "a leaving color needs an entering child"
    return f, stolen


def greedy_extend_full(
    g: Graph,
    k,
    seed: Optional[PartialColoring] = None,
    order: Optional[Sequence[int]] = None,
) -> PartialColoring:
    """Total proper k-coloring extending the seed, a proper coloring with
    palette k; needs k >= max degree + 1, and an order, if given, that
    holds every vertex the seed leaves uncolored."""
    size = palette_size(k, g.max_degree + 1)
    if seed is not None:
        _check_coloring(g, seed, size, error=ImproperSeed)
    out = PartialColoring(g.n, size) if seed is None else seed.copy()
    lists = ListAssignment.uniform(g.n, size)
    _greedy_fill(g, lists, out, _fill_order(g, out, order))
    assert out.is_total(), "greedy cannot block when every list exceeds the degree"
    return out


def maximal_independent_superset(g: Graph, j: Iterable[int]) -> frozenset[int]:
    """Maximal independent set containing the given independent set."""
    j = frozenset(j)
    _check_vertices(g, j)
    for v in j:
        if any(w in j for w in g.adjacency(v)):
            raise NotIndependent(f"input set has an edge at vertex {v}")
    f = PartialColoring(g.n, 1, [0 if v in j else None for v in range(g.n)])
    _greedy_fill(g, ListAssignment.uniform(g.n, 1), f, range(g.n))
    return frozenset(f.domain())


def dominates(f: PartialColoring, h: PartialColoring, colors: Iterable[int]) -> bool:
    """True iff f's class counts are >= h's for every listed color."""
    if f.n != h.n:
        raise ImproperInput(f"colorings cover {f.n} and {h.n} vertices")
    return all(f.count_of(a) >= h.count_of(a) for a in colors)
