"""Dominating list colorings on connected graphs that are not Gallai trees.

Given a degree-list assignment (every list at least as large as the vertex
degree) and a proper partial list coloring, the solver produces a total
proper list coloring whose per-color class counts are at least those of the
seed.  One forest sweep (`colorings._forest_sweep`) on the breadth-first
forest toward a set of anchors colors every vertex but possibly the
anchors: an uncolored vertex takes its parent's color and passes the hole
on toward the anchors, so counts never fall.  An anchor whose list exceeds
its degree is always filled by the sweep's last stage.  The other anchors
are pivots, each the least vertex of a block that is neither a clique nor
an odd cycle, found by one counted block pass (`graphs._anchor_blocks`)
per call.  If the sweep leaves a pivot uncolored, its block alone (its
lists less the colors of its outside neighbors) is solved by a hole walk:
the uncolored vertex takes a neighbor's color and passes the hole on,
along shortest paths chosen so that the hole ends at a vertex with a free
color.  Class counts never change on the way, and the walk makes at most
2n - 2 shifts on an n-vertex block (see `_solve_block`).

`_anchored_block_coloring` is that construction.  `dominating_full_coloring`,
`large_list_shortcut` and `forests.dominating_delta_coloring` all finish
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .colorings import (
    ListAssignment,
    PartialColoring,
    _check_coloring,
    _check_lists,
    _forest_sweep,
    _recolor,
    dominates,
    is_proper_list_coloring,
)
from .errors import GallaiTree, ImproperSeed, NotConnected, NotDegreeList, OutOfRange
from .graphs import (
    Graph,
    _anchor_blocks,
    _bfs,
    _check_vertices,
    build_one_ended_subforest,
    components,
)


@dataclass(frozen=True)
class DominationInstance:
    graph: Graph
    lists: ListAssignment
    seed: PartialColoring
    pivot: Optional[int] = None


def _validate(inst: DominationInstance, need_pivot: bool = False) -> None:
    g, lists, seed = inst.graph, inst.lists, inst.seed
    count = len(components(g))
    if count != 1:
        raise NotConnected(f"graph has {count} components, need 1")
    _check_lists(g, lists, error=NotDegreeList, degree=True)
    _check_coloring(g, seed, error=ImproperSeed, lists=lists)
    if need_pivot and inst.pivot is None:
        raise OutOfRange("pivot vertex required")
    if inst.pivot is not None:
        _check_vertices(g, [inst.pivot], "pivot")


def color_all_but_one(inst: DominationInstance) -> PartialColoring:
    """Proper partial list coloring with domain covering everything except
    possibly the pivot, dominating the seed: the forest sweep toward the
    pivot.  Its last stage fills the pivot if a list color is free."""
    _validate(inst, need_pivot=True)
    g = inst.graph
    out, _ = _forest_sweep(g, inst.lists, inst.seed, build_one_ended_subforest(g, [inst.pivot]))
    assert dominates(out, inst.seed, inst.lists.union_colors())
    return out


def large_list_shortcut(inst: DominationInstance) -> Optional[PartialColoring]:
    """Total dominating coloring via a vertex whose list exceeds its degree
    (a spare color always fills it); None when no such vertex exists."""
    _validate(inst)
    g, lists = inst.graph, inst.lists
    x = next((v for v in range(g.n) if len(lists[v]) > g.degrees[v]), None)
    if x is None:
        return None
    return _anchored_block_coloring(g, lists, inst.seed, [x], [])


def _lovasz_triple(h: Graph) -> tuple[int, int, int]:
    """A vertex x with non-adjacent neighbors a, b such that h - {a, b} is
    connected.  Lovász (1975) shows one exists in every 2-connected regular
    graph of degree >= 3 that is not complete.  Trying every candidate costs
    O(n * deg^2 * (n + m)) at worst; in a 3-connected graph the first
    non-adjacent pair is accepted."""
    triple = next((
        (x, a, b)
        for x in range(h.n)
        for i, a in enumerate(h.adj[x])
        for b in h.adj[x][i + 1:]
        if not h.has_edge(a, b) and len(_bfs(h, [x], frozenset((a, b)))[0]) == h.n - 2
    ), None)
    assert triple is not None, "a non-complete 2-connected regular block has a Lovász triple"
    return triple


def _solve_block(
    h: Graph, lists: ListAssignment, seed: PartialColoring, pivot: int
) -> PartialColoring:
    """Total dominating list coloring of a 2-connected block that is neither
    a clique nor an odd cycle, from a seed coloring every vertex but the
    pivot, with every list at least the vertex degree.

    The uncolored vertex is the hole.  A hole with a free list color takes
    it and the solve ends.  A stuck hole sees each of its list colors on
    exactly one neighbor, so it can take any neighbor's color, and that
    neighbor becomes the hole.  Class counts never change, so filling the
    hole always dominates the seed.  `walk(to, avoid)` moves the hole along
    a shortest path to `to` in h - avoid and fills it at the first vertex
    with a free color:

    1. The pivot is stuck, or the sweep before the solve would have filled
       it.  This settles every even cycle: its colored path alternates, so
       the pivot's two neighbors agree.
    2. Walk to a vertex whose list exceeds its degree; it is never stuck.
    3. Else, for an edge xy with beta in L(x) - L(y), walk to x.  If x is
       stuck it takes beta from its one beta-neighbor, and the hole walks
       to y in h - x (connected, h is 2-connected).  y has a free color
       there, because its neighbor x holds a color outside L(y).
    4. Else all lists are equal and h is regular of degree >= 3.  Take a
       Lovász triple x, a, b and walk to a.  If a is stuck it takes b's
       color from its one neighbor holding it, and the hole walks to x in
       h - {a, b}, where x sees that color twice.

    Each walk follows a shortest path, so the solve makes at most
    (n - 1) + 1 + (n - 2) = 2n - 2 shifts.
    """
    n = h.n
    assert all((seed.colors[v] is not None) == (v != pivot) for v in range(n)), (
        "the block seed must color every vertex except the pivot"
    )
    assert lists[pivot] <= {seed.colors[w] for w in h.adj[pivot]}, "the pivot is stuck"
    f = seed.copy()
    hole = pivot

    def fill() -> bool:
        free = lists[hole] - {f.colors[w] for w in h.adj[hole]}
        if free:
            _recolor(f, hole, min(free))
        return bool(free)

    def take(c: int) -> None:
        # a stuck hole sees each of its list colors on exactly one neighbor
        nonlocal hole
        y = next(w for w in h.adj[hole] if f.colors[w] == c)
        _recolor(f, y, None)
        _recolor(f, hole, c)
        hole = y

    def walk(to: int, avoid: frozenset[int] = frozenset()) -> bool:
        toward = _bfs(h, [to], avoid)[1]
        while not fill():
            if hole == to:
                return False
            take(f.colors[toward[hole]])
        return True

    ls = lists.lists
    surplus = next((v for v in range(n) if len(ls[v]) > h.degrees[v]), None)
    if surplus is not None:
        done = walk(surplus)
    elif len(set(ls)) > 1:
        # h is connected, so some edge joins two unequal lists
        x, y = next((x, y) for x in range(n) for y in h.adj[x] if not ls[x] <= ls[y])
        done = walk(x)
        if not done:
            take(min(ls[x] - ls[y]))
            done = walk(y, frozenset((x,)))
    else:
        assert len(lists[hole]) >= 3, "an even cycle is settled at the pivot"
        x, a, b = _lovasz_triple(h)
        done = walk(a)
        if not done:
            take(f.colors[b])
            done = walk(x, frozenset((a, b)))
    assert done, "the walk's last vertex always has a free color"
    return f


def _restrict(
    g: Graph, lists: ListAssignment, f: PartialColoring, block: frozenset[int]
) -> tuple[Graph, tuple[int, ...], ListAssignment, PartialColoring]:
    """The block's induced subgraph and its mapping to g, the block's lists
    less the colors of colored neighbors outside it, and f restricted to
    the block."""
    if len(block) == g.n:
        # no outside, as on a 2-connected regular graph: copy no graph
        return g, tuple(range(g.n)), lists, f.copy()
    h, mapping = g.induced_subgraph(block)
    h_lists = ListAssignment(tuple(
        lists[old] - {f.colors[w] for w in g.adj[old]
                      if w not in block and f.colors[w] is not None}
        for old in mapping
    ))
    return h, mapping, h_lists, PartialColoring(h.n, f.k, [f.colors[old] for old in mapping])


def _anchored_block_coloring(
    g: Graph, lists: ListAssignment, seed: PartialColoring,
    anchors: Iterable[int], blocks: Sequence[frozenset[int]],
) -> PartialColoring:
    """Total dominating list coloring of g from one forest sweep toward the
    anchors and the least vertex of each block.  Every anchor must have a
    list larger than its degree, so the sweep's last stage colors it, and
    every block must be neither a clique nor an odd cycle; each component
    needs an anchor or a block.  A block pivot the sweep leaves uncolored
    is stuck, and its block is solved with the rest of g fixed."""
    pivots = [min(b) for b in blocks]
    f, _ = _forest_sweep(g, lists, seed, build_one_ended_subforest(g, {*anchors, *pivots}))
    for block, u in zip(blocks, pivots):
        if f.colors[u] is None:
            h, mapping, h_lists, h_seed = _restrict(g, lists, f, block)
            # the mapping is sorted, so u is vertex 0 of the block
            f_block = _solve_block(h, h_lists, h_seed, 0)
            for new, old in enumerate(mapping):
                f.assign(old, f_block.colors[new])

    assert f.is_total() and is_proper_list_coloring(g, lists, f)
    assert dominates(f, seed, lists.union_colors())
    return f


def dominating_full_coloring(inst: DominationInstance) -> PartialColoring:
    """Total proper list coloring dominating the seed, for a connected graph
    that is not a Gallai tree with a degree-list assignment."""
    _validate(inst)
    g = inst.graph
    [block] = _anchor_blocks(g, [range(g.n)])
    if block is None:
        raise GallaiTree("every block is a clique or odd cycle; no guarantee exists")
    return _anchored_block_coloring(g, inst.lists, inst.seed, [], [block])
