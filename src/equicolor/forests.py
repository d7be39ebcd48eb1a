"""Anchored one-ended subforests and the height-stratified dominating
recoloring built on them.

A forest here is a parent map on the non-anchor vertices pointing along
edges toward an anchor set that meets every component, with no cycles.  The
height of a vertex is the length of the longest parent-chain below it; the
recoloring sweeps strata of equal height, letting each still-uncolored
vertex steal its parent's color (the parent becomes uncolored and will be
handled at its own, strictly larger, height).  Stolen colors never shrink a
class without an equal replacement entering it, which is what makes the
final coloring dominate the seed; the witness map records where each seed
vertex's color went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .colorings import (
    ListAssignment,
    PartialColoring,
    _greedy_fill,
    dominates,
    greedy_maximal,
    is_proper,
    palette_size,
)
from .domination import _anchored_block_coloring, _restrict
from .errors import (
    ComponentMissesAnchor,
    ImproperSeed,
    OutOfRange,
    PaletteTooSmall,
    RegularGallaiComponent,
    debug_checks_enabled,
)
from .graphs import Graph, _anchor_blocks, components


@dataclass
class OneEndedForest:
    anchors: frozenset[int]
    parent: dict[int, int]          # defined exactly on non-anchor vertices
    heights: tuple[int, ...]

    def max_height(self) -> int:
        return max(self.heights, default=0)

    def validate(self, g: Graph) -> None:
        for v in range(g.n):
            if v in self.anchors:
                assert v not in self.parent
            else:
                p = self.parent[v]
                assert g.has_edge(v, p), f"parent of {v} is not a neighbor"
                assert self.heights[p] > self.heights[v], "heights must rise along parents"
        # no parent cycles: every chain must reach an anchor within n steps
        for v in range(g.n):
            x, steps = v, 0
            while x not in self.anchors:
                x = self.parent[x]
                steps += 1
                assert steps <= g.n, f"parent chain from {v} does not terminate"


def build_one_ended_subforest(g: Graph, anchors: Iterable[int]) -> OneEndedForest:
    """Multi-source BFS from the anchor set; parents point toward the
    anchors, heights are the longest child-chain lengths."""
    anchor_set = frozenset(anchors)
    if g.n and not anchor_set:
        raise ComponentMissesAnchor("anchor set is empty")
    parent: dict[int, int] = {}
    dist = [-1] * g.n
    queue: list[int] = sorted(anchor_set)
    for a in queue:
        dist[a] = 0
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in g.adjacency(v):
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                parent[w] = v
                queue.append(w)
    missing = [v for v in range(g.n) if dist[v] == -1]
    if missing:
        raise ComponentMissesAnchor(
            f"no anchor in the component of vertex {missing[0]}"
        )
    heights = [0] * g.n
    for v in sorted(range(g.n), key=lambda u: -dist[u]):
        if v not in anchor_set:
            p = parent[v]
            heights[p] = max(heights[p], heights[v] + 1)
    forest = OneEndedForest(anchor_set, parent, tuple(heights))
    if debug_checks_enabled():
        forest.validate(g)
    return forest


def forest_recolor(
    g: Graph,
    forest: OneEndedForest,
    seed: PartialColoring,
    k,
) -> tuple[PartialColoring, dict[int, int]]:
    """Proper partial coloring covering every non-anchor vertex and
    dominating the seed, together with the witness map.

    Sweeps strata by height on one working coloring.  At each stage the
    coloring is first greedily maximalized (after stage 0 only the parents
    that lost their color and their uncolored neighbors can be colorable);
    an uncolored stratum vertex then has exactly one neighbor of every color
    (this needs palette size >= max degree), so it can take its parent's
    color while the parent is uncolored.  The witness map sends each vertex
    that kept its seed color to itself and every other vertex to its parent;
    its image over a class covers the seed's class.
    """
    ksize = palette_size(k)
    if ksize < g.max_degree:
        raise PaletteTooSmall(
            f"stratified recoloring needs palette >= max degree {g.max_degree}"
        )
    if seed.n != g.n or seed.k != ksize:
        raise ImproperSeed("seed shape mismatch")
    if len(forest.heights) != g.n:
        raise OutOfRange(f"forest covers {len(forest.heights)} vertices, graph has {g.n}")
    if not is_proper(g, seed):
        raise ImproperSeed("seed not proper")

    lists = ListAssignment.uniform(g.n, ksize)
    debug = debug_checks_enabled()
    strata: list[list[int]] = [[] for _ in range(forest.max_height() + 1)]
    for v, hv in enumerate(forest.heights):
        if v not in forest.anchors:
            strata[hv].append(v)
    f = seed.copy()
    stolen = [False] * g.n
    frontier: Iterable[int] = range(g.n)

    for stage, stratum in enumerate(strata):
        prev = f.copy() if debug else f
        _greedy_fill(g, lists, f, frontier)
        stealers = {x: f.get(forest.parent[x]) for x in stratum if not f.is_assigned(x)}
        if debug:
            assert f == greedy_maximal(g, lists, prev), "frontier fill missed a vertex"
            for x, c in stealers.items():
                assert sum(1 for w in g.adjacency(x) if f.get(w) == c) == 1, \
                    "parent must be the unique neighbor with its color"
        stolen_from = {forest.parent[x] for x in stealers}
        for p in stolen_from:
            f.unassign(p)
            stolen[p] = True
        for x, c in stealers.items():
            assert c is not None, "maximal coloring left an uncolored neighbor"
            f.assign(x, c)
        frontier = sorted(stolen_from.union(
            w for p in stolen_from for w in g.adjacency(p) if not f.is_assigned(w)
        ))
        if debug:
            assert is_proper(g, f)
            for v in range(g.n):
                if forest.heights[v] < stage and prev.is_assigned(v):
                    assert f.get(v) == prev.get(v), "settled strata must not change"
                if forest.heights[v] < stage + 1 and v not in forest.anchors:
                    assert f.is_assigned(v), "swept strata must be covered"
            for alpha in range(ksize):
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

    psi = {
        v: v if (v in forest.anchors or (seed.is_assigned(v) and not stolen[v]))
        else forest.parent[v]
        for v in range(g.n)
    }
    for v in range(g.n):
        if v not in forest.anchors:
            assert f.is_assigned(v), "non-anchor vertex left uncolored"
    assert dominates(f, seed, range(ksize))
    for alpha in range(ksize):
        image = {psi[v] for v in range(g.n) if f.get(v) == alpha}
        assert all(
            y in image for y in range(g.n) if seed.get(y) == alpha
        ), "witness map must cover the seed class"
    return f, psi


def dominating_delta_coloring(
    g: Graph, seed: PartialColoring, k
) -> PartialColoring:
    """Total proper coloring with palette size = max degree (or larger)
    dominating the seed.

    Per component: if some vertex has degree below the palette size, the
    low-degree vertices anchor the forest and greedy maximality colors them
    afterwards; otherwise the component must not be a Gallai tree, and one
    of its blocks that is neither a clique nor an odd cycle is anchored and
    finished on its own by the anchored-block path of the dominating
    list-coloring solver.  Components that are
    full-degree-regular Gallai trees are rejected: a finite connected
    k-regular Gallai tree is a complete graph on k+1 vertices or (k = 2) an
    odd cycle, since any end-block of a multi-block Gallai tree contains a
    non-cut vertex of too-small degree.  So for k >= 3 with no clique on
    k+1 vertices the rejected case never occurs.
    """
    ksize = palette_size(k)
    if ksize < g.max_degree:
        raise PaletteTooSmall(
            f"palette {ksize} below max degree {g.max_degree}"
        )
    if seed.n != g.n or seed.k != ksize:
        raise ImproperSeed("seed shape mismatch")
    if not is_proper(g, seed):
        raise ImproperSeed("seed not proper")
    if g.n == 0:
        return seed.copy()

    full = [comp for comp in components(g) if min(map(g.degree, comp)) == ksize]
    block_anchored = _anchor_blocks(g, full)
    for comp, block in zip(full, block_anchored):
        if block is None:
            raise RegularGallaiComponent(
                f"component {comp} is {ksize}-regular and a Gallai tree",
                component=tuple(comp),
            )
    anchors = {v for v in range(g.n) if g.degree(v) < ksize}.union(*block_anchored)

    forest = build_one_ended_subforest(g, anchors)
    f, _ = forest_recolor(g, forest, seed, ksize)
    lists = ListAssignment.uniform(g.n, ksize)
    _greedy_fill(g, lists, f, range(g.n))

    for block in block_anchored:
        # g outside the anchored blocks is colored and stays fixed, so only
        # the block is peeled and solved
        h, mapping, h_lists, h_seed = _restrict(g, lists, f, block)
        f_block = _anchored_block_coloring(h, h_lists, h_seed, frozenset(range(h.n)))
        for new, old in enumerate(mapping):
            f.assign(old, f_block.get(new))

    assert f.is_total(), "maximality must finish low-degree anchors"
    assert is_proper(g, f)
    assert dominates(f, seed, range(ksize))
    return f
