"""The height-stratified dominating recoloring on an anchored one-ended
subforest (`graphs.OneEndedForest`), and dominating max-degree colorings
built on the same sweep.

The recoloring is the forest sweep of `colorings._forest_sweep` with the
whole palette as every list: each still-uncolored vertex steals its
parent's color, and the parent is handled at its own, strictly larger,
height.  Stolen colors never shrink a class without an equal replacement
entering it, which is what makes the final coloring dominate the seed; the
witness map records where each seed vertex's color went.

`dominating_delta_coloring` runs that sweep once, through the anchored
core `domination._anchored_block_coloring`, toward the low-degree vertices
and one block pivot per full-degree component.
"""

from __future__ import annotations

from .colorings import (
    ListAssignment,
    PartialColoring,
    _check_coloring,
    _forest_sweep,
    dominates,
    palette_size,
)
from .domination import _anchored_block_coloring
from .errors import ImproperSeed, RegularGallaiComponent
from .graphs import (
    Graph,
    OneEndedForest,
    _anchor_blocks,
    build_one_ended_subforest,  # re-exported: the forest builder's public home
    components,
)


def forest_recolor(
    g: Graph,
    forest: OneEndedForest,
    seed: PartialColoring,
    k,
) -> tuple[PartialColoring, dict[int, int]]:
    """Proper partial coloring covering every non-anchor vertex and
    dominating the seed, together with the witness map.

    The forest sweep of `colorings._forest_sweep` with every list the whole
    palette (so the palette must be at least the max degree).  The witness
    map sends each vertex that kept its seed color to itself and every
    other vertex to its parent; its image over a class covers the seed's
    class.  The forest must be one of g (`OneEndedForest.validate`).
    """
    ksize = palette_size(k, g.max_degree)
    _check_coloring(g, seed, ksize, error=ImproperSeed)
    forest.validate(g)
    f, stolen = _forest_sweep(g, ListAssignment.uniform(g.n, ksize), seed, forest)
    psi = {
        v: v if (v in forest.anchors or (seed.is_assigned(v) and not stolen[v]))
        else forest.parent[v]
        for v in range(g.n)
    }
    for v in range(g.n):
        if v not in forest.anchors:
            assert f.is_assigned(v), "non-anchor vertex left uncolored"
    assert dominates(f, seed, range(ksize))
    images = {(psi[v], c) for v, c in enumerate(f.colors) if c is not None}
    assert all(
        (y, c) in images for y, c in enumerate(seed.colors) if c is not None
    ), "witness map must cover the seed class"
    return f, psi


def dominating_delta_coloring(
    g: Graph, seed: PartialColoring, k
) -> PartialColoring:
    """Total proper coloring with palette size = max degree (or larger)
    dominating the seed.

    One forest sweep with every list the whole palette covers the graph.
    Per component: if some vertex has degree below the palette size, the
    low-degree vertices anchor the forest and the sweep's last, maximalizing
    stage colors them; otherwise the component must not be a Gallai tree,
    the forest is anchored at the least vertex of one of its blocks that is
    neither a clique nor an odd cycle, and if the sweep leaves that vertex
    stuck the block alone is solved by the hole walk of the dominating
    list-coloring solver.  Components that are full-degree-regular Gallai
    trees are rejected: a finite connected k-regular Gallai tree is a
    complete graph on k+1 vertices or (k = 2) an odd cycle, since any
    end-block of a multi-block Gallai tree contains a non-cut vertex of
    too-small degree.  So for k >= 3 with no clique on k+1 vertices the
    rejected case never occurs.
    """
    ksize = palette_size(k, g.max_degree)
    _check_coloring(g, seed, ksize, error=ImproperSeed)

    degrees = g.degrees
    full = [comp for comp in components(g) if min(map(degrees.__getitem__, comp)) == ksize]
    blocks = _anchor_blocks(g, full)
    for comp, block in zip(full, blocks):
        if block is None:
            raise RegularGallaiComponent(
                f"component {comp} is {ksize}-regular and a Gallai tree",
                component=tuple(comp),
            )
    low = [v for v, d in enumerate(degrees) if d < ksize]
    return _anchored_block_coloring(g, ListAssignment.uniform(g.n, ksize), seed, low, blocks)
