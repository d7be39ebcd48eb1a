import random
import sys
from pathlib import Path

import pytest

from equicolor import (
    DominationInstance,
    InstanceSpec,
    PartialColoring,
    build_graph,
    build_one_ended_subforest,
    dominates,
    dominating_delta_coloring,
    dominating_full_coloring,
    forest_recolor,
    components,
    generate,
    is_proper,
)
from equicolor.errors import (
    ComponentMissesAnchor,
    ImproperSeed,
    OutOfRange,
    PaletteTooSmall,
    RegularGallaiComponent,
)
from equicolor import colorings, graphs
from equicolor.graphs import _anchor_blocks, block_decomposition
from equicolor.oracle import domination_exists
from equicolor.colorings import ListAssignment

from conftest import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    random_graph,
    random_partial_list_coloring,
    reference_block_decomposition,
    reference_block_is_clique,
    reference_block_is_odd_cycle,
    star,
    tight_seed,
)


def test_forest_p3():
    g = path(3)
    forest = build_one_ended_subforest(g, {1})
    assert forest.parent == {0: 1, 2: 1}
    assert forest.heights == (0, 1, 0)


def test_forest_all_anchors():
    g = cycle(4)
    forest = build_one_ended_subforest(g, range(4))
    assert forest.parent == {}
    assert forest.heights == (0, 0, 0, 0)


def test_forest_missing_anchor():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ComponentMissesAnchor):
        build_one_ended_subforest(g, {0})
    with pytest.raises(ComponentMissesAnchor):
        build_one_ended_subforest(g, set())
    # an anchor outside the graph raised a bare IndexError (9) or gave
    # parents pointing at vertex -1
    for bad in (9, -1):
        with pytest.raises(OutOfRange):
            build_one_ended_subforest(g, [0, 2, bad])


def test_forest_invariants_random():
    for seed in range(20):
        g = random_graph(12, 0.2, seed)
        rng = random.Random(seed)
        anchors = {rng.choice(comp) for comp in _comps(g)}
        forest = build_one_ended_subforest(g, anchors)
        forest.validate(g)
        # every chain reaches an anchor within n steps
        for v in range(g.n):
            x, steps = v, 0
            while x not in forest.anchors:
                x = forest.parent[x]
                steps += 1
                assert steps <= g.n


def _comps(g):
    from equicolor import components
    return components(g)


def test_forest_recolor_all_anchored_is_maximalize():
    g = cycle(4)
    forest = build_one_ended_subforest(g, range(4))
    seed = PartialColoring(4, 2, [0, None, None, None])
    f, psi = forest_recolor(g, forest, seed, 2)
    assert is_proper(g, f)
    assert f.get(0) == 0
    assert all(psi[v] == v for v in range(4) if f.get(v) == seed.get(v))


def test_forest_recolor_star():
    g = star(4)
    forest = build_one_ended_subforest(g, {0})
    f, _ = forest_recolor(g, forest, PartialColoring(5, 4), 4)
    assert all(f.is_assigned(v) for v in range(1, 5))
    assert is_proper(g, f)


def test_forest_recolor_path_example():
    g = path(4)
    forest = build_one_ended_subforest(g, {3})
    seed = PartialColoring(4, 2, [None, 0, None, None])
    f, psi = forest_recolor(g, forest, seed, 2)
    assert all(f.is_assigned(v) for v in (0, 1, 2))
    assert is_proper(g, f)
    assert f.count_of(0) >= 1
    assert psi[1] == 1 and f.get(1) == 0


def test_forest_recolor_witness_injection():
    # the witness map restricted to a class covers the seed class, and a
    # system of distinct representatives exists because parents are unique
    for seed_idx in range(25):
        g = random_graph(10, 0.25, seed_idx)
        rng = random.Random(seed_idx)
        k = max(g.max_degree, 1)
        anchors = {min(comp) for comp in _comps(g)}
        forest = build_one_ended_subforest(g, anchors)
        seed = PartialColoring(g.n, k)
        for v in range(g.n):
            if rng.random() < 0.5:
                options = [
                    c for c in range(k)
                    if all(seed.get(w) != c for w in g.adjacency(v))
                ]
                if options:
                    seed.assign(v, rng.choice(options))
        f, psi = forest_recolor(g, forest, seed, k)
        assert is_proper(g, f)
        assert dominates(f, seed, range(k))
        for alpha in range(k):
            targets = [y for y in range(g.n) if seed.get(y) == alpha]
            sources = [v for v in range(g.n) if f.get(v) == alpha]
            image = {psi[v] for v in sources}
            assert set(targets) <= image
            # distinct representatives: pick one preimage per target
            used = set()
            for y in targets:
                pick = next(v for v in sources if psi[v] == y and v not in used)
                used.add(pick)


def test_forest_recolor_rejects_bad_seed():
    g = path(3)
    forest = build_one_ended_subforest(g, {0})
    with pytest.raises(ImproperSeed):
        forest_recolor(g, forest, PartialColoring(3, 2, [0, 0, None]), 2)
    with pytest.raises(PaletteTooSmall):
        forest_recolor(star(3), build_one_ended_subforest(star(3), {0}),
                       PartialColoring(4, 2), 2)


def test_forest_recolor_rejects_forest_of_another_graph():
    g = path(4)
    for other in (path(5), path(3)):
        forest = build_one_ended_subforest(other, {0})
        with pytest.raises(OutOfRange):
            forest_recolor(g, forest, PartialColoring(4, 2), 2)


def test_forest_recolor_rejects_foreign_forest_of_same_order():
    # a forest of another cubic graph on the same 8 vertices gave improper
    # colorings or bare AssertionErrors; it is rejected unless every
    # parent is a neighbor in g with a larger height
    rejected = 0
    for seed in range(60):
        g, h = (generate(InstanceSpec.parse("regular:n=8,d=3", 2 * seed + i)) for i in (0, 1))
        forest = build_one_ended_subforest(h, [min(c) for c in components(h)])
        fits = all(g.has_edge(v, p) for v, p in forest.parent.items())
        rng = random.Random(seed)
        colors = [rng.choice([None, 0, 1, 2]) for _ in range(8)]
        seed_coloring = greedy_maximal_seed(g, colors)
        if fits:
            f, _ = forest_recolor(g, forest, seed_coloring, 3)
            assert is_proper(g, f)
        else:
            rejected += 1
            with pytest.raises(OutOfRange):
                forest_recolor(g, forest, seed_coloring, 3)
    assert rejected > 40
    # a forest with parents whose heights do not rise
    g = cycle(4)
    forest = build_one_ended_subforest(g, [0])
    flat = type(forest)(forest.anchors, forest.parent, (0, 0, 0, 0))
    with pytest.raises(OutOfRange):
        forest_recolor(g, flat, PartialColoring(4, 2), 2)


def greedy_maximal_seed(g, colors):
    """The given colors with every edge conflict uncolored."""
    colors = list(colors)
    for u, v in g.edges():
        if colors[u] is not None and colors[u] == colors[v]:
            colors[v] = None
    return PartialColoring(g.n, 3, colors)


def test_delta_coloring_tree():
    g = path(5)
    seed = PartialColoring(5, 2, [0, None, None, None, None])
    f = dominating_delta_coloring(g, seed, 2)
    assert f.is_total() and is_proper(g, f)
    assert f.count_of(0) >= 1


def test_delta_coloring_rejects_regular_gallai():
    with pytest.raises(RegularGallaiComponent):
        dominating_delta_coloring(complete(4), PartialColoring(4, 3), 3)
    with pytest.raises(RegularGallaiComponent):
        dominating_delta_coloring(cycle(5), PartialColoring(5, 2), 2)


def test_delta_coloring_petersen():
    g = petersen()
    seed = PartialColoring(10, 3, [0] + [None] * 9)
    f = dominating_delta_coloring(g, seed, 3)
    assert f.is_total() and is_proper(g, f)
    assert f.count_of(0) >= 1
    assert domination_exists(g, ListAssignment.uniform(10, 3), seed)


def test_delta_coloring_even_cycle():
    g = cycle(6)
    seed = PartialColoring(6, 2, [0, None, 0, None, None, None])
    f = dominating_delta_coloring(g, seed, 2)
    assert f.is_total() and is_proper(g, f)
    assert f.count_of(0) >= 2


def test_delta_coloring_mixed_components():
    # a tree component (case a) plus an even cycle (case b)
    g = build_graph(9, [(0, 1), (1, 2),
                        (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3)])
    seed = PartialColoring(9, 2, [0, None, None, 1, None, None, None, None, None])
    f = dominating_delta_coloring(g, seed, 2)
    assert f.is_total() and is_proper(g, f)
    assert dominates(f, seed, range(2))


def test_delta_coloring_oracle_agreement_small():
    for seed_idx in range(40):
        g = random_graph(7, 0.3, seed_idx)
        k = max(g.max_degree, 3)
        rng = random.Random(seed_idx)
        seed = PartialColoring(g.n, k)
        for v in range(g.n):
            if rng.random() < 0.4:
                options = [
                    c for c in range(k)
                    if all(seed.get(w) != c for w in g.adjacency(v))
                ]
                if options:
                    seed.assign(v, rng.choice(options))
        try:
            f = dominating_delta_coloring(g, seed, k)
        except RegularGallaiComponent:
            continue
        assert f.is_total() and is_proper(g, f)
        assert dominates(f, seed, range(k))
        assert domination_exists(g, ListAssignment.uniform(g.n, k), seed,
                                 budget=_budget())


def _budget():
    from equicolor.oracle import OracleBudget
    return OracleBudget(max_vertices=10, max_palette=8)


def test_delta_coloring_disjoint_regular_components():
    # two K_{3,3} and the 3-cube: every component is 3-regular and not a
    # Gallai tree, so each is anchored at a block from one decomposition
    cube = [(a, b) for a in range(8) for b in range(a + 1, 8)
            if bin(a ^ b).count("1") == 1]
    k33 = complete_bipartite(3, 3).edges()
    edges = k33 + [(u + 6, v + 6) for u, v in k33] + [(u + 12, v + 12) for u, v in cube]
    g = build_graph(20, edges)
    seed = tight_seed(g)
    f = dominating_delta_coloring(g, seed, 3)
    assert f.is_total() and is_proper(g, f)
    assert dominates(f, seed, range(3))


def test_anchor_block_ties_keep_decomposition_order():
    # 4-regular: two copies of K5 minus an edge, whose ends both join the
    # cut vertex 0, so both blocks have least vertex 0 and the first block
    # of the decomposition is the anchor
    edges = []
    for base in (1, 6):
        five = range(base, base + 5)
        edges += [(a, b) for a in five for b in five if a < b and (a, b) != (base, base + 1)]
        edges += [(0, base), (0, base + 1)]
    g = build_graph(11, edges)
    blocks = [
        b for b in reference_block_decomposition(g).blocks
        if not reference_block_is_clique(g, b) and not reference_block_is_odd_cycle(g, b)
    ]
    assert len(blocks) == 2 and min(blocks[0]) == min(blocks[1]) == 0
    assert _anchor_blocks(g, components(g)) == [blocks[0]]


@pytest.mark.parametrize("k4_first", [True, False])
def test_delta_coloring_names_the_gallai_component(k4_first):
    # K4 is a 3-regular Gallai tree, K3,3 is not: the component list gives
    # K4 the anchor entry None, and the error names K4 alone
    k33 = complete_bipartite(3, 3).edges()
    if k4_first:
        edges = complete(4).edges() + [(u + 4, v + 4) for u, v in k33]
        k4 = (0, 1, 2, 3)
    else:
        edges = k33 + [(u + 6, v + 6) for u, v in complete(4).edges()]
        k4 = (6, 7, 8, 9)
    g = build_graph(10, edges)
    seed = tight_seed(g)
    before = seed.as_list()
    with pytest.raises(RegularGallaiComponent) as err:
        dominating_delta_coloring(g, seed, 3)
    assert err.value.component == k4
    assert seed.as_list() == before


def test_one_block_decomposition_per_entry_point_call(monkeypatch):
    # one Hopcroft-Tarjan pass serves every component of a call
    passes = _count_calls(monkeypatch, graphs._blocks)
    cubic = [petersen()] + [
        generate(InstanceSpec.parse("regular:n=40,d=3", s)) for s in range(3)
    ]
    k33 = complete_bipartite(3, 3).edges()
    two = build_graph(16, petersen().edges() + [(u + 10, v + 10) for u, v in k33])
    for g in cubic + [two]:
        passes.clear()
        dominating_delta_coloring(g, tight_seed(g), 3)
        assert passes == [g.n]

    # the C4 block with a pendant vertex leaves the pivot uncolored, so the
    # block is restricted and solved as well
    pendant = DominationInstance(
        build_graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]),
        ListAssignment.of([{1, 3, 5, 6}, {0, 2, 3, 4}, {6}, {2, 5}, {2, 3, 5, 6}]),
        PartialColoring(5, 7, [5, 2, None, None, 6]),
    )
    g = petersen()
    uniform = DominationInstance(g, ListAssignment.uniform(g.n, 3), tight_seed(g))
    for inst in (pendant, uniform):
        passes.clear()
        dominating_full_coloring(inst)
        assert passes == [inst.graph.n]


def _count_calls(monkeypatch, fn):
    """Count calls of fn through every package module that binds it."""
    calls = []

    def counted(*args):
        calls.append(args[0].n)
        return fn(*args)

    for key, module in list(sys.modules.items()):
        if key == "equicolor" or key.startswith("equicolor."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_one_sweep_per_delta_coloring(monkeypatch):
    sweeps = _count_calls(monkeypatch, colorings._forest_sweep)
    builds = _count_calls(monkeypatch, graphs.build_one_ended_subforest)
    for g in [petersen()] + [
        generate(InstanceSpec.parse("regular:n=40,d=3", s)) for s in range(3)
    ]:
        sweeps.clear()
        builds.clear()
        dominating_delta_coloring(g, tight_seed(g), 3)
        assert sweeps == builds == [g.n]


def _bridged_cubic():
    # two copies of K4 minus the edge {2, 3}, each with a corner vertex 4
    # joined to 2 and 3, and a bridge between the two corners
    gadget = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    return build_graph(10, gadget + [(u + 5, v + 5) for u, v in gadget] + [(4, 9)])


def test_delta_coloring_union_matches_component_runs():
    bridged = _bridged_cubic()
    assert len(block_decomposition(bridged).cut_vertices) == 2
    cubic = generate(InstanceSpec.parse("regular:n=12,d=3", 0))
    assert len(block_decomposition(cubic).blocks) == 1
    parts = [bridged, cubic, path(7)]
    edges, offsets = [], [0]
    for h in parts:
        edges += [(u + offsets[-1], v + offsets[-1]) for u, v in h.edges()]
        offsets.append(offsets[-1] + h.n)
    g = build_graph(offsets[-1], edges)
    lists = ListAssignment.uniform(g.n, 3)
    rng = random.Random(5)
    seeds = [tight_seed(g), PartialColoring(g.n, 3)] + [
        random_partial_list_coloring(g, lists, 3, rng, density=rng.choice((0.3, 0.6, 0.9)))
        for _ in range(30)
    ]
    for seed in seeds:
        f = dominating_delta_coloring(g, seed, 3)
        assert f.is_total() and is_proper(g, f)
        assert dominates(f, seed, range(3))
        for lo, hi in zip(offsets, offsets[1:]):
            h, mapping = g.induced_subgraph(range(lo, hi))
            h_seed = PartialColoring(h.n, 3, [seed.get(v) for v in mapping])
            assert dominating_delta_coloring(h, h_seed, 3).as_list() == \
                [f.get(v) for v in mapping]
            if lo == 0:
                assert domination_exists(h, ListAssignment.uniform(h.n, 3), h_seed)


# SHA-256 of every delta-dominate benchmark output at seed 1 (the coloring
# of each instance), as scripts/output_hashes.py computes it
DOMINATE_OUTPUTS_SHA256 = "84eb62f964641af094249a9197c856e8df615bb4e06a1534e1a9b02945db9e50"


def test_dominate_outputs_are_pinned(monkeypatch):
    # a change to the block pass, the forest sweep or the block solver must
    # leave every coloring of the benchmark corpus byte-identical
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.syspath_prepend(str(root / "scripts"))
    import output_hashes
    import workloads

    assert output_hashes.corpus_digest(workloads, "delta-dominate", 1) == DOMINATE_OUTPUTS_SHA256
