"""The in-place forest sweep, on its own and as the domination peel
toward a pivot, against the per-stage construction it replaces, plus
scaling checks.

`reference_forest_recolor` runs a full greedy pass and a full stratum scan
every stage.  It is quadratic and serves only as ground truth: the package
must return identical colorings and witness maps.
"""

import random
import time
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equicolor import (
    DominationInstance,
    ListAssignment,
    PartialColoring,
    build_graph,
    build_one_ended_subforest,
    color_all_but_one,
    components,
    dominates,
    dominating_delta_coloring,
    dominating_full_coloring,
    forest_recolor,
    generate,
    greedy_maximal,
    is_proper,
)
from equicolor import domination
from equicolor.generators import InstanceSpec
from equicolor.graphs import is_gallai_tree

from conftest import (
    path,
    random_degree_lists,
    random_partial_list_coloring,
    tight_seed,
)


def reference_forest_recolor(g, forest, seed, lists):
    f = seed.copy()
    changed = [False] * g.n
    for stage in range(forest.max_height() + 1):
        fprime = greedy_maximal(g, lists, f)
        stealers = [
            x for x in range(g.n)
            if forest.heights[x] == stage and x not in forest.anchors
            and not fprime.is_assigned(x)
        ]
        new_f = fprime.copy()
        for p in {forest.parent[x] for x in stealers}:
            new_f.unassign(p)
        for x in stealers:
            new_f.assign(x, fprime.get(forest.parent[x]))
        f = new_f
        for v in range(g.n):
            if seed.is_assigned(v) and f.get(v) != seed.get(v):
                changed[v] = True
    psi = {
        v: v if (v in forest.anchors or (seed.is_assigned(v) and not changed[v]))
        else forest.parent[v]
        for v in range(g.n)
    }
    return f, psi


@st.composite
def connected_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, tree + [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def regular_graphs(draw):
    d = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(min_value=d + 1, max_value=16).filter(lambda n: n * d % 2 == 0))
    g = generate(InstanceSpec("regular", {"n": n, "d": d}, draw(st.integers(0, 10**6))))
    assume(len(components(g)) == 1)
    return g


@given(st.one_of(connected_graphs(), regular_graphs()), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=400, deadline=None)
def test_peel_and_sweep_match_reference(g, sd):
    rng = random.Random(sd)
    lists = random_degree_lists(g, rng)
    k = max(lists.max_color() + 1, 1)
    seed = random_partial_list_coloring(g, lists, k, rng)
    pivot = rng.randrange(g.n)

    def reference_all_but_one(g, lists, seed, pivot):
        forest = build_one_ended_subforest(g, [pivot])
        return reference_forest_recolor(g, forest, seed, lists)[0]

    inst = DominationInstance(g, lists, seed, pivot=pivot)
    assert color_all_but_one(inst) == reference_all_but_one(g, lists, seed, pivot)
    if not is_gallai_tree(g, range(g.n)):
        full = dominating_full_coloring(inst)
        with mock.patch.object(
            domination, "_forest_sweep",
            lambda g, lists, seed, forest: reference_forest_recolor(g, forest, seed, lists),
        ):
            assert full == dominating_full_coloring(inst)

    # few anchors and a palette of exactly the max degree leave blocked
    # vertices above the swept strata, which a frontier must not miss
    ku = max(g.max_degree, 1) + (rng.random() < 0.25)
    anchors = rng.sample(range(g.n), rng.randint(1, max(1, g.n // 3)))
    forest = build_one_ended_subforest(g, anchors)
    useed = random_partial_list_coloring(
        g, ListAssignment.uniform(g.n, ku), ku, rng, density=rng.choice((0.3, 0.6, 0.9))
    )
    assert forest_recolor(g, forest, useed, ku) == \
        reference_forest_recolor(g, forest, useed, ListAssignment.uniform(g.n, ku))


def _cut_torus(cols):
    g = generate(InstanceSpec.parse(f"torus:rows=3,cols={cols}", 0))
    return build_graph(g.n, [e for e in g.edges() if e != (0, 1)])


def test_dominate_corpus_under_debug_asserts(monkeypatch):
    # every stage and round then also checks the frontier fill against a
    # full greedy pass; the checks must not change any output
    graphs = [generate(InstanceSpec.parse("regular:n=40,d=3", s)) for s in range(4)]
    graphs += [_cut_torus(cols) for cols in (8, 13, 20)]
    runs = []
    for debug in ("", "1"):
        monkeypatch.setenv("EQUICOLOR_DEBUG_ASSERT", debug)
        for g in graphs:
            seed = tight_seed(g)
            f = dominating_delta_coloring(g, seed, g.max_degree)
            assert f.is_total() and is_proper(g, f)
            assert dominates(f, seed, range(g.max_degree))
            runs.append(f.as_list())
    assert runs[:len(graphs)] == runs[len(graphs):]


def test_forest_recolor_long_path_scales():
    # the per-stage sweep took minutes here: one greedy pass over all n
    # vertices for each of the n/2 strata
    n = 20_000
    g = path(n)
    forest = build_one_ended_subforest(g, {n // 2})
    seed = PartialColoring(n, 2, [v % 2 if v % 3 else None for v in range(n)])
    t0 = time.perf_counter()
    f, _ = forest_recolor(g, forest, seed, 2)
    elapsed = time.perf_counter() - t0
    assert all(f.is_assigned(v) for v in range(n) if v != n // 2)
    assert elapsed < 10.0, f"forest sweep on a {n}-vertex path took {elapsed:.1f} s"


def test_dominating_delta_coloring_cubic_scales():
    # a per-round peel that re-maximalized and rebuilt the whole remaining
    # graph for each of the n peeled vertices was quadratic here.
    # Generator seed 0 never reaches the block walk; seed 3, which does, is
    # a repro test in test_domination.py.
    g = generate(InstanceSpec.parse("regular:n=8000,d=3", 0))
    seed = tight_seed(g)
    t0 = time.perf_counter()
    f = dominating_delta_coloring(g, seed, 3)
    elapsed = time.perf_counter() - t0
    assert f.is_total() and dominates(f, seed, range(3))
    assert elapsed < 10.0, f"cubic n={g.n} took {elapsed:.1f} s"
