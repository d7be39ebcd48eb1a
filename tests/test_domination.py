import random
import signal
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equicolor import (
    DominationInstance,
    ListAssignment,
    PartialColoring,
    build_graph,
    color_all_but_one,
    components,
    dominates,
    dominating_delta_coloring,
    dominating_full_coloring,
    equitable_delta_coloring,
    generate,
    is_proper,
    large_list_shortcut,
)
from equicolor import domination
from equicolor.colorings import is_proper_list_coloring
from equicolor.errors import GallaiTree, ImproperSeed, NotConnected, NotDegreeList, OutOfRange
from equicolor.oracle import canonical_graphs, domination_exists
from equicolor.generators import InstanceSpec
from equicolor.graphs import is_gallai_tree

from conftest import (
    cycle,
    path,
    random_degree_lists,
    random_partial_list_coloring,
    tight_seed,
)


def test_all_but_one_single_vertex():
    # the sweep's last stage maximalizes, so a pivot with a free color
    # ends colored
    g = build_graph(1, [])
    inst = DominationInstance(g, ListAssignment.of([[0]]), PartialColoring(1, 1), pivot=0)
    out = color_all_but_one(inst)
    assert out.as_list() == [0]


def test_all_but_one_edge_forced():
    g = path(2)
    inst = DominationInstance(
        g, ListAssignment.of([[0], [0]]), PartialColoring(2, 1), pivot=0
    )
    out = color_all_but_one(inst)
    assert out.get(1) == 0 and not out.is_assigned(0)


def test_all_but_one_c4():
    g = cycle(4)
    lists = ListAssignment.of([[0, 1]] * 4)
    seed = PartialColoring(4, 2, [0, None, None, None])
    inst = DominationInstance(g, lists, seed, pivot=2)
    out = color_all_but_one(inst)
    assert all(out.is_assigned(v) for v in (0, 1, 3))
    assert is_proper_list_coloring(g, lists, out)
    assert out.count_of(0) >= 1


def test_all_but_one_requires_pivot():
    g = path(2)
    inst = DominationInstance(g, ListAssignment.of([[0], [0]]), PartialColoring(2, 1))
    with pytest.raises(OutOfRange):
        color_all_but_one(inst)


def test_validation_errors():
    g = build_graph(4, [(0, 1), (2, 3)])
    lists = ListAssignment.uniform(4, 2)
    with pytest.raises(NotConnected):
        dominating_full_coloring(DominationInstance(g, lists, PartialColoring(4, 2)))
    g2 = cycle(4)
    with pytest.raises(NotDegreeList):
        dominating_full_coloring(DominationInstance(
            g2, ListAssignment.of([[0], [0, 1], [0, 1], [0, 1]]),
            PartialColoring(4, 2),
        ))
    with pytest.raises(ImproperSeed):
        dominating_full_coloring(DominationInstance(
            g2, ListAssignment.uniform(4, 2),
            PartialColoring(4, 2, [0, 0, None, None]),
        ))
    with pytest.raises(GallaiTree):
        dominating_full_coloring(DominationInstance(
            cycle(5), ListAssignment.uniform(5, 2), PartialColoring(5, 2),
        ))


def test_full_coloring_c4_plain():
    g = cycle(4)
    lists = ListAssignment.of([[0, 1]] * 4)
    out = dominating_full_coloring(DominationInstance(g, lists, PartialColoring(4, 2)))
    assert out.is_total() and is_proper_list_coloring(g, lists, out)


def test_full_coloring_c4_dominating():
    g = cycle(4)
    lists = ListAssignment.of([[0, 1]] * 4)
    seed = PartialColoring(4, 2, [0, None, 0, None])
    out = dominating_full_coloring(DominationInstance(g, lists, seed))
    assert out.count_of(0) == 2
    assert out.as_list() in ([0, 1, 0, 1], [1, 0, 1, 0])
    assert out.as_list() == [0, 1, 0, 1]


def test_large_list_shortcut():
    g = path(3)
    lists = ListAssignment.of([[0], [0, 1, 2], [1]])
    inst = DominationInstance(g, lists, PartialColoring(3, 3))
    out = large_list_shortcut(inst)
    assert out is not None and out.is_total()
    assert is_proper_list_coloring(g, lists, out)
    # all lists exactly degree-sized: shortcut does not apply
    g2 = cycle(4)
    inst2 = DominationInstance(
        g2, ListAssignment.of([[0, 1]] * 4), PartialColoring(4, 2)
    )
    assert large_list_shortcut(inst2) is None
    # single vertex with a nonempty list is colored directly
    g3 = build_graph(1, [])
    out3 = large_list_shortcut(DominationInstance(
        g3, ListAssignment.of([[2]]), PartialColoring(1, 3)
    ))
    assert out3 is not None and out3.get(0) == 2


def test_unequal_list_swap_construction():
    # 2-connected, not a cycle or clique, equal degrees but unequal lists:
    # one seed leaves the block walk stuck at x, which takes beta before
    # the hole walks to y in h - x (step 3 of `_solve_block`)
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    lists = ListAssignment.of([[0, 1, 2], [0, 1], [0, 1, 2], [0, 1]])
    rng = random.Random(5)
    for _ in range(20):
        seed = random_partial_list_coloring(g, lists, 3, rng)
        out = dominating_full_coloring(DominationInstance(g, lists, seed))
        assert out.is_total() and is_proper_list_coloring(g, lists, out)
        assert dominates(out, seed, lists.union_colors())


def test_even_cycle_block():
    g = cycle(6)
    lists = ListAssignment.of([[3, 5]] * 6)
    seed = PartialColoring(6, 6, [3, None, None, None, None, None])
    out = dominating_full_coloring(DominationInstance(g, lists, seed))
    assert out.is_total() and is_proper_list_coloring(g, lists, out)
    assert out.count_of(3) == 3


def test_regular_block_base_case():
    # complete bipartite K_{3,3} is 3-regular, 2-connected, not a clique or
    # odd cycle, with equal 3-lists: the regular case, though here the sweep
    # already colors the pivot (the K4 - e rings below reach the block walk)
    g = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    lists = ListAssignment.of([[0, 1, 2]] * 6)
    seed = PartialColoring(6, 3, [0, None, None, 1, None, 2])
    out = dominating_full_coloring(DominationInstance(g, lists, seed))
    assert out.is_total() and is_proper_list_coloring(g, lists, out)
    assert dominates(out, seed, [0, 1, 2])


def test_exhaustive_small_graphs_against_oracle():
    checked = 0
    for n in range(2, 7):
        for g in canonical_graphs(n):
            if len(components(g)) != 1:
                continue
            if is_gallai_tree(g, range(g.n)):
                continue
            for sd in range(8):
                rng = random.Random(n * 997 + sd)
                lists = random_degree_lists(g, rng)
                k = max(lists.max_color() + 1, 1)
                seed = random_partial_list_coloring(g, lists, k, rng)
                inst = DominationInstance(g, lists, seed)
                out = dominating_full_coloring(inst)
                assert out.is_total()
                assert is_proper_list_coloring(g, lists, out)
                assert dominates(out, seed, lists.union_colors())
                assert domination_exists(g, lists, seed)
                checked += 1
    assert checked >= 500


def test_recursion_depth_linear():
    # long even cycle: the sweep is a loop over strata, so the length costs
    # no stack depth
    g = cycle(40)
    lists = ListAssignment.of([[0, 1]] * 40)
    out = dominating_full_coloring(DominationInstance(g, lists, PartialColoring(40, 2)))
    assert out.is_total() and is_proper(g, out)


# --- the block solver's hole walk -------------------------------------------


@contextmanager
def _wall_clock_limit(seconds):
    """Fail with TimeoutError instead of hanging past the limit."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _count_block_solves(monkeypatch):
    calls = []
    solve = domination._solve_block
    monkeypatch.setattr(
        domination, "_solve_block", lambda *args: calls.append(args) or solve(*args)
    )
    return calls


@pytest.mark.parametrize("spec, sd", [
    ("regular:n=120,d=3", 7),
    ("regular:n=2000,d=3", 15),
    ("regular:n=8000,d=3", 3),
])
def test_dominating_delta_coloring_regular_block_repros(monkeypatch, spec, sd):
    # the sweep leaves the pivot of an equal-list cubic block stuck, so the
    # block walk runs, on blocks of up to 8,000 vertices
    g = generate(InstanceSpec.parse(spec, sd))
    seed = tight_seed(g)
    solves = _count_block_solves(monkeypatch)
    with _wall_clock_limit(5.0):
        f = dominating_delta_coloring(g, seed, 3)
    assert solves, "the instance no longer reaches the block walk"
    assert f.is_total() and is_proper(g, f)
    assert dominates(f, seed, range(3))


def test_pipeline_regular_block_repro(monkeypatch):
    # the pipeline's dominating step on this padded cubic graph runs the
    # block walk; every claim holds and the classes end equal
    g = generate(InstanceSpec.parse("regular:n=120,d=3", 0))
    g = build_graph(g.n + 480, g.edges())
    solves = _count_block_solves(monkeypatch)
    with _wall_clock_limit(5.0):
        f, report = equitable_delta_coloring(g, 3)
    assert solves, "the instance no longer reaches the block walk"
    assert f.is_total() and is_proper(g, f)
    assert [c.name for c in report.claims if c.verdict != "holds"] == []
    assert report.final_gap == 0


def _k4_minus_e_ring(m):
    """m copies of K4 - e, joined in a ring through their degree-2 corners:
    cubic, with connectivity 2.  Copy i is r, s, p, q = 4i..4i+3 with p, q
    the corners, and q_i p_(i+1) a ring edge.  Vertices r_i and s_i have the
    one non-adjacent neighbor pair {p_i, q_i}, which cuts them off, so the
    Lovász search rejects vertices 0 and 1 before it accepts one."""
    edges = []
    for i in range(m):
        r, s, p, q = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(r, s), (r, p), (r, q), (s, p), (s, q), (q, 4 * ((i + 1) % m) + 2)]
    return build_graph(4 * m, edges)


def _walk_route(h, lists, seed, pivot, events):
    """Which step of `_solve_block` ran, read off its input and the
    `_bfs` calls it made (the size of each avoid set, and "lovasz"
    where the Lovász search returned)."""
    if lists[pivot] - {seed.get(w) for w in h.adjacency(pivot)}:
        return "fill at pivot"
    if any(len(lists[v]) > h.degree(v) for v in range(h.n)):
        return "surplus"
    if any(lists[x] != lists[y] for x, y in h.edges()):
        return "unequal lists, walk on in h - x" if 1 in events else "unequal lists"
    i = events.index("lovasz")
    assert i >= 1
    route = "regular, walk on in h - {a, b}" if 2 in events[i + 1:] else "regular"
    return route + (", candidate rejected" if i > 1 else "")


def test_hole_walk_route_coverage(monkeypatch):
    routes = Counter()
    events = []
    solve, bfs, lovasz = domination._solve_block, domination._bfs, domination._lovasz_triple

    def traced_solve(h, lists, seed, pivot):
        events.clear()
        out = solve(h, lists, seed, pivot)
        routes[_walk_route(h, lists, seed, pivot, events)] += 1
        return out

    def traced_bfs(h, sources, avoid=frozenset()):
        events.append(len(avoid))
        return bfs(h, sources, avoid)

    def traced_lovasz(h):
        out = lovasz(h)
        events.append("lovasz")
        return out

    monkeypatch.setattr(domination, "_solve_block", traced_solve)
    monkeypatch.setattr(domination, "_bfs", traced_bfs)
    monkeypatch.setattr(domination, "_lovasz_triple", traced_lovasz)

    def check(g, lists, seed):
        f = dominating_full_coloring(DominationInstance(g, lists, seed))
        assert f.is_total() and is_proper_list_coloring(g, lists, f)
        assert dominates(f, seed, lists.union_colors())
        if g.n <= 8:
            assert domination_exists(g, lists, seed)

    # equal 3-lists reach the regular step; lists of size exactly the degree
    # from four colors reach the unequal-list step, one extra color the
    # surplus step
    rng = random.Random(3)
    for m in range(2, 13):
        g = _k4_minus_e_ring(m)
        for extra, spread in [(0, -1), (0, 1), (1, 0)]:
            for _ in range(30):
                lists = (ListAssignment.uniform(g.n, 3) if spread < 0
                         else random_degree_lists(g, rng, extra, spread))
                k = lists.max_color() + 1
                check(g, lists, random_partial_list_coloring(g, lists, k, rng, 0.9))
    for route in ("surplus", "unequal lists, walk on in h - x",
                  "regular, walk on in h - {a, b}, candidate rejected"):
        assert routes[route] > 0, (route, routes)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(3, 5), st.integers(4, 60), st.integers(0, 10**6),
        st.sampled_from([None, (0, 0), (0, 1), (1, 1), (2, 2)]),
        st.floats(0.5, 1.0),
    )
    def sweep(d, n, sd, degree_lists, density):
        assume(n > d and n * d % 2 == 0)
        g = generate(InstanceSpec.parse(f"regular:n={n},d={d}", sd))
        assume(len(components(g)) == 1 and not is_gallai_tree(g, range(n)))
        rng = random.Random(sd)
        lists = (ListAssignment.uniform(n, d) if degree_lists is None
                 else random_degree_lists(g, rng, *degree_lists))
        k = lists.max_color() + 1
        check(g, lists, random_partial_list_coloring(g, lists, k, rng, density))

    sweep()
