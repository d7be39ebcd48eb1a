import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import (
    ListAssignment,
    PartialColoring,
    build_graph,
    dominates,
    greedy_extend_full,
    greedy_maximal,
    is_proper,
    maximal_independent_superset,
)
from equicolor.colorings import _greedy_fill, _recolor
from equicolor.errors import (
    ImproperInput,
    ImproperSeed,
    NotIndependent,
    OutOfRange,
    PaletteTooSmall,
)

from conftest import (
    complete,
    cycle,
    random_graph,
    random_partial_list_coloring,
    reference_greedy_fill,
)


def test_is_proper_examples():
    c4 = cycle(4)
    assert is_proper(c4, PartialColoring(4, 2, [0, 1, 0, 1]))
    k3 = complete(3)
    assert not is_proper(k3, PartialColoring(3, 2, [0, 0, None]))
    assert is_proper(k3, PartialColoring(3, 2))
    # a coloring of another size was accepted (5 vertices) or raised a bare
    # IndexError (3 vertices)
    for n in (3, 5):
        with pytest.raises(ImproperInput):
            is_proper(c4, PartialColoring(n, 2))


def test_counts_cache():
    f = PartialColoring(5, 3, [0, 0, 1, None, None])
    assert f.counts() == (2, 1, 0)
    f.assign(3, 2)
    f.unassign(0)
    assert f.counts() == (1, 1, 1)
    assert f.domain_size == 3
    assert repr(f) == "PartialColoring(n=5, k=3, dom=3)"
    with pytest.raises(OutOfRange):
        f.assign(4, 3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_writes_keep_the_cached_counts(data):
    # after any sequence of checked and unchecked writes the cached counts
    # agree with a coloring built afresh from the same colors
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    color = st.integers(0, k - 1)
    f = PartialColoring(n, k, data.draw(st.lists(st.none() | color, min_size=n, max_size=n)))
    writes = st.tuples(st.sampled_from(("assign", "unassign", "recolor")),
                       st.integers(0, n - 1), st.none() | color)
    for op, v, c in data.draw(st.lists(writes, max_size=30)):
        if op == "assign" and c is not None:
            f.assign(v, c)
        elif op == "unassign":
            f.unassign(v)
        elif op == "recolor":
            _recolor(f, v, c)
        fresh = PartialColoring(n, k, f.colors)
        assert (f.counts(), f.domain_size, f.is_total()) == \
            (fresh.counts(), fresh.domain_size, fresh.is_total())


def test_greedy_on_triangle_blocks():
    k3 = complete(3)
    lists = ListAssignment.of([[0, 1]] * 3)
    out = greedy_maximal(k3, lists, PartialColoring(3, 2))
    assert out.as_list() == [0, 1, None]


def test_greedy_with_roomy_lists_is_total():
    for seed in range(10):
        g = random_graph(8, 0.4, seed)
        lists = ListAssignment.of(
            [range(g.degree(v) + 1) for v in range(g.n)]
        )
        k = max(lists.max_color() + 1, 1)
        out = greedy_maximal(g, lists, PartialColoring(g.n, k))
        assert out.is_total()


def test_greedy_fixed_point():
    g = random_graph(8, 0.3, 5)
    lists = ListAssignment.of([[0, 1, 2]] * 8)
    once = greedy_maximal(g, lists, PartialColoring(8, 3))
    twice = greedy_maximal(g, lists, once)
    assert once == twice


def test_greedy_rejects_improper_seed():
    k3 = complete(3)
    lists = ListAssignment.uniform(3, 3)
    with pytest.raises(ImproperSeed):
        greedy_maximal(k3, lists, PartialColoring(3, 3, [0, 0, None]))


def test_greedy_rejects_inputs_that_do_not_fit():
    # short lists and order [9] raised a bare IndexError; order [-1]
    # silently colored vertex n - 1; order [0, 1], which leaves out the
    # uncolored vertex 2, tripped greedy_extend_full's assert and left
    # greedy_maximal's result not maximal
    k3 = complete(3)
    lists = ListAssignment.uniform(3, 3)
    with pytest.raises(OutOfRange):
        greedy_maximal(k3, ListAssignment.uniform(2, 3), PartialColoring(3, 3))
    for order in ([9], [-1], [0, 1, 3], [0, 1], []):
        with pytest.raises(OutOfRange):
            greedy_maximal(k3, lists, PartialColoring(3, 3), order)
        with pytest.raises(OutOfRange):
            greedy_extend_full(k3, 3, order=order)
    with pytest.raises(ImproperSeed):
        greedy_maximal(k3, lists, PartialColoring(4, 3))
    # an order may leave out a vertex the seed colors
    seed = PartialColoring(3, 3, [None, None, 0])
    assert greedy_maximal(k3, lists, seed, [1, 0]).as_list() == [2, 1, 0]
    assert greedy_extend_full(k3, 3, seed, [1, 0]).as_list() == [2, 1, 0]


def test_greedy_maximal_rejects_list_colors_outside_the_palette():
    # the first lists returned [0, 1], since first fit never reached color
    # 7; the second raised, from the fill, once vertex 1 needed it
    k2 = complete(2)
    for lists in ([[0, 7], [1, 7]], [[0, 7], [0, 7]]):
        with pytest.raises(OutOfRange):
            greedy_maximal(k2, ListAssignment.of(lists), PartialColoring(2, 2))


def test_greedy_maximal_blocked_vertices_see_all_their_colors():
    for seed in range(25):
        g = random_graph(8, 0.5, seed)
        rng = random.Random(seed)
        lists = ListAssignment.of([
            rng.sample(range(5), rng.randint(1, 4)) for _ in range(g.n)
        ])
        out = greedy_maximal(g, lists, PartialColoring(g.n, 5))
        for v in range(g.n):
            if out.is_assigned(v):
                continue
            nbr_colors = {out.get(w) for w in g.adjacency(v)}
            assert lists[v] <= nbr_colors
            assert len(lists[v]) <= len(nbr_colors & lists[v])


def test_extend_full_examples():
    c5 = cycle(5)
    out = greedy_extend_full(c5, 3)
    assert out.is_total() and is_proper(c5, out)
    k4 = complete(4)
    seeded = greedy_extend_full(k4, 4, PartialColoring(4, 4, [0, None, None, None]))
    assert seeded.get(0) == 0 and seeded.is_total() and is_proper(k4, seeded)
    with pytest.raises(PaletteTooSmall):
        greedy_extend_full(c5, 2)


def test_extend_full_random_properness():
    # properness over a spread of random (graph, seed) pairs
    count = 0
    for gseed in range(50):
        g = random_graph(10, 0.35, gseed)
        rng = random.Random(gseed)
        k = g.max_degree + 1 + rng.randint(0, 2)
        for sseed in range(20):
            srng = random.Random(1000 * gseed + sseed)
            seed = PartialColoring(g.n, k)
            for v in range(g.n):
                if srng.random() < 0.4:
                    options = [
                        c for c in range(k)
                        if all(seed.get(w) != c for w in g.adjacency(v))
                    ]
                    if options:
                        seed.assign(v, srng.choice(options))
            out = greedy_extend_full(g, k, seed)
            assert out.is_total() and is_proper(g, out)
            assert all(
                out.get(v) == seed.get(v) for v in range(g.n) if seed.is_assigned(v)
            )
            count += 1
    assert count == 1000


def test_maximal_independent_superset_examples():
    c4 = cycle(4)
    assert maximal_independent_superset(c4, {0}) == frozenset({0, 2})
    assert maximal_independent_superset(complete(4), {1}) == frozenset({1})
    assert maximal_independent_superset(build_graph(3, []), set()) == frozenset({0, 1, 2})
    with pytest.raises(NotIndependent):
        maximal_independent_superset(c4, {0, 1})


def test_maximal_independent_superset_is_maximal():
    for seed in range(30):
        g = random_graph(9, 0.3, seed)
        out = maximal_independent_superset(g, set())
        assert all(not g.has_edge(u, v) for u in out for v in out if u < v)
        for v in range(g.n):
            if v not in out:
                assert any(w in out for w in g.adjacency(v))


def test_dominates():
    f = PartialColoring(4, 2, [0, 0, 1, None])
    h = PartialColoring(4, 2, [0, None, 1, None])
    assert dominates(f, h, [0, 1])
    assert not dominates(h, f, [0, 1])
    assert dominates(f, f, [0, 1])
    # extension always dominates
    g = PartialColoring(4, 2, [0, 0, 1, 1])
    assert dominates(g, f, [0, 1])
    # empty dominates nothing but is dominated by all
    empty = PartialColoring(4, 2)
    assert dominates(f, empty, [0, 1])
    f2 = PartialColoring(3, 2, [0, 0, 1])
    h2 = PartialColoring(3, 2, [0, 1, 1])
    assert not dominates(f2, h2, [0, 1])
    # colorings of different sizes are not compared: this returned True
    with pytest.raises(ImproperInput):
        dominates(f, f2, [0, 1])


def test_list_assignment_rejects_negative_colors():
    assert ListAssignment.of([[0, 1], [2]]).max_color() == 2
    # built directly, the assignment accepted a negative color
    for build in (ListAssignment.of, lambda lists: ListAssignment(tuple(map(frozenset, lists)))):
        with pytest.raises(OutOfRange):
            build([{-1}, {0, 1}])


@st.composite
def fill_inputs(draw):
    """A graph, uniform or random lists whose colors may reach past the
    palette k, a proper partial seed inside the lists and the palette, and
    a visiting order: identity, a permutation, or ids with repeats."""
    n = draw(st.integers(min_value=1, max_value=30))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = random_graph(n, draw(st.sampled_from([0.0, 0.1, 0.25, 0.5])), rng.getrandbits(32))
    top = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        lists = ListAssignment.uniform(n, top)
    else:
        lists = ListAssignment.of(
            [rng.sample(range(top), rng.randint(0, top)) for _ in range(n)]
        )
    k = draw(st.integers(min_value=1, max_value=top + 1))
    seed = random_partial_list_coloring(
        g, lists, k, rng, density=draw(st.sampled_from([0.0, 0.3, 0.7]))
    )
    shape = draw(st.sampled_from(["identity", "permutation", "repeats"]))
    if shape == "identity":
        order = range(n)
    elif shape == "permutation":
        order = rng.sample(range(n), n)
    else:
        order = [rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
    return g, lists, seed, order


def _fill_outcome(fill, g, lists, seed, order):
    f = seed.copy()
    try:
        fill(g, lists, f, order)
    except OutOfRange:
        return "OutOfRange", f.as_list()
    return "ok", f.as_list()


@settings(max_examples=400, deadline=None)
@given(fill_inputs())
def test_greedy_fill_matches_min_reference(inputs):
    # the first-fit scan over the ascending lists against the comprehension
    # plus min it replaced: the same coloring, or OutOfRange at the same
    # vertex when the first free color lies outside the palette
    assert _fill_outcome(_greedy_fill, *inputs) == _fill_outcome(reference_greedy_fill, *inputs)


def test_greedy_fill_raises_on_list_color_outside_palette():
    g = build_graph(3, [(0, 1)])
    lists = ListAssignment.of([[0, 4], [4, 0, 2], [5]])
    for fill in (_greedy_fill, reference_greedy_fill):
        f = PartialColoring(3, 3)
        with pytest.raises(OutOfRange):
            fill(g, lists, f, range(3))
        assert f.as_list() == [0, 2, None]


def test_ordered_lists_are_sorted_and_shared():
    uniform = ListAssignment.uniform(4, 3)
    assert uniform.ordered == ((0, 1, 2),) * 4
    assert all(t is uniform.ordered[0] for t in uniform.ordered)
    mixed = ListAssignment.of([[3, 1], [1, 3], [2], []])
    assert mixed.ordered == ((1, 3), (1, 3), (2,), ())
    assert mixed.ordered[0] is mixed.ordered[1]
