import hashlib
import random

import pytest

from equicolor import (
    ListAssignment,
    PartialColoring,
    build_graph,
    domination_exists,
    enumerate_proper_colorings,
    equitable_exists,
    improving_move_exists,
)
from equicolor.errors import (
    BudgetExceeded,
    ImproperSeed,
    OutOfRange,
    PreconditionViolated,
)
from equicolor.oracle import (
    are_isomorphic,
    canonical_graphs,
    colorings_up_to_color_permutation,
    connected_canonical_graphs,
    count_proper_colorings,
)

from conftest import (
    complete,
    complete_bipartite,
    cycle,
    path,
    random_degree_lists,
    random_partial_list_coloring,
)


def test_enumeration_examples():
    assert sum(1 for _ in enumerate_proper_colorings(complete(3), palette=3)) == 6
    assert sum(1 for _ in enumerate_proper_colorings(path(2), palette=2)) == 2
    assert sum(1 for _ in enumerate_proper_colorings(cycle(5), palette=2)) == 0


def test_enumeration_is_lexicographic_and_proper():
    out = list(enumerate_proper_colorings(path(3), palette=2))
    assert out == sorted(out)
    assert out[0] == (0, 1, 0)


def test_enumeration_with_lists():
    g = path(3)
    lists = ListAssignment.of([[0], [0, 1], [0]])
    assert list(enumerate_proper_colorings(g, lists=lists)) == [(0, 1, 0)]
    blocked = ListAssignment.of([[0], [0, 1], [1]])
    assert list(enumerate_proper_colorings(g, lists=blocked)) == []


def test_count_closed_forms():
    assert count_proper_colorings(path(4), 3) == 3 * 2 ** 3
    assert count_proper_colorings(cycle(5), 3) == 2 ** 5 - 2
    assert count_proper_colorings(cycle(6), 3) == 2 ** 6 + 2
    # no closed form: empty, one vertex, and a path plus an edge (a product)
    assert count_proper_colorings(build_graph(0, []), 3) == 1
    assert count_proper_colorings(build_graph(1, []), 3) == 3
    assert count_proper_colorings(build_graph(5, [(0, 1), (1, 2), (3, 4)]), 3) == 12 * 6
    # closed forms agree with raw enumeration
    for g, k in [(path(5), 3), (cycle(4), 3), (complete(4), 4)]:
        assert count_proper_colorings(g, k) == sum(
            1 for _ in enumerate_proper_colorings(g, palette=k)
        )


def test_budget_enforced():
    big = build_graph(12, [])
    with pytest.raises(BudgetExceeded):
        list(enumerate_proper_colorings(big, palette=2))
    with pytest.raises(BudgetExceeded):
        equitable_exists(path(3), 7)
    with pytest.raises(BudgetExceeded):
        next(enumerate_proper_colorings(path(3), lists=ListAssignment.uniform(3, 9)))


def test_equitable_exists_examples():
    assert equitable_exists(cycle(6), 3)
    assert equitable_exists(complete(4), 5)
    assert not equitable_exists(complete_bipartite(3, 3), 3)
    assert not equitable_exists(cycle(5), 2)
    # an empty palette raised ZeroDivisionError
    for k in (0, -2):
        with pytest.raises(OutOfRange):
            equitable_exists(path(3), k)


def test_palette_and_size_checks():
    # a negative palette yielded nothing or counted 0 colorings, and the
    # palette-or-lists choice raised a bare ValueError
    p3 = path(3)
    for k in (0, -1, -2):
        with pytest.raises(OutOfRange):
            list(enumerate_proper_colorings(p3, palette=k))
        with pytest.raises(OutOfRange):
            count_proper_colorings(p3, k)
    with pytest.raises(OutOfRange):
        count_proper_colorings(build_graph(3, []), -1)
    for kwargs in ({}, {"palette": 2, "lists": ListAssignment.uniform(3, 2)}):
        with pytest.raises(PreconditionViolated):
            list(enumerate_proper_colorings(p3, **kwargs))
    # sizes that do not fit the graph raised a bare IndexError
    with pytest.raises(OutOfRange):
        list(enumerate_proper_colorings(p3, lists=ListAssignment.uniform(2, 2)))
    with pytest.raises(OutOfRange):
        domination_exists(p3, ListAssignment.uniform(2, 2), PartialColoring(3, 2))
    with pytest.raises(ImproperSeed):
        domination_exists(p3, ListAssignment.uniform(3, 2), PartialColoring(2, 2))
    with pytest.raises(ImproperSeed):
        improving_move_exists(p3, PartialColoring(2, 2, [0, 1]), 3)
    # m = 0 enumerated every connected domain and answered False
    for m in (0, -1):
        with pytest.raises(OutOfRange):
            improving_move_exists(p3, PartialColoring(3, 2, [0, 1, 0]), m)


def test_domination_exists_examples():
    c4 = cycle(4)
    lists = ListAssignment.of([[0, 1]] * 4)
    assert domination_exists(c4, lists, PartialColoring(4, 2))
    # odd cycle with equal 2-lists has no proper list coloring at all
    c5 = cycle(5)
    assert not domination_exists(c5, ListAssignment.of([[0, 1]] * 5),
                                 PartialColoring(5, 2))
    # a total proper coloring is dominated by itself
    f = PartialColoring(4, 2, [0, 1, 0, 1])
    assert domination_exists(c4, lists, f)


def test_improving_move_exists_examples():
    g = cycle(6)
    equit = PartialColoring(6, 3, [0, 1, 2, 0, 1, 2])
    assert not improving_move_exists(g, equit, 3)
    skew = PartialColoring(6, 3, [0, 1, 0, 1, 0, 2])
    assert improving_move_exists(g, skew, 3)
    k4 = complete(4)
    assert not improving_move_exists(k4, PartialColoring(4, 4, [0, 1, 2, 3]), 3)


def test_atlas_sizes():
    assert [len(canonical_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]
    assert len(connected_canonical_graphs(4)) == 6
    assert len(connected_canonical_graphs(5)) == 21
    assert len(connected_canonical_graphs(6)) == 112


def test_atlas_pairwise_non_isomorphic():
    atlas = canonical_graphs(5)
    for i in range(len(atlas)):
        for j in range(i + 1, len(atlas)):
            assert not are_isomorphic(atlas[i], atlas[j])


def test_are_isomorphic():
    g1 = cycle(5)
    g2 = build_graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert are_isomorphic(g1, g2)
    assert not are_isomorphic(cycle(6), path(6))
    assert not are_isomorphic(complete(4), cycle(4))


def test_colorings_up_to_color_permutation():
    # K3 with 3 colors: a single class up to palette permutation
    out = list(colorings_up_to_color_permutation(complete(3), 3))
    assert out == [(0, 1, 2)]
    # total count over representatives times palette orderings matches
    g = cycle(4)
    reps = list(colorings_up_to_color_permutation(g, 3))
    import math
    total = 0
    for rep in reps:
        used = len(set(rep))
        total += math.factorial(3) // math.factorial(3 - used)
    assert total == count_proper_colorings(g, 3)


# SHA-256 of the oracle's answers over the atlas, as
# test_oracle_answers_are_pinned computes it
ORACLE_ANSWERS_SHA256 = "dab722442f1697899a167c596815e640a7934d696a2f5235c50ee0e3536b70dd"


def test_oracle_answers_are_pinned():
    # a change to the oracle's search must leave every answer and every
    # enumeration order the same: on each atlas graph with n <= 6, for k in
    # {max(1, max degree), max degree + 1}, the colorings, equitable_exists
    # and the colorings up to permutation; then the list colorings and
    # domination_exists of one seeded degree-list instance
    digest = hashlib.sha256()
    for n in range(7):
        for i, g in enumerate(canonical_graphs(n)):
            for k in sorted({max(1, g.max_degree), g.max_degree + 1}):
                digest.update(repr((
                    list(enumerate_proper_colorings(g, palette=k)),
                    equitable_exists(g, k),
                    list(colorings_up_to_color_permutation(g, k)),
                )).encode())
            rng = random.Random(1000 * n + i)
            lists = random_degree_lists(g, rng)
            seed = random_partial_list_coloring(g, lists, max(lists.max_color() + 1, 1), rng)
            digest.update(repr((
                list(enumerate_proper_colorings(g, lists=lists)),
                domination_exists(g, lists, seed),
            )).encode())
    assert digest.hexdigest() == ORACLE_ANSWERS_SHA256
