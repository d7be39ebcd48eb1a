"""Every callable exported from equicolor rejects malformed arguments of
the right type with an EquicolorError subclass, and raises nothing else.

`CALLS` has one row per exported entry point.  A row lists malformed calls
on an otherwise valid connected graph, and every example makes each of
them, so every check runs on every run: wrong sizes, out-of-range or
negative vertex ids, a greedy order that leaves out an uncolored vertex,
negative colors or palettes, mismatched palettes, a forest of another
graph, neighbor lists with a bad, looped, repeated or one-sided entry, or a
generator spec or graph file with a missing, non-numeric or out-of-range
value.  `EXEMPT` names the exported callables that take no argument such a
call could get wrong, with the reason.
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equicolor as eq
from equicolor.errors import EquicolorError

EXEMPT = {
    "Batch": "a record; apply_monotone_prefix checks the batch it is given",
    "BlockDecomposition": "an output record",
    "CostReport": "an output record",
    "DominationInstance": "a record; the domination solvers check it",
    "DriverConfig": "one boolean flag",
    "DynamicsTrace": "an output record",
    "EquicolorError": "the error base class",
    "InstanceSpec": "a record; generate checks its parameters",
    "OneEndedForest": "a record; forest_recolor checks it against its graph",
    "OracleBudget": "caps that each oracle call checks its input against",
    "PipelineReport": "an output record",
    "RecoloringMove": "a record; make_move and the move functions check moves",
    "block_decomposition": "takes only a graph, which build_graph has checked",
    "components": "takes only a graph, which build_graph has checked",
    "discrepancy": "takes only a distribution, which checks itself when built",
    "rearranged": "takes only a distribution, which checks itself when built",
}


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2..6 vertices plus random chords."""
    n = draw(st.integers(2, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v}
    return eq.build_graph(n, sorted(edges))


def bad_id(data, g):
    return data.draw(st.one_of(st.integers(-3, -1), st.integers(g.n, g.n + 3)))


def bad_ids(data, g):
    """Valid ids with one outside [0, n) among them."""
    ids = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3))
    return ids + [bad_id(data, g)]


def short_order(data, g):
    """Valid ids that leave out one vertex."""
    left_out = data.draw(st.integers(0, g.n - 1))
    kept = [v for v in range(g.n) if v != left_out]
    return data.draw(st.lists(st.sampled_from(kept), max_size=2 * g.n))


def bad_palette(data, low=1):
    """A palette size below `low`, negative or zero."""
    return data.draw(st.integers(-3, low - 1))


def colors(data, n, k, total=False):
    color = st.integers(0, k - 1)
    return data.draw(st.lists(color if total else st.none() | color, min_size=n, max_size=n))


def misfit(data, g, k, total=False):
    """A coloring of one vertex more or one fewer than g has."""
    n = data.draw(st.sampled_from([g.n - 1, g.n + 1]))
    return eq.PartialColoring(n, k, colors(data, n, k, total))


def improper(data, g, k, total=False):
    """A coloring of g whose two ends of one edge share a color."""
    u, v = data.draw(st.sampled_from(g.edges()))
    assignment = eq.greedy_extend_full(g, k).as_list() if total else [None] * g.n
    assignment[v] = assignment[u] = data.draw(st.integers(0, k - 1))
    return eq.PartialColoring(g.n, k, assignment)


def partial(data, g, k):
    """A proper coloring of g with at least one vertex uncolored."""
    f = eq.greedy_extend_full(g, k)
    f.unassign(data.draw(st.integers(0, g.n - 1)))
    return f


def small_palette(data, g):
    """An empty seed and a palette below the max degree, or below 1."""
    k = data.draw(st.integers(-2, g.max_degree - 1))
    return eq.PartialColoring(g.n, max(k, 1)), k


def listed(g, *pairs):
    """g's neighbor lists with each (u, v) listed once more at u."""
    extra = {u: tuple(v for w, v in pairs if w == u) for u, _ in pairs}
    return [nbrs + extra.get(u, ()) for u, nbrs in enumerate(g.adj)]


def move_off_vertex(data, f):
    """A one-vertex move of a vertex outside f."""
    return eq.RecoloringMove(((bad_id(data, f), 0),))


def move_off_palette(data, f):
    """A one-vertex move to a color outside f's palette."""
    v = data.draw(st.integers(0, f.n - 1))
    return eq.RecoloringMove(((v, data.draw(st.sampled_from([-1, f.k, f.k + 2]))),))


MOVES = (move_off_vertex, move_off_palette)


def domination_calls(solver, pivot=0):
    """Malformed calls of a domination solver around degree lists over the
    palette max degree + 1 and an empty seed."""
    def call(data, g, lists=None, seed=None, pivot=pivot):
        k = g.max_degree + 1
        lists = eq.ListAssignment.uniform(g.n, k) if lists is None else lists(g, k)
        seed = eq.PartialColoring(g.n, k) if seed is None else seed(data, g, k)
        return solver(eq.DominationInstance(g, lists, seed, pivot))
    return (
        lambda data, g: call(data, g, seed=misfit),
        lambda data, g: call(data, g, seed=improper),
        lambda data, g: call(data, g, seed=lambda data, g, k: eq.PartialColoring(
            g.n, k + 1, [k] + [None] * (g.n - 1))),
        lambda data, g: call(data, g, lists=lambda g, k: eq.ListAssignment.uniform(g.n - 1, k)),
        lambda data, g: call(data, g, lists=lambda g, k: eq.ListAssignment(
            (frozenset(),) + eq.ListAssignment.uniform(g.n - 1, k).lists)),
        lambda data, g: call(data, g, lists=lambda g, k: eq.ListAssignment.of(
            [range(k + 1)] * g.n)),
        lambda data, g: call(data, g, pivot=bad_id(data, g)),
    )


def other_graph_forest(data, g):
    """The forest of a path, a star, or g plus a pendant vertex, on a vertex
    count other than g's."""
    n = data.draw(st.sampled_from([g.n - 1, g.n + 1]))
    h = data.draw(st.sampled_from([
        eq.build_graph(n, [(i, i + 1) for i in range(n - 1)]),
        eq.build_graph(n, [(0, i) for i in range(1, n)]),
        eq.build_graph(g.n + 1, g.edges() + [(g.n - 1, g.n)]),
    ]))
    return eq.build_one_ended_subforest(h, [0])


def shifted_forest(data, g):
    """g's own forest with every height moved below 0 or to n and above."""
    own = eq.build_one_ended_subforest(g, [0])
    shift = data.draw(st.sampled_from([g.n, -g.n]))
    return eq.OneEndedForest(own.anchors, own.parent, tuple(h + shift for h in own.heights))


def unrising_forest(data, g):
    """A forest whose parents are not neighbors of larger height: g's own
    with every height 0, or a path's or star's on g's vertex count that
    uses a non-edge of g."""
    own = eq.build_one_ended_subforest(g, [0])
    forests = [eq.OneEndedForest(own.anchors, own.parent, (0,) * g.n)] + [
        eq.build_one_ended_subforest(h, [0]) for h in (
            eq.build_graph(g.n, [(i, i + 1) for i in range(g.n - 1)]),
            eq.build_graph(g.n, [(0, i) for i in range(1, g.n)]),
        )
    ]
    return data.draw(st.sampled_from([
        forest for forest in forests
        if forest.max_height() == 0 or any(not g.has_edge(v, p) for v, p in forest.parent.items())
    ]))


FOREIGN_FORESTS = (other_graph_forest, shifted_forest, unrising_forest)


TMP = tempfile.TemporaryDirectory()


def tmp_graph_file(text, suffix):
    path = Path(TMP.name) / f"g{suffix}"
    path.write_text(text)
    return path


def batch_of(moves):
    return eq.Batch(tuple(moves), frozenset(), frozenset(), 1)


GENERATE_SPECS = [
    "regular:n=-4,d=3", "regular:n=6,d=-1", "gnp:n=-3,p=1/2", "torus:rows=-3,cols=4",
    "gallai_tree:n=-2", "hub:n=-5,delta=3", "hub:n=50,delta=0",
    "regular:n=6", "gnp:n=5,p=x", "gnp:n=5,p=1/0", "regular:n=6.5,d=3",
    "bipartite:n1=-2,n2=5,p=1/2", "bipartite:n1=2,n2=5,p=2", "hub:n=50,delta=3,target_avg=nan",
    "hub:n=100,delta=10,target=1", "regular:n=6,d=3,seed=5",
    "hub:n=5,delta=4,target_avg=100",
]

BAD_JSON_GRAPHS = [
    '{"n": "x", "edges": []}', '{"n": 3, "edges": [[1]]}', '{"n": 3, "edges": 5}',
    '{"n": 3.5, "edges": []}', '{"n": 3, "edges": [[0, "1"]]}',
]

# each row is a tuple of malformed calls; every call runs in every example
CALLS = {
    # colorings
    "ListAssignment": (
        lambda data, g: eq.ListAssignment((frozenset({bad_palette(data, 0)}), frozenset({0}))),
        lambda data, g: eq.ListAssignment.of([[0], [bad_palette(data, 0), 1]]),
        lambda data, g: eq.ListAssignment.uniform(g.n, bad_palette(data)),
    ),
    "PartialColoring": (
        lambda data, g: eq.PartialColoring(g.n, bad_palette(data)),
        lambda data, g: eq.PartialColoring(g.n, 2, [0] * (g.n + 1)),
        lambda data, g: eq.PartialColoring(
            g.n, 2, [data.draw(st.sampled_from([-1, 2, 5]))] * g.n),
    ),
    "dominates": (
        lambda data, g: eq.dominates(eq.PartialColoring(g.n, 2), misfit(data, g, 2), [0, 1]),
    ),
    "greedy_extend_full": (
        lambda data, g: eq.greedy_extend_full(g, data.draw(st.integers(-2, g.max_degree))),
        lambda data, g: eq.greedy_extend_full(
            g, g.max_degree + 1, misfit(data, g, g.max_degree + 1)),
        lambda data, g: eq.greedy_extend_full(g, g.max_degree + 1, order=bad_ids(data, g)),
        lambda data, g: eq.greedy_extend_full(g, g.max_degree + 1, order=short_order(data, g)),
    ),
    "greedy_maximal": (
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n - 1, 2),
                                          eq.PartialColoring(g.n, 2)),
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n, 2),
                                          misfit(data, g, 2)),
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n, 2),
                                          improper(data, g, 2)),
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n, 2),
                                          eq.PartialColoring(g.n, 2), bad_ids(data, g)),
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n, 2),
                                          eq.PartialColoring(g.n, 2), short_order(data, g)),
        lambda data, g: eq.greedy_maximal(g, eq.ListAssignment.uniform(g.n, 3),
                                          eq.PartialColoring(g.n, 2)),
    ),
    "is_proper": (lambda data, g: eq.is_proper(g, misfit(data, g, 2)),),
    "maximal_independent_superset": (
        lambda data, g: eq.maximal_independent_superset(g, [bad_id(data, g)]),
    ),
    # distributions
    "ColorDistribution": (
        lambda data, g: eq.ColorDistribution([2, bad_palette(data, 0)]),
        lambda data, g: eq.ColorDistribution([1, 2], data.draw(st.integers(-2, 2))),
        lambda data, g: eq.ColorDistribution.from_coloring(partial(data, g, g.max_degree + 1)),
    ),
    "ConvergenceLedger": (
        lambda data, g: eq.ConvergenceLedger(1, bad_palette(data), 0),
        lambda data, g: eq.ConvergenceLedger(bad_palette(data), 3, 0),
        lambda data, g: eq.ConvergenceLedger(
            1, 3, data.draw(st.sampled_from([-1, Fraction(-1, 6)]))),
    ),
    "initial_sums_witness": (
        lambda data, g: eq.initial_sums_witness(
            eq.ColorDistribution([1, 2]), eq.ColorDistribution([1, 1, 1])),
    ),
    "is_more_equitable": (
        lambda data, g: eq.is_more_equitable(
            eq.ColorDistribution([1, 2]), eq.ColorDistribution([1, 1, 1])),
    ),
    "l1_distance": (
        lambda data, g: eq.l1_distance(
            eq.ColorDistribution([1, 2]), eq.ColorDistribution([1, 1, 1])),
    ),
    # domination
    "color_all_but_one": domination_calls(eq.color_all_but_one),
    "dominating_full_coloring": domination_calls(eq.dominating_full_coloring, None),
    "large_list_shortcut": domination_calls(eq.large_list_shortcut, None),
    # dynamics
    "apply_monotone_prefix": (
        lambda data, g: eq.apply_monotone_prefix(
            g, misfit(data, g, 3, total=True), batch_of([])),
        *(lambda data, g, move=move: eq.apply_monotone_prefix(
            g, f := eq.greedy_extend_full(g, g.max_degree + 1), batch_of([move(data, f)])
        ) for move in MOVES),
    ),
    "apply_move": tuple(
        lambda data, g, move=move: eq.apply_move(
            f := eq.greedy_extend_full(g, g.max_degree + 1), move(data, f))
        for move in MOVES
    ),
    "equitable_k_coloring": (
        lambda data, g: eq.equitable_k_coloring(g, data.draw(st.integers(-2, g.max_degree))),
        lambda data, g: eq.equitable_k_coloring(g, k := g.max_degree + 1, misfit(data, g, k)),
        lambda data, g: eq.equitable_k_coloring(g, k := g.max_degree + 1, improper(data, g, k)),
        lambda data, g: eq.equitable_k_coloring(g, k := g.max_degree + 1,
                                                eq.PartialColoring(g.n, k + 1)),
    ),
    "find_improving_move": (
        lambda data, g: eq.find_improving_move(g, misfit(data, g, 3, total=True)),
        lambda data, g: eq.find_improving_move(g, partial(data, g, g.max_degree + 1)),
    ),
    "is_acceptable": (
        lambda data, g: eq.is_acceptable(g, misfit(data, g, 3, total=True),
                                         eq.RecoloringMove(((0, 1),))),
        *(lambda data, g, move=move: eq.is_acceptable(
            g, f := eq.greedy_extend_full(g, g.max_degree + 1), move(data, f)
        ) for move in MOVES),
    ),
    "make_move": (
        lambda data, g: eq.make_move(g, {}),
        lambda data, g: eq.make_move(g, {bad_id(data, g): 0}),
        lambda data, g: eq.make_move(g, {0: bad_palette(data, 0)}),
    ),
    "select_separated_batch": (
        lambda data, g: eq.select_separated_batch(g, misfit(data, g, 3, total=True), []),
        *(lambda data, g, move=move: eq.select_separated_batch(
            g, f := eq.greedy_extend_full(g, g.max_degree + 1), [move(data, f)]
        ) for move in MOVES),
    ),
    # forests
    "build_one_ended_subforest": (
        lambda data, g: eq.build_one_ended_subforest(g, bad_ids(data, g)),
    ),
    "dominating_delta_coloring": (
        lambda data, g: eq.dominating_delta_coloring(g, *small_palette(data, g)),
        lambda data, g: eq.dominating_delta_coloring(
            g, misfit(data, g, g.max_degree), g.max_degree),
        lambda data, g: eq.dominating_delta_coloring(
            g, improper(data, g, g.max_degree), g.max_degree),
        lambda data, g: eq.dominating_delta_coloring(
            g, eq.PartialColoring(g.n, g.max_degree + 1), g.max_degree),
    ),
    "forest_recolor": (
        *(lambda data, g, forest=forest: eq.forest_recolor(
            g, forest(data, g), eq.PartialColoring(g.n, g.max_degree), g.max_degree
        ) for forest in FOREIGN_FORESTS),
        lambda data, g: eq.forest_recolor(g, eq.build_one_ended_subforest(g, [0]),
                                          *small_palette(data, g)),
        lambda data, g: eq.forest_recolor(g, eq.build_one_ended_subforest(g, [0]),
                                          misfit(data, g, g.max_degree), g.max_degree),
        lambda data, g: eq.forest_recolor(g, eq.build_one_ended_subforest(g, [0]),
                                          improper(data, g, g.max_degree), g.max_degree),
    ),
    # generators and graph files
    "generate": tuple(
        lambda data, g, spec=spec: eq.generate(eq.InstanceSpec.parse(spec))
        for spec in GENERATE_SPECS
    ),
    "read_graph": (
        lambda data, g: eq.read_graph(
            tmp_graph_file(f"p edge {g.n} 1\ne 1 {g.n + 1}\n", ".col")),
        lambda data, g: eq.read_graph(
            tmp_graph_file(f"p edge {bad_palette(data, 0)} 0\n", ".col")),
        lambda data, g: eq.read_graph(
            tmp_graph_file(f'{{"n": {g.n}, "edges": [[0, {bad_id(data, g)}]]}}', ".json")),
        *(lambda data, g, text=text: eq.read_graph(tmp_graph_file(text, ".json"))
          for text in BAD_JSON_GRAPHS),
    ),
    "write_graph": (
        lambda data, g: eq.write_graph(g, Path(TMP.name) / "g.txt", "adjacency-matrix"),
    ),
    # graphs
    "average_degree": (lambda data, g: eq.average_degree(eq.build_graph(0, [])),),
    "Graph": (
        lambda data, g: eq.Graph(g.n + 1, g.adj),
        lambda data, g: eq.Graph(g.n, listed(g, (0, bad_id(data, g)))),
        lambda data, g: eq.Graph(g.n, listed(g, (0, 0))),
        lambda data, g: eq.Graph(g.n, listed(g, edge := data.draw(st.sampled_from(g.edges())),
                                             edge[::-1])),
        lambda data, g: eq.Graph(
            g.n, [nbrs[1:] if u == 0 else nbrs for u, nbrs in enumerate(g.adj)]),
    ),
    "build_graph": (
        lambda data, g: eq.build_graph(bad_palette(data, 0), []),
        lambda data, g: eq.build_graph(g.n, [(0, bad_id(data, g))]),
        lambda data, g: eq.build_graph(g.n, [(1, 1)]),
        lambda data, g: eq.build_graph(g.n, [(0, 1), (1, 0)]),
    ),
    "contains_clique": (lambda data, g: eq.contains_clique(g, bad_palette(data)),),
    "is_gallai_tree": (
        lambda data, g: eq.is_gallai_tree(g, bad_ids(data, g)),
        lambda data, g: eq.is_gallai_tree(g, []),
    ),
    # oracle
    "domination_exists": (
        lambda data, g: eq.domination_exists(g, eq.ListAssignment.uniform(g.n - 1, 2),
                                             eq.PartialColoring(g.n, 2)),
        lambda data, g: eq.domination_exists(g, eq.ListAssignment.uniform(g.n, 2),
                                             misfit(data, g, 2)),
    ),
    "enumerate_proper_colorings": (
        lambda data, g: list(eq.enumerate_proper_colorings(g, bad_palette(data))),
        lambda data, g: list(eq.enumerate_proper_colorings(g)),
        lambda data, g: list(eq.enumerate_proper_colorings(
            g, 2, eq.ListAssignment.uniform(g.n, 2))),
        lambda data, g: list(eq.enumerate_proper_colorings(
            g, lists=eq.ListAssignment.uniform(g.n - 1, 2))),
    ),
    "equitable_exists": (lambda data, g: eq.equitable_exists(g, bad_palette(data)),),
    "improving_move_exists": (
        lambda data, g: eq.improving_move_exists(g, misfit(data, g, 3, total=True), 3),
        lambda data, g: eq.improving_move_exists(g, partial(data, g, g.max_degree + 1), 3),
        lambda data, g: eq.improving_move_exists(
            g, eq.greedy_extend_full(g, g.max_degree + 1), data.draw(st.integers(-2, 0))),
    ),
    # pipeline
    "cost": (lambda data, g: eq.cost(g, bad_ids(data, g)),),
    "equitable_delta_coloring": tuple(
        lambda data, g, k=k: eq.equitable_delta_coloring(g, k(g))
        for k in (lambda g: -1, lambda g: 0, lambda g: g.max_degree + 1)
    ),
    "extract_dense_set": (lambda data, g: eq.extract_dense_set(g, bad_palette(data, 0)),),
    "quick_balance": (
        lambda data, g: eq.quick_balance(g, misfit(data, g, 3, total=True), [],
                                         eq.greedy_extend_full(g, g.max_degree + 1)),
        lambda data, g: eq.quick_balance(g, partial(data, g, g.max_degree + 1), [],
                                         eq.greedy_extend_full(g, g.max_degree + 1)),
        lambda data, g: eq.quick_balance(g, improper(data, g, g.max_degree + 1, total=True),
                                         [], eq.greedy_extend_full(g, g.max_degree + 1)),
        lambda data, g: eq.quick_balance(g, eq.greedy_extend_full(g, g.max_degree + 1), [],
                                         misfit(data, g, 3, total=True)),
        lambda data, g: eq.quick_balance(g, eq.greedy_extend_full(g, g.max_degree + 1), [],
                                         improper(data, g, g.max_degree + 1, total=True)),
        lambda data, g: eq.quick_balance(g, eq.greedy_extend_full(g, g.max_degree + 1),
                                         bad_ids(data, g),
                                         eq.greedy_extend_full(g, g.max_degree + 1)),
    ),
}


def test_every_export_has_a_row():
    exported = {
        name for name in dir(eq)
        if not name.startswith("_") and callable(getattr(eq, name))
    }
    assert not set(CALLS) & set(EXEMPT)
    assert exported == set(CALLS) | set(EXEMPT)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), g=connected_graphs())
def test_malformed_arguments_raise_typed_errors(name, data, g):
    for i, call in enumerate(CALLS[name]):
        try:
            call(data, g)
        except EquicolorError:
            continue
        pytest.fail(f"call {i} of the {name} row raised no error")
