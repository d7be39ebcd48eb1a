"""Property-based checks with hypothesis."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import (
    ColorDistribution,
    DriverConfig,
    PartialColoring,
    build_graph,
    components,
    equitable_k_coloring,
    greedy_maximal,
    is_more_equitable,
    is_proper,
    l1_distance,
    rearranged,
)
from equicolor.colorings import ListAssignment
from equicolor.distributions import d_minus, d_plus
from equicolor.dynamics import admissible_witness, apply_move, make_move
from equicolor.graphs import block_decomposition

from conftest import random_graph, replay_trace


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [p for p, keep in zip(pairs, mask) if keep])


@st.composite
def distributions(draw, k=None, max_total=24):
    kk = k if k is not None else draw(st.integers(min_value=1, max_value=5))
    counts = draw(st.lists(
        st.integers(min_value=0, max_value=max_total),
        min_size=kk, max_size=kk,
    ).filter(lambda c: sum(c) >= 1))
    return ColorDistribution(counts)


@st.composite
def distribution_pairs(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    return draw(distributions(k=k)), draw(distributions(k=k))


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_edge_round_trip(g):
    rebuilt = build_graph(g.n, g.edges())
    assert rebuilt.edges() == g.edges()


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_block_tree_identity(g):
    dec = block_decomposition(g)
    assert sum(len(b) - 1 for b in dec.blocks) == g.n - len(components(g))
    count = {}
    for b in dec.blocks:
        for v in b:
            count[v] = count.get(v, 0) + 1
    assert dec.cut_vertices == frozenset(v for v, c in count.items() if c >= 2)


@given(distribution_pairs())
@settings(max_examples=300, deadline=None)
def test_rearrangement_contracts_l1(pair):
    a, b = pair
    sorted_l1 = sum(
        (abs(x - y) for x, y in zip(rearranged(a), rearranged(b))),
        Fraction(0),
    )
    assert sorted_l1 <= l1_distance(a, b)


@given(distribution_pairs())
@settings(max_examples=300, deadline=None)
def test_more_equitable_antisymmetric(pair):
    a, b = pair
    assert not is_more_equitable(a, a, strict=True)
    if is_more_equitable(a, b, strict=True) and a != b:
        assert not is_more_equitable(b, a, strict=True)


@given(distribution_pairs())
@settings(max_examples=300, deadline=None)
def test_gain_loss_sets_disjoint(pair):
    a, b = pair
    assert not (d_plus(a, b) & d_minus(a, b))


@given(graphs(max_n=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=100, deadline=None)
def test_pushforward_distance_bound(g, seed):
    # the l1 gap between class-size distributions is at most twice the
    # fraction of vertices where the colorings differ
    import random
    rng = random.Random(seed)
    k = 3
    a = PartialColoring(g.n, k, [rng.randrange(k) for _ in range(g.n)])
    b = PartialColoring(g.n, k, [rng.randrange(k) for _ in range(g.n)])
    differ = sum(1 for v in range(g.n) if a.get(v) != b.get(v))
    assert l1_distance(
        ColorDistribution.from_coloring(a),
        ColorDistribution.from_coloring(b),
    ) <= 2 * Fraction(differ, g.n)


@given(graphs(), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_greedy_idempotent(g, seed):
    import random
    rng = random.Random(seed)
    lists = ListAssignment.of([
        rng.sample(range(4), rng.randint(1, 4)) for _ in range(g.n)
    ])
    once = greedy_maximal(g, lists, PartialColoring(g.n, 4))
    assert greedy_maximal(g, lists, once) == once
    assert is_proper(g, once)


@given(graphs(max_n=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_driver_reaches_within_one(g, seed):
    import random
    rng = random.Random(seed)
    k = g.max_degree + 1 + rng.randint(0, 1)
    f, trace = equitable_k_coloring(g, k)
    assert is_proper(g, f)
    assert f.gap() <= 1
    assert trace.ledger.cumulative <= trace.ledger.bound()


@given(graphs(max_n=7), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_admissible_moves_strictly_improve(g, seed):
    import random
    rng = random.Random(seed)
    k = g.max_degree + 1
    f = PartialColoring(g.n, k)
    for v in range(g.n):
        options = [
            c for c in range(k) if all(f.get(w) != c for w in g.adjacency(v))
        ]
        f.assign(v, rng.choice(options))
    # any admissible single move keeps properness and is strictly monotone
    for v in range(g.n):
        for c in range(k):
            if c == f.get(v):
                continue
            move = make_move(g, {v: c})
            if admissible_witness(g, f, move) is None:
                continue
            new = apply_move(f, move)
            assert is_proper(g, new)
            assert is_more_equitable(
                ColorDistribution.from_coloring(f),
                ColorDistribution.from_coloring(new),
                strict=True,
            )


@given(
    st.integers(min_value=2, max_value=40),
    st.sampled_from([0.05, 0.1, 0.2, 0.35]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 4]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_driver_moves_match_stateless_search(n, p, seed, extra, batch):
    # replay the trace from the greedy start: every round is the one the
    # rescan picks, and every fallback move the one the stateless search
    # picks, on the replayed coloring
    g = random_graph(n, p, seed)
    k = g.max_degree + extra
    f, trace = equitable_k_coloring(g, k, config=DriverConfig(batch_mode=batch))
    replay_trace(g, k, f, trace, batch)
