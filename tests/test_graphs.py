from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import (
    average_degree,
    block_decomposition,
    build_graph,
    components,
    contains_clique,
    is_gallai_tree,
)
from equicolor.errors import (
    DuplicateEdge,
    EmptyGraph,
    NotAComponent,
    OutOfRange,
    SelfLoop,
)

from equicolor.graphs import _anchor_blocks, _blocks, _gallai_block

from conftest import (
    bowtie,
    complete,
    cycle,
    path,
    random_graph,
    reference_block_decomposition,
    reference_block_is_clique,
    reference_block_is_odd_cycle,
    reference_build_graph,
)


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]
    assert g.max_degree == 2


def test_build_empty():
    g = build_graph(0, [])
    assert g.max_degree == 0
    assert g.edge_count == 0


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(2, [(0, 0)])
    # the set-based builder raised DuplicateEdge at the earlier repeat
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 1), (1, 0), (2, 2)])


def test_build_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        build_graph(2, [(0, 2)])
    with pytest.raises(OutOfRange):
        build_graph(3, [(0, 1), (1, 0), (0, 3)])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(0, 1), (1, 0)])
    # the least repeated pair is named, wherever its copies sit
    with pytest.raises(DuplicateEdge, match=r"^duplicate edge \(0, 1\)$"):
        build_graph(4, [(2, 3), (3, 2), (1, 0), (0, 1)])


def _build_outcome(build, n, edges):
    try:
        g = build(n, edges)
    except (OutOfRange, SelfLoop, DuplicateEdge) as e:
        return type(e), str(e)
    return g.n, g.adj


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_build_graph_matches_the_set_based_builder(data):
    """Shuffled, partly reversed simple edges, with at most one pair
    repeated and at most one bad edge, build what the set-based builder
    builds, or raise its error.  A bad edge (out of range or a loop) wins
    over a repeat wherever it sits, so the reference sees it first."""
    n = data.draw(st.integers(0, 9))
    pairs = data.draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                               unique=True) if n >= 2 else st.just([]))
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in pairs]
    if pairs and data.draw(st.booleans()):
        u, v = data.draw(st.sampled_from(pairs))
        edges.append((v, u) if data.draw(st.booleans()) else (u, v))
    bad = []
    if data.draw(st.booleans()):
        w = data.draw(st.integers(-2, n + 2))
        bad = [data.draw(st.sampled_from([(w, w), (0, n + 1), (w, -1)]))]
    edges = data.draw(st.permutations(edges + bad))
    reference_order = bad + [e for e in edges if e not in bad]
    assert _build_outcome(build_graph, n, edges) == _build_outcome(
        reference_build_graph, n, reference_order
    )


def test_edge_round_trip():
    edges = [(0, 3), (1, 2), (2, 4)]
    g = build_graph(5, edges)
    assert sorted(g.edges()) == sorted(edges)
    same = build_graph(5, reversed(edges))
    assert g == same and hash(g) == hash(same)
    assert g != build_graph(5, edges[:2]) and g != edges
    assert repr(g) == "Graph(n=5, m=3)"


def test_components():
    assert components(path(3)) == [[0, 1, 2]]
    two = build_graph(4, [(0, 1), (2, 3)])
    assert components(two) == [[0, 1], [2, 3]]
    assert components(build_graph(3, [])) == [[0], [1], [2]]


def test_blocks_cycle():
    dec = block_decomposition(cycle(5))
    assert len(dec.blocks) == 1
    assert dec.blocks[0] == frozenset(range(5))
    assert not dec.cut_vertices


def test_blocks_bowtie():
    dec = block_decomposition(bowtie())
    assert sorted(sorted(b) for b in dec.blocks) == [[0, 1, 2], [2, 3, 4]]
    assert dec.cut_vertices == frozenset({2})


def test_blocks_path():
    dec = block_decomposition(path(3))
    assert sorted(sorted(b) for b in dec.blocks) == [[0, 1], [1, 2]]
    assert dec.cut_vertices == frozenset({1})


def test_blocks_edge_partition_property():
    # every edge in exactly one block; sum (|B|-1) = n - #components
    for seed in range(30):
        g = random_graph(7, 0.35, seed)
        dec = block_decomposition(g)
        edge_owner = {}
        for i, b in enumerate(dec.blocks):
            for u, v in combinations(sorted(b), 2):
                if g.has_edge(u, v):
                    assert (u, v) not in edge_owner, "edge in two blocks"
                    edge_owner[(u, v)] = i
        assert len(edge_owner) == g.edge_count
        assert sum(len(b) - 1 for b in dec.blocks) == g.n - len(components(g))


def _is_two_connected_subset(g, vs):
    """Brute-force: the induced subgraph is connected and stays connected
    after deleting any one vertex (or is a single edge / vertex)."""
    sub, _ = g.induced_subgraph(vs)
    if sub.n <= 2:
        return len(components(sub)) == 1
    if len(components(sub)) != 1:
        return False
    for v in range(sub.n):
        rest, _ = sub.induced_subgraph([u for u in range(sub.n) if u != v])
        if len(components(rest)) != 1:
            return False
    return True


def _check_blocks_against_oracle(g):
    dec = block_decomposition(g)
    for b in dec.blocks:
        assert _is_two_connected_subset(g, b)
        for extra in range(g.n):
            if extra in b:
                continue
            if _is_two_connected_subset(g, b | {extra}):
                has_edges = any(
                    g.has_edge(u, v)
                    for u, v in combinations(sorted(b | {extra}), 2)
                )
                assert not (has_edges and len(b) >= 2), "block not maximal"


def test_blocks_against_two_connectivity_oracle():
    # a block is a maximal 2-connected vertex set (or a bridge / isolated
    # vertex); check maximality and 2-connectivity by brute force on every
    # graph with up to 7 vertices (one representative per isomorphism class
    # suffices since block structure transports along isomorphisms)
    from equicolor.oracle import canonical_graphs
    for n in range(1, 8):
        for g in canonical_graphs(n):
            _check_blocks_against_oracle(g)
    for seed in range(10):
        _check_blocks_against_oracle(random_graph(8, 0.3, seed))


@st.composite
def pieced_graphs(draw):
    """Random pieces on 1..6 vertices, some glued at one vertex to an
    earlier piece, some joined by single edges (bridges unless a later edge
    closes a cycle), plus isolated vertices, under a random relabelling:
    several components, cut vertices, tied anchor blocks and blocks of
    every kind."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 6))
        glued = [draw(st.integers(0, n - 1))] if n and draw(st.booleans()) else []
        vertices = glued + list(range(n, n + size - len(glued)))
        p = draw(st.sampled_from([0.3, 0.6, 1.0]))
        edges += [e for e in combinations(vertices, 2) if draw(st.floats(0, 1)) < p]
        n += size - len(glued)
    pairs = set(combinations(range(n), 2)) - set(edges)
    edges += draw(st.lists(st.sampled_from(sorted(pairs)), max_size=3, unique=True)) if pairs else []
    n += draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=300, deadline=None)
@given(pieced_graphs())
def test_blocks_match_the_edge_stack_reference(g):
    ref = reference_block_decomposition(g)
    assert block_decomposition(g) == ref
    blocks = [b for comp in _blocks(g, range(g.n)) for b in comp]
    assert [frozenset(vs) for vs, _ in blocks] == list(ref.blocks)
    for (vs, m), b in zip(blocks, ref.blocks):
        assert len(vs) == len(b)
        assert m == sum(1 for u, v in combinations(sorted(b), 2) if g.has_edge(u, v))
        assert _gallai_block(len(vs), m) == (
            reference_block_is_clique(g, b) or reference_block_is_odd_cycle(g, b)
        )
    comps = components(g)
    anchors = [
        min((b for b in ref.blocks if min(b) in comp
             and not reference_block_is_clique(g, b) and not reference_block_is_odd_cycle(g, b)),
            key=min, default=None)
        for comp in map(frozenset, comps)
    ]
    assert _anchor_blocks(g, comps) == anchors
    assert [is_gallai_tree(g, comp) for comp in comps] == [b is None for b in anchors]


def test_gallai_examples():
    assert is_gallai_tree(complete(4), range(4))
    assert not is_gallai_tree(cycle(4), range(4))
    assert is_gallai_tree(bowtie(), range(5))
    assert is_gallai_tree(cycle(5), range(5))


def test_gallai_requires_component():
    two = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotAComponent):
        is_gallai_tree(two, [0, 1, 2, 3])
    with pytest.raises(NotAComponent):
        is_gallai_tree(two, [0])


def _gallai_oracle(g, comp):
    """Definition check via the block decomposition of the induced graph."""
    sub, _ = g.induced_subgraph(comp)
    dec = block_decomposition(sub)
    for b in dec.blocks:
        s = len(b)
        m = sum(1 for u, v in combinations(sorted(b), 2) if sub.has_edge(u, v))
        clique = m == s * (s - 1) // 2
        degs = [sum(1 for w in sub.adjacency(v) if w in b) for v in b]
        odd_cycle = s >= 3 and s % 2 == 1 and all(d == 2 for d in degs) and m == s
        if not (clique or odd_cycle):
            return False
    return True


def test_gallai_agrees_with_oracle():
    from equicolor.oracle import canonical_graphs
    for n in range(1, 8):
        for g in canonical_graphs(n):
            for comp in components(g):
                assert is_gallai_tree(g, comp) == _gallai_oracle(g, comp)
    for seed in range(10):
        g = random_graph(8, 0.3, seed)
        for comp in components(g):
            assert is_gallai_tree(g, comp) == _gallai_oracle(g, comp)


def test_contains_clique():
    assert contains_clique(complete(4), 4)
    assert not contains_clique(cycle(5), 3)
    assert contains_clique(bowtie(), 3)
    assert not contains_clique(bowtie(), 4)
    with pytest.raises(OutOfRange):
        contains_clique(path(2), 0)


def test_contains_clique_against_enumeration():
    for seed in range(25):
        g = random_graph(7, 0.45, seed)
        for q in range(1, 6):
            expected = any(
                all(g.has_edge(a, b) for a, b in combinations(sub, 2))
                for sub in combinations(range(g.n), q)
            )
            assert contains_clique(g, q) == expected


@st.composite
def graphs_and_clique_sizes(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = list(combinations(range(n), 2))
    p = draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    mask = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, x in zip(pairs, mask) if x < p])
    return g, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=400, deadline=None)
@given(graphs_and_clique_sizes())
def test_contains_clique_matches_brute_force(case):
    g, q = case
    expected = any(
        all(g.has_edge(a, b) for a, b in combinations(sub, 2))
        for sub in combinations(range(g.n), q)
    )
    assert contains_clique(g, q) == expected


def test_average_degree():
    assert average_degree(cycle(6)) == 2
    assert average_degree(path(3)) == Fraction(4, 3)
    assert average_degree(complete(4)) == 3
    with pytest.raises(EmptyGraph):
        average_degree(build_graph(0, []))


def test_induced_subgraph():
    g = bowtie()
    sub, mapping = g.induced_subgraph([2, 3, 4])
    assert mapping == (2, 3, 4)
    assert sorted(sub.edges()) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("ids", [[-1], [3], [0, -2]])
def test_induced_subgraph_rejects_ids_out_of_range(ids):
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(OutOfRange, match=rf"vertex {min(ids)} outside \[0, 3\)"):
        g.induced_subgraph(ids)
