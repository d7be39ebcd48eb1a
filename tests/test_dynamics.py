import json
import random
import time
from fractions import Fraction
from itertools import chain, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicolor import (
    DriverConfig,
    PartialColoring,
    RecoloringMove,
    apply_monotone_prefix,
    apply_move,
    build_graph,
    equitable_k_coloring,
    find_improving_move,
    greedy_extend_full,
    is_acceptable,
    is_proper,
    make_move,
    select_separated_batch,
)
from equicolor.distributions import ColorDistribution, discrepancy
from equicolor import dynamics
from equicolor.dynamics import (
    Batch,
    _apply_monotone_prefix,
    _assign_move,
    _connected_domains,
    _pattern1_moves,
    _pattern23_moves,
    _Pattern1Index,
    _separated,
    _signature,
    admissible_witness,
    move_deltas,
)
from equicolor.errors import (
    NotSeparated,
    OutOfRange,
    PaletteTooSmall,
    SignatureMismatch,
    Stalled,
    UnacceptableMove,
)
from equicolor.generators import InstanceSpec, generate
from equicolor.oracle import improving_move_exists

from conftest import (
    complete,
    complete_bipartite,
    cycle,
    path,
    random_graph,
    reference_monotone_prefix,
    replay_trace,
    star,
)


def test_make_move_validation():
    g = build_graph(4, [(0, 1), (2, 3)])
    move = make_move(g, {0: 1, 1: 0})
    assert move.domain == (0, 1)
    with pytest.raises(OutOfRange):
        make_move(g, {})
    with pytest.raises(OutOfRange):
        make_move(g, {0: 1, 2: 0})  # spans two components


def test_delta_alpha_examples():
    # delta_alpha, the signed count change of class alpha, is move_deltas[alpha]
    g = path(2)
    f = PartialColoring(2, 3, [1, 2])
    move = make_move(g, {0: 0})
    assert move_deltas(f, move) == [1, -1, 0]
    noop = make_move(g, {0: 1})
    assert move_deltas(f, noop) == [0, 0, 0]


def test_delta_alpha_triple():
    # x, x' move into y's class while y takes a fresh color
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
    # f: x=0 has color beta=1, x'=2 has beta'=2, y=1 has alpha=0
    f = PartialColoring(5, 4, [1, 0, 2, 1, 2])
    move = make_move(g, {0: 0, 2: 0, 1: 3})
    assert move_deltas(f, move) == [1, -1, -1, 1]


def test_acceptability():
    iso = build_graph(3, [(1, 2)])
    f = PartialColoring(3, 2, [0, 0, 1])
    assert is_acceptable(iso, f, make_move(iso, {0: 1}))
    g = path(3)
    f2 = PartialColoring(3, 2, [0, 1, 0])
    assert not is_acceptable(g, f2, make_move(g, {0: 1}))
    # pairwise move where both targets clear simultaneously
    f3 = PartialColoring(3, 3, [1, 0, 1])
    move = make_move(g, {0: 0, 1: 2})
    assert is_acceptable(g, f3, move)


def test_admissible_witness_choice():
    g = build_graph(4, [])
    f = PartialColoring(4, 2, [1, 1, 1, 0])
    move = make_move(g, {0: 0})
    assert admissible_witness(g, f, move) == 0
    f2 = PartialColoring(4, 2, [1, 1, 0, 0])
    assert admissible_witness(g, f2, make_move(g, {0: 0})) is None
    # overshoot: class 0 starts below the shrinking class 1, but (1,2) -> (2,1)
    # ends above it, so the bare improvement test would accept witness 0
    g3 = build_graph(3, [])
    f3 = PartialColoring(3, 2, [0, 1, 1])
    assert admissible_witness(g3, f3, make_move(g3, {1: 0})) is None


def test_admissible_rejects_overshoot_swap():
    g = build_graph(11, [])
    f = PartialColoring(11, 2, [0] * 5 + [1] * 6)
    move = make_move(g, {5: 0})  # counts (5,6) -> (6,5): a pure swap
    assert admissible_witness(g, f, move) is None
    f2 = PartialColoring(11, 2, [0] * 4 + [1] * 7)
    move2 = make_move(g, {4: 0})  # (4,7) -> (5,6) stays monotone
    assert admissible_witness(g, f2, move2) == 0


def test_find_improving_move_c6():
    # the most skewed proper 3-coloring of a 6-cycle has counts (3, 2, 1):
    # a class of 4 would be an independent set larger than the maximum 3
    g = cycle(6)
    f = PartialColoring(6, 3, [0, 1, 0, 1, 0, 2])  # counts (3, 2, 1)
    assert is_proper(g, f)
    move = find_improving_move(g, f)
    assert move is not None and move.size == 1
    assert move.assignments == ((2, 2),)
    new = apply_move(f, move)
    assert is_proper(g, new)
    assert new.counts() == (2, 2, 2)


def test_find_improving_move_equitable_none():
    g = cycle(6)
    f = PartialColoring(6, 3, [0, 1, 2, 0, 1, 2])
    assert find_improving_move(g, f) is None


def test_star_small_palette_has_no_admissible_move():
    # palette below max degree + 1: stall expected, matching the oracle
    g = star(3)
    f = PartialColoring(4, 2, [0, 1, 1, 1])
    assert find_improving_move(g, f) is None
    assert not improving_move_exists(g, f, 3)
    assert f.gap() == 2


def test_pattern_scan_agrees_with_exhaustive_on_random_instances():
    # whenever the pattern scan returns a move it is admissible, and when it
    # returns none for gap >= 2 the exhaustive fallback inside
    # find_improving_move settles existence identically with the oracle
    from equicolor.oracle import OracleBudget
    budget = OracleBudget(max_vertices=9, max_palette=9)
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(7, 0.35, rng.randint(0, 10**6))
        k = g.max_degree + 1
        f = PartialColoring(g.n, k)
        for v in range(g.n):
            options = [
                c for c in range(k)
                if all(f.get(w) != c for w in g.adjacency(v))
            ]
            f.assign(v, rng.choice(options))
        move = find_improving_move(g, f)
        exists = improving_move_exists(g, f, 3, budget)
        assert (move is not None) == exists
        if move is not None:
            assert admissible_witness(g, f, move) is not None


def skewed_coloring(g, k, rng):
    """Random proper k-coloring that favors a random order of the colors:
    each vertex, in random order, takes one of the first `width` colors
    still free at it, so the smaller the width, the more the classes
    differ in size."""
    order = list(range(k))
    rng.shuffle(order)
    width = rng.choice((1, 2, 3, k))
    f = PartialColoring(g.n, k)
    vertices = list(range(g.n))
    rng.shuffle(vertices)
    for v in vertices:
        taken = {f.get(w) for w in g.adjacency(v)}
        options = [c for c in order if c not in taken]
        f.assign(v, options[rng.randrange(min(len(options), width))])
    return f


def test_small_move_exists_on_skewed_delta_plus_one_colorings():
    # the driver stalls as soon as find_improving_move returns None at gap
    # >= 2; on (max degree + 1)-colorings it must always find a move
    rng = random.Random(20261018)
    checked, elapsed = 0, 0.0
    while checked < 2000:
        g = random_graph(rng.randint(8, 16), rng.choice((0.15, 0.25, 0.35, 0.5)),
                         rng.getrandbits(32))
        f = skewed_coloring(g, g.max_degree + 1, rng)
        if f.gap() < 2:
            continue
        t0 = time.perf_counter()
        move = find_improving_move(g, f)
        elapsed += time.perf_counter() - t0
        assert move is not None, (g.edges(), f.as_list())
        assert admissible_witness(g, f, move) is not None
        checked += 1
    assert elapsed < 2.0


def test_connected_domains_unique_and_connected():
    g = cycle(4)
    doms = list(_connected_domains(g, 4))
    assert len(doms) == len(set(doms))
    from equicolor.graphs import component_of
    for d in doms:
        sub, _ = g.induced_subgraph(d)
        assert len(component_of(sub, 0)) == sub.n
    # C4: 4 singletons, 4 edges, 4 paths of 3, 1 whole cycle... plus the
    # three-vertex sets are the 4 paths; four-vertex sets: the full cycle
    sizes = sorted(len(d) for d in doms)
    assert sizes.count(1) == 4 and sizes.count(2) == 4
    assert sizes.count(3) == 4 and sizes.count(4) == 1


def test_select_separated_batch():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    f = PartialColoring(6, 2, [1, 0, 1, 0, 1, 0])
    moves = [make_move(g, {0: 0}), make_move(g, {2: 0}), make_move(g, {4: 0})]
    batch = select_separated_batch(g, f, moves)
    assert batch.size == 3
    # mixed signatures are rejected
    g2 = path(3)
    f2 = PartialColoring(3, 3, [0, 1, 2])
    m1 = make_move(g2, {0: 1})
    m2 = make_move(g2, {1: 0})
    with pytest.raises(SignatureMismatch):
        select_separated_batch(g2, f2, [m1, m2])
    # adjacent domains with one signature: only the first survives
    g3 = path(4)
    f3 = PartialColoring(4, 4, [1, 0, 1, 0])
    pair1 = make_move(g3, {0: 2, 1: 3})
    pair2 = make_move(g3, {2: 2, 3: 3})
    batch2 = select_separated_batch(g3, f3, [pair1, pair2])
    assert batch2.moves == (pair1,)
    assert select_separated_batch(g, f, []).size == 0


def test_apply_monotone_prefix_overshoot():
    # classes (3,5) with 3 parallel moves from class 1 to class 0: only the
    # first keeps the distribution monotone
    g = build_graph(8, [])
    f = PartialColoring(8, 2, [0] * 3 + [1] * 5)
    moves = [make_move(g, {3: 0}), make_move(g, {4: 0}), make_move(g, {5: 0})]
    batch = select_separated_batch(g, f, moves)
    assert batch.size == 3
    out, applied = apply_monotone_prefix(g, f, batch)
    assert applied == 1
    assert out.counts() == (4, 4)


def test_apply_monotone_prefix_full_and_empty():
    g = build_graph(6, [])
    f = PartialColoring(6, 2, [0, 1, 1, 1, 1, 1])
    moves = [make_move(g, {1: 0}), make_move(g, {2: 0})]
    batch = select_separated_batch(g, f, moves)
    out, applied = apply_monotone_prefix(g, f, batch)
    assert applied == 2 and out.counts() == (3, 3)
    empty = Batch((), frozenset(), frozenset(), 0)
    same, zero = apply_monotone_prefix(g, f, empty)
    assert zero == 0 and same == f


def test_apply_monotone_prefix_rejects_unacceptable():
    g = path(2)
    f = PartialColoring(2, 2, [0, 1])
    bad = Batch((make_move(g, {0: 1}),), frozenset({1}), frozenset({0}), 1)
    with pytest.raises(UnacceptableMove):
        apply_monotone_prefix(g, f, bad)


def _signature_groups(g, f, moves):
    """Acceptable moves that change some class size, grouped by signature
    in first-seen order."""
    groups = {}
    for mv in moves:
        sig = _signature(f, mv)
        if sig[0] and is_acceptable(g, f, mv):
            groups.setdefault(sig, []).append(mv)
    return groups


@st.composite
def walk_inputs(draw):
    """G(n,p) with n <= 40, a proper total coloring skewed toward one
    shuffled color order, and a seeded rng for the hand-built moves."""
    n = draw(st.integers(min_value=2, max_value=40))
    p = draw(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.35]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = random_graph(n, p, rng.getrandbits(32))
    k = g.max_degree + 1 + draw(st.integers(min_value=0, max_value=2))
    order = list(range(k))
    rng.shuffle(order)
    f = PartialColoring(n, k)
    for v in rng.sample(range(n), n):
        free = [c for c in order if all(f.get(w) != c for w in g.adjacency(v))]
        f.assign(v, free[0] if rng.random() < 0.7 else rng.choice(free))
    return g, f, rng


@settings(max_examples=300, deadline=None)
@given(walk_inputs())
def test_early_stop_walk_matches_full_walk(inputs):
    # groups of one signature from pattern 1, from patterns 2-3, and from
    # random moves on connected domains of 2-3 vertices; each is handed to
    # the walk unseparated, as the driver does
    g, f, rng = inputs
    domains = [d for d in _connected_domains(g, 3) if len(d) > 1]
    built = [
        RecoloringMove(tuple((v, rng.randrange(f.k)) for v in dom))
        for dom in rng.sample(domains, min(len(domains), 80))
    ]
    groups = []
    for moves in (_pattern1_moves(g, f), _pattern23_moves(g, f), built):
        groups += _signature_groups(g, f, moves).items()
    for (grows, shrinks), group in groups:
        m = max(mv.size for mv in group)
        separated = Batch(tuple(_separated(g, group)), grows, shrinks, m)
        expected, t_ref = reference_monotone_prefix(g, f, separated)
        out = f.copy()
        t, recolored = _apply_monotone_prefix(
            g, out, Batch(tuple(group), grows, shrinks, m),
            lambda mv: _assign_move(out, mv),
        )
        assert t == t_ref and out == expected
        assert recolored == sorted(
            v for mv in separated.moves[:t] for v, c in mv.assignments if f.get(v) != c
        )
        assert apply_monotone_prefix(g, f, separated) == (expected, t_ref)
    # a walked move off the batch signature is rejected
    for (sig, group), (other, foreign) in zip(groups, groups[1:]):
        if other != sig:
            mixed = Batch((foreign[0],) + tuple(group), sig[0], sig[1], 3)
            with pytest.raises(SignatureMismatch):
                _apply_monotone_prefix(g, f.copy(), mixed, lambda mv: [])


# a pattern-3 group of the second batch has two moves sharing vertices 3
# and 12; the driver separates them, so only the first is applied
UNSEPARATED_GROUP_EDGES = [
    (0, 4), (0, 10), (0, 14), (1, 2), (1, 3), (1, 9), (1, 11), (1, 14), (2, 9),
    (2, 13), (3, 12), (3, 15), (3, 19), (3, 20), (4, 11), (4, 12), (4, 16),
    (4, 18), (4, 20), (5, 9), (5, 20), (6, 7), (6, 12), (6, 13), (7, 20), (8, 9),
    (8, 15), (9, 15), (10, 13), (10, 14), (11, 12), (11, 13), (12, 16), (12, 19),
    (13, 14), (13, 15), (13, 20), (14, 16), (15, 18), (15, 19), (17, 18), (18, 20),
]
UNSEPARATED_GROUP_START = [0, 0, 6, 2, 1, 0, 1, 0, 0, 2, 1, 3, 7, 0, 2, 1, 5, 1, 0, 0, 3]


def test_walk_checks_separation_of_applied_moves(monkeypatch):
    g = build_graph(21, UNSEPARATED_GROUP_EDGES)
    start = PartialColoring(21, 8, UNSEPARATED_GROUP_START)
    f, trace = equitable_k_coloring(g, 8, f0=start, config=DriverConfig(batch_mode=True))
    assert f.gap() <= 1 and is_proper(g, f)
    assert trace.records[1].vertices == (3, 4, 12)
    # with the lazy separation switched off, the second move of that group
    # reaches the walk, and the check on applied moves stops it
    monkeypatch.setattr(dynamics, "_separated", lambda g, moves: iter(moves))
    with pytest.raises(NotSeparated):
        equitable_k_coloring(g, 8, f0=start, config=DriverConfig(batch_mode=True))


def test_driver_small_examples():
    f, _ = equitable_k_coloring(build_graph(7, []), 3)
    assert sorted(f.counts()) == [2, 2, 3]
    f2, _ = equitable_k_coloring(complete(4), 4)
    assert f2.counts() == (1, 1, 1, 1)
    f3, trace = equitable_k_coloring(cycle(6), 3)
    assert f3.counts() == (2, 2, 2)
    assert is_proper(cycle(6), f3)
    assert trace.ledger.cumulative <= trace.ledger.bound()


def test_driver_rejects_small_palette():
    with pytest.raises(PaletteTooSmall):
        equitable_k_coloring(star(3), 2)


def test_driver_respects_initial_coloring_bound():
    g = cycle(8)
    f0 = PartialColoring(8, 3, [0, 1, 0, 1, 0, 1, 0, 2])
    f, trace = equitable_k_coloring(g, 3, f0=f0)
    assert f.gap() <= 1 and is_proper(g, f)
    d0 = ColorDistribution.from_coloring(f0)
    changed = sum(1 for v in range(8) if f.get(v) != f0.get(v))
    assert Fraction(changed, 8) <= Fraction(7 ** 4, 2) * discrepancy(d0)


def test_driver_extends_partial_initial():
    g = cycle(6)
    f0 = PartialColoring(6, 3, [0, None, None, None, None, None])
    f, _ = equitable_k_coloring(g, 3, f0=f0)
    assert f.is_total() and f.gap() <= 1


def test_driver_batch_mode_matches_contract():
    for seed in range(5):
        g = random_graph(40, 0.08, seed)
        k = g.max_degree + 1
        f, trace = equitable_k_coloring(
            g, k, config=DriverConfig(batch_mode=True)
        )
        assert f.gap() <= 1 and is_proper(g, f)
        assert trace.ledger.cumulative <= trace.ledger.bound()


@pytest.mark.parametrize("batch", [False, True])
def test_driver_stalls_at_first_step_without_a_move(monkeypatch, batch):
    # with every move search emptied the driver must raise Stalled on its
    # first step, from the start coloring, without searching larger domains
    # or restarting
    g = star(3)
    start = greedy_extend_full(g, 4)
    assert start.gap() >= 2
    records = []
    monkeypatch.setattr(_Pattern1Index, "first_moves", lambda self, cap: [])
    monkeypatch.setattr(dynamics, "_pattern23_moves", lambda g, f: iter(()))
    monkeypatch.setattr(dynamics, "find_improving_move", lambda *args: None)
    monkeypatch.setattr(dynamics, "TraceRecord", lambda *a: records.append(a))
    with pytest.raises(Stalled) as info:
        equitable_k_coloring(g, 4, config=DriverConfig(batch_mode=batch))
    assert info.value.coloring == start
    assert info.value.gap == start.gap()
    assert records == []


def test_driver_deterministic():
    g = random_graph(30, 0.12, 3)
    k = g.max_degree + 1
    f1, t1 = equitable_k_coloring(g, k)
    f2, t2 = equitable_k_coloring(g, k)
    assert f1.as_list() == f2.as_list()
    assert t1.step_count == t2.step_count


def test_trace_serialization():
    g = cycle(6)
    f, trace = equitable_k_coloring(g, 3)
    lines = trace.to_jsonl().strip().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "header" and header["k"] == 3
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["kind"] in ("move", "batch")
        assert "/" in rec["cumulative"] or rec["cumulative"].isdigit()
    csv_text = trace.to_csv()
    assert csv_text.splitlines()[0] == "step,disc,l1,cumulative"
    assert len(csv_text.splitlines()) == 1 + trace.step_count + trace.restarts


def test_driver_every_step_monotone_and_ledgered():
    g = random_graph(24, 0.2, 9)
    k = g.max_degree + 1
    f, trace = equitable_k_coloring(g, k)
    assert f.gap() <= 1
    # replay: counts sequence must match the recorded l1 steps
    prev = ColorDistribution(trace.initial_counts)
    for rec in trace.records:
        cur = ColorDistribution(rec.counts)
        from equicolor.distributions import l1_distance, is_more_equitable
        assert is_more_equitable(prev, cur, strict=False)
        assert l1_distance(prev, cur) == rec.l1
        prev = cur


def test_pattern1_index_tracks_arbitrary_moves():
    # random proper recolorings of 1-3 vertices, admissible or not: after
    # each one the index agrees with a full rescan on the first `cap` moves
    # in scan order
    rng = random.Random(7)
    for trial in range(30):
        g = random_graph(25, 0.15, trial)
        k = g.max_degree + 1 + trial % 3
        f = PartialColoring(g.n, k)
        for v in range(g.n):
            f.assign(v, rng.choice(
                [c for c in range(k) if all(f.get(w) != c for w in g.adjacency(v))]
            ))
        index = _Pattern1Index(g, f)
        for _ in range(60):
            v = rng.randrange(g.n)
            dom = [v] + rng.sample(g.adjacency(v), min(g.degree(v), rng.randint(0, 2)))
            colors = [rng.randrange(k) for _ in dom]
            move = make_move(g, dict(zip(dom, colors)))
            if not is_acceptable(g, f, move):
                continue
            expected = [u for u, c in move.assignments if f.get(u) != c]
            assert index.apply(move.assignments) == expected
            assert is_proper(g, f)
            for cap in (1, 5, 64):
                assert index.first_moves(cap) == list(islice(_pattern1_moves(g, f), cap))


def test_driver_debug_asserts_index_against_rescan(monkeypatch):
    # the n <= 50 graphs never fill a batch's candidate list from the index;
    # the cubic graph does, and the K_{3,3} start has no pattern-1 move, so
    # its first batch comes from patterns 2-3 alone
    cubic = generate(InstanceSpec.parse("regular:n=1002,d=3", 0))
    k33 = complete_bipartite(3, 3)
    k33_start = PartialColoring(6, 4, [1, 1, 1, 3, 0, 2])
    assert len(_Pattern1Index(cubic, greedy_extend_full(cubic, 4)).first_moves(64)) == 64
    assert _Pattern1Index(k33, k33_start).first_moves(64) == []
    runs = []
    for debug in ("", "1"):
        monkeypatch.setenv("EQUICOLOR_DEBUG_ASSERT", debug)
        for seed in range(6):
            g = random_graph(50, 0.08, seed)
            k = g.max_degree + 1 + seed % 3
            for batch in (False, True):
                f, trace = equitable_k_coloring(
                    g, k, config=DriverConfig(batch_mode=batch)
                )
                runs.append((f.as_list(), trace.to_jsonl()))
        f, cubic_trace = equitable_k_coloring(
            cubic, 4, config=DriverConfig(batch_mode=True)
        )
        runs.append((f.as_list(), cubic_trace.to_jsonl()))
        replay_trace(cubic, 4, f, cubic_trace, batch=True)
        f, trace = equitable_k_coloring(
            k33, 4, f0=k33_start, config=DriverConfig(batch_mode=True)
        )
        assert trace.records[0].kind == "batch"
        runs.append((f.as_list(), trace.to_jsonl()))
        # batches whose walk stops early, one of them on a pattern-3 group
        g = build_graph(21, UNSEPARATED_GROUP_EDGES)
        start = PartialColoring(21, 8, UNSEPARATED_GROUP_START)
        for h, k, f0 in ((cubic, 4, None), (g, 8, start)):
            f, trace = equitable_k_coloring(h, k, f0=f0, config=DriverConfig(batch_mode=True))
            ledger = trace.ledger.to_json_dict()
            # the flag adds each ledger step's prefix sums, nothing else
            for step in ledger["steps"]:
                step.pop("prefix_sums", None)
            runs.append((f.as_list(), trace.to_jsonl(), trace.to_csv(), ledger))
    # the debug checks observe the run without changing it
    assert runs[:len(runs) // 2] == runs[len(runs) // 2:]
    # and each batch's prefix is compared with the full walk
    monkeypatch.setattr(dynamics, "_full_walk", lambda f, moves: -1)
    with pytest.raises(AssertionError, match="full walk"):
        equitable_k_coloring(g, 8, f0=start, config=DriverConfig(batch_mode=True))


def test_batch_driver_cubic_scales():
    # each batch rescanned every vertex for its candidates, so batch mode
    # was quadratic here
    g = generate(InstanceSpec.parse("regular:n=100002,d=3", 0))
    t0 = time.perf_counter()
    f, _ = equitable_k_coloring(g, 4, config=DriverConfig(batch_mode=True))
    elapsed = time.perf_counter() - t0
    assert f.gap() <= 1
    assert elapsed < 10.0, f"batch mode on cubic n={g.n} took {elapsed:.1f} s"


# (Δ+1)-colorings with gap 2 whose three pattern 1-3 candidates are all
# inadmissible, so only the exhaustive size-<=3 pass finds a move
NO_PATTERN_MOVE = [
    ([(1, 4), (2, 3), (2, 6), (2, 7), (3, 4), (3, 5), (4, 7), (5, 6)],
     [2, 0, 3, 1, 2, 0, 1, 1]),
    ([(0, 1), (0, 2), (0, 6), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5)],
     [3, 1, 2, 0, 3, 3, 2, 0]),
]


@pytest.mark.parametrize("edges, colors", NO_PATTERN_MOVE)
def test_exhaustive_pass_finds_the_only_small_moves(edges, colors):
    g = build_graph(8, edges)
    f = PartialColoring(8, 4, colors)
    assert g.max_degree == 3 and f.gap() == 2
    candidates = list(chain(_pattern1_moves(g, f), _pattern23_moves(g, f)))
    assert len(candidates) == 3
    assert all(admissible_witness(g, f, mv) is None for mv in candidates)

    move = find_improving_move(g, f)
    assert move is not None and move.size <= 3
    assert admissible_witness(g, f, move) is not None
    assert improving_move_exists(g, f, 3)

    for batch in (False, True):
        out, trace = equitable_k_coloring(
            g, 4, f0=f, config=DriverConfig(batch_mode=batch)
        )
        assert [r.kind for r in trace.records] == ["move"]
        assert trace.records[0].vertices == move.domain
        assert out.gap() <= 1 and is_proper(g, out)
