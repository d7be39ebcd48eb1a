import csv
import io
import json
import random
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

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
from equicolor.distributions import ColorDistribution, ConvergenceLedger, discrepancy
from equicolor import dynamics
from equicolor.dynamics import (
    Batch,
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
    ImproperInput,
    ImproperSeed,
    MonotonicityViolation,
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
    reference_pattern1_index,
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
    with pytest.raises(OutOfRange):
        make_move(g, {0: -1})


def test_move_functions_reject_what_does_not_fit():
    # each call raised a bare IndexError, and is_acceptable accepted the
    # move of a vertex outside the coloring
    g = path(4)
    f = PartialColoring(4, 2, [0, 1, 0, 1])
    short = PartialColoring(3, 2, [0, 1, 0])
    with pytest.raises(ImproperSeed):
        find_improving_move(g, short)
    with pytest.raises(ImproperInput):
        select_separated_batch(g, short, [RecoloringMove(((3, 0),))])
    with pytest.raises(ImproperInput):
        is_acceptable(g, short, RecoloringMove(((0, 1),)))
    for mv in (RecoloringMove(((5, 0),)), RecoloringMove(((-1, 0),)), RecoloringMove(((0, 2),))):
        with pytest.raises(OutOfRange):
            apply_move(f, mv)
        with pytest.raises(OutOfRange):
            is_acceptable(g, f, mv)
        with pytest.raises(OutOfRange):
            select_separated_batch(g, f, [mv])
        with pytest.raises(OutOfRange):
            apply_monotone_prefix(g, f, Batch((mv,), frozenset({0}), frozenset({1}), 1))


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
    # random moves on connected domains of 2-3 vertices, each separated
    # before the walk as select_separated_batch does
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
        assert apply_monotone_prefix(g, f, separated) == \
            reference_monotone_prefix(g, f, separated)
    # a walked move off the batch signature is rejected
    for (sig, group), (other, foreign) in zip(groups, groups[1:]):
        if other != sig:
            mixed = Batch(tuple(_separated(g, foreign[:1] + group)), sig[0], sig[1], 3)
            with pytest.raises(SignatureMismatch):
                apply_monotone_prefix(g, f, mixed)


def test_walk_checks_separation_of_applied_moves(monkeypatch):
    # counts (5, 4, 1): the first round moves 0 and 2 to color 2
    g = path(10)
    start = PartialColoring(10, 3, [0, 1, 0, 1, 0, 1, 0, 1, 0, 2])
    f, trace = equitable_k_coloring(g, 3, f0=start, config=DriverConfig(batch_mode=True))
    assert f.gap() <= 1 and is_proper(g, f)
    assert trace.records[0].vertices == (0, 2)
    # a take that hands over one vertex twice reaches the round check,
    # which stops it before anything is applied
    take = _Pattern1Index.take

    def take_first_twice(self, *args):
        taken = take(self, *args)
        return taken + taken[:1]

    monkeypatch.setattr(_Pattern1Index, "take", take_first_twice)
    with pytest.raises(NotSeparated):
        equitable_k_coloring(g, 3, f0=start, config=DriverConfig(batch_mode=True))


def test_round_check_rejects_alpha_neighbor_and_overshoot(monkeypatch):
    # the first round of the path above takes (0, 2) from class 0 to color
    # 2 at counts (5, 4, 1); vertex 8 is in class 0 next to vertex 9 of color 2
    g = path(10)
    start = PartialColoring(10, 3, [0, 1, 0, 1, 0, 1, 0, 1, 0, 2])
    config = DriverConfig(batch_mode=True)
    take = _Pattern1Index.take

    def with_alpha_neighbor(self, alpha, beta, cap):
        return take(self, alpha, beta, cap) + [8]

    monkeypatch.setattr(_Pattern1Index, "take", with_alpha_neighbor)
    with pytest.raises(UnacceptableMove):
        equitable_k_coloring(g, 3, f0=start, config=config)
    # one vertex past the cap, (0, 2, 4), would leave color 2 at 4 above
    # class 0 at 2
    monkeypatch.setattr(
        _Pattern1Index, "take",
        lambda self, alpha, beta, cap: take(self, alpha, beta, cap + 1),
    )
    with pytest.raises(MonotonicityViolation, match="overshoots"):
        equitable_k_coloring(g, 3, f0=start, config=config)


def test_driver_small_examples():
    f, _ = equitable_k_coloring(build_graph(7, []), 3)
    assert sorted(f.counts()) == [2, 2, 3]
    f2, _ = equitable_k_coloring(complete(4), 4)
    assert f2.counts() == (1, 1, 1, 1)
    f3, trace = equitable_k_coloring(cycle(6), 3)
    assert f3.counts() == (2, 2, 2)
    assert is_proper(cycle(6), f3)
    assert trace.ledger.cumulative <= trace.ledger.bound()
    f4, trace = equitable_k_coloring(build_graph(0, []), 1)
    assert f4.counts() == (0,) and trace.step_count == 0
    assert trace.ledger.cumulative == 0


def test_driver_rejects_small_palette():
    with pytest.raises(PaletteTooSmall):
        equitable_k_coloring(star(3), 2)


def test_driver_rejects_seed_of_other_size():
    # n - 1 vertices raised a bare IndexError, n + 1 a misleading count sum
    g = path(4)
    for colors in ([0, 1, 0], [0, 1, 0, 1, 0]):
        with pytest.raises(ImproperSeed):
            equitable_k_coloring(g, 3, f0=PartialColoring(len(colors), 3, colors))


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
    monkeypatch.setattr(_Pattern1Index, "first_move", lambda self, counts: None)
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


def test_trace_csv_matches_fraction_reference():
    # the CSV divides integers; floats of the exact Fractions give the same bytes
    g = generate(InstanceSpec.parse("gnp:n=300,p=0.02", 5))
    k = g.max_degree + 1
    for batch in (False, True):
        _, trace = equitable_k_coloring(g, k, config=DriverConfig(batch_mode=batch))
        assert trace.step_count > 10
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "disc", "l1", "cumulative"])
        for r in trace.records:
            total = sum(r.counts)
            disc = max(abs(Fraction(c, total) - Fraction(1, k)) for c in r.counts)
            writer.writerow([r.step, float(disc),
                             float(Fraction(r.moved, total)),
                             float(Fraction(r.moved_total, total))])
        assert trace.to_csv() == buf.getvalue()


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


def test_trace_counts_replay_through_record():
    # the driver ledgers each round on integer counts; replaying the trace's
    # counts through the distribution entry point gives the same ledger
    k33 = complete_bipartite(3, 3)
    k33_start = PartialColoring(6, 4, [1, 1, 1, 3, 0, 2])
    gnp = generate(InstanceSpec.parse("gnp:n=300,p=0.02", 5))
    for g, k, f0 in ((gnp, gnp.max_degree + 1, None), (k33, 4, k33_start)):
        for batch in (False, True):
            _, trace = equitable_k_coloring(g, k, f0=f0, config=DriverConfig(batch_mode=batch))
            assert trace.step_count > 0
            prev = ColorDistribution(trace.initial_counts)
            ledger = ConvergenceLedger.for_initial(dynamics.LEDGER_A, prev)
            for rec in trace.records:
                cur = ColorDistribution(rec.counts)
                ledger.record(prev, cur, rec.witness)
                prev = cur
            assert ledger.to_json_dict() == trace.ledger.to_json_dict()


def test_pattern1_index_tracks_arbitrary_moves():
    # random proper recolorings of 1-3 vertices, admissible or not: after
    # each one the index's first move is the scan's, and a take from its
    # heap is the smallest `cap` vertices the scan finds, which then move
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
            expected = apply_move(f, move)
            index.apply(move.domain, [c for _, c in move.assignments])
            assert f == expected and f.counts() == expected.counts()
            assert is_proper(g, f)
            counts = f.counts()
            first = index.first_move(counts)
            scan = next(_pattern1_moves(g, f), None)
            assert first == (scan and scan.assignments[0])
            # every column first_move may read is complete: the valid
            # entries of heap (alpha, beta) are the beta-vertices with no
            # alpha-neighbor, also for a class that received vertices
            # while it was small
            for beta in range(k):
                if counts[beta] < min(counts) + 2:
                    continue
                for alpha in set(range(k)) - {beta}:
                    free = {
                        y for y in range(g.n) if f.get(y) == beta
                        and all(f.get(w) != alpha for w in g.adjacency(y))
                    }
                    heap = index.heaps[alpha][beta]
                    assert {y for y in heap if y in free} == free
            if first is None or rng.random() < 0.5:
                continue
            x, alpha = first
            beta = f.get(x)
            movable = [
                y for y in range(g.n) if f.get(y) == beta
                and all(f.get(w) != alpha for w in g.adjacency(y))
            ]
            cap = rng.choice((1, 2, 5, len(movable) + 1))
            taken = index.take(alpha, beta, cap)
            assert taken == movable[:cap] and taken[0] == x
            index.apply(taken, [alpha] * len(taken))
            assert is_proper(g, f)


def test_driver_debug_asserts_index_against_rescan(monkeypatch):
    # the K_{3,3} start has no pattern-1 move, so it opens with a fallback
    # move from patterns 2-3
    cubic = generate(InstanceSpec.parse("regular:n=1002,d=3", 0))
    k33 = complete_bipartite(3, 3)
    k33_start = PartialColoring(6, 4, [1, 1, 1, 3, 0, 2])
    assert _Pattern1Index(k33, k33_start).first_move(k33_start.counts()) is None
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
        for h, k, f0 in ((cubic, 4, None), (k33, 4, k33_start)):
            for batch in (False, True):
                f, trace = equitable_k_coloring(
                    h, k, f0=f0, config=DriverConfig(batch_mode=batch)
                )
                runs.append((
                    f.as_list(), trace.to_jsonl(), trace.to_csv(),
                    trace.ledger.to_json_dict(),
                ))
        assert trace.records[0].kind == "move"
    # the debug checks observe the run without changing it
    assert runs[:len(runs) // 2] == runs[len(runs) // 2:]
    f, cubic_trace = equitable_k_coloring(cubic, 4, config=DriverConfig(batch_mode=True))
    replay_trace(cubic, 4, f, cubic_trace, batch=True)
    # the start, built inside the index, is compared with greedy_extend_full,
    # here made to disagree; with debug off the run is unchanged
    def reversed_fit(g, k, f0):
        return PartialColoring(g.n, k, [k - 1 - c for c in greedy_extend_full(g, k, f0).colors])

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "greedy_extend_full", reversed_fit)
        patch.setenv("EQUICOLOR_DEBUG_ASSERT", "")
        h, trace = equitable_k_coloring(cubic, 4, config=DriverConfig(batch_mode=True))
        assert (h, trace.to_jsonl()) == (f, cubic_trace.to_jsonl())
        patch.setenv("EQUICOLOR_DEBUG_ASSERT", "1")
        with pytest.raises(AssertionError, match="first fit"):
            equitable_k_coloring(cubic, 4, config=DriverConfig(batch_mode=True))
    # and each round is compared with the rescan
    take = _Pattern1Index.take
    monkeypatch.setattr(_Pattern1Index, "take", lambda self, *args: take(self, *args)[1:])
    with pytest.raises(AssertionError, match="rescan"):
        equitable_k_coloring(cubic, 4, config=DriverConfig(batch_mode=True))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=40), st.sampled_from([0.0, 0.1, 0.2, 0.4]),
    st.integers(min_value=1, max_value=3), st.sampled_from(["none", "partial", "total"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pattern1_index_matches_heappush_build(n, p, extra, seeded, seed):
    # from no seed or a random proper partial or total one, the index
    # completes its coloring as greedy_extend_full does; once every column
    # is filled, its heaps equal the heappush build on the finished start,
    # list for list, as do the neighbor-color counts
    rng = random.Random(seed)
    g = random_graph(n, p, rng.getrandbits(32))
    k = g.max_degree + extra
    f0 = None if seeded == "none" else PartialColoring(n, k)
    for v in rng.sample(range(n), n) if f0 is not None else ():
        if seeded == "total" or rng.random() < 0.5:
            f0.assign(v, rng.choice(
                [c for c in range(k) if all(f0.get(w) != c for w in g.adjacency(v))]
            ))
    start = PartialColoring(n, k) if f0 is None else f0.copy()
    index = _Pattern1Index(g, start)
    first_fit = greedy_extend_full(g, k, f0)
    assert start == first_fit and start.counts() == first_fit.counts()
    for beta in range(k):
        index._fill(beta)
    assert (index.nbr, index.heaps) == reference_pattern1_index(g, start)
    assert index.pending == [[] for _ in range(k)]


def test_batch_driver_cubic_scales():
    # each batch rescanned every vertex for its candidates, so batch mode
    # was quadratic here; a round that took at most 64 candidates made
    # 1,195 rounds, one of half the class gap makes 35
    g = generate(InstanceSpec.parse("regular:n=100002,d=3", 0))
    t0 = time.perf_counter()
    f, trace = equitable_k_coloring(g, 4, config=DriverConfig(batch_mode=True))
    elapsed = time.perf_counter() - t0
    assert f.gap() <= 1
    assert elapsed < 10.0, f"batch mode on cubic n={g.n} took {elapsed:.1f} s"
    rounds = sum(1 for r in trace.records if r.kind == "batch")
    assert rounds < 120, f"batch mode on cubic n={g.n} made {rounds} rounds"


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


def no_pattern1_coloring(rng):
    """Seeded graph with n = 8..40 and max degree D <= 5, and a proper
    (D+1)-coloring with gap >= 2 and no pattern-1 move: every vertex of a
    class of size >= min + 2 gets a neighbor in every minimum class, then
    random edges between classes are added within the degree cap."""
    while True:
        k = rng.randint(3, 6)
        n = rng.randint(8, 40)
        weights = [rng.random() + 0.3 for _ in range(k)]
        colors = rng.choices(range(k), weights, k=n)
        counts = [colors.count(c) for c in range(k)]
        a = min(counts)
        if a == 0 or max(counts) - a < 2:
            continue
        adj = [set() for _ in range(n)]

        def link(u, v):
            if (colors[u] == colors[v] or v in adj[u]
                    or max(len(adj[u]), len(adj[v])) >= k - 1):
                return False
            adj[u].add(v)
            adj[v].add(u)
            return True

        big = [x for x in range(n) if counts[colors[x]] >= a + 2]
        mins = [c for c in range(k) if counts[c] == a]
        blocked = True
        for x in rng.sample(big, len(big)):
            for alpha in mins:
                if any(colors[w] == alpha for w in adj[x]):
                    continue
                free = [y for y in range(n) if colors[y] == alpha and len(adj[y]) < k - 1]
                if not free or not link(x, rng.choice(free)):
                    blocked = False
        if not blocked:
            continue
        for _ in range(rng.randint(0, 2 * n)):
            link(*rng.sample(range(n), 2))
        g = build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        if g.max_degree == k - 1:
            return g, PartialColoring(n, k, colors)


def test_size_three_premise_without_pattern1_moves():
    # the search finds a move exactly when the oracle does, and a driver
    # round then falls back to it in both modes; none exists only on
    # disconnected graphs, where moves cannot join components
    from equicolor.graphs import components
    from equicolor.oracle import OracleBudget
    budget = OracleBudget(max_vertices=40)
    rng = random.Random(20261019)
    found = 0
    for _ in range(400):
        g, f = no_pattern1_coloring(rng)
        assert is_proper(g, f) and f.gap() >= 2
        assert next(_pattern1_moves(g, f), None) is None
        move = find_improving_move(g, f)
        assert (move is not None) == improving_move_exists(g, f, 3, budget)
        for batch in (False, True):
            config = DriverConfig(batch_mode=batch)
            if move is None:
                assert len(components(g)) > 1
                with pytest.raises(Stalled):
                    equitable_k_coloring(g, f.k, f0=f, config=config)
                continue
            assert admissible_witness(g, f, move) is not None
            out, trace = equitable_k_coloring(g, f.k, f0=f, config=config)
            first = trace.records[0]
            assert first.kind == "move" and first.vertices == move.domain
            assert out.gap() <= 1 and is_proper(g, out)
        found += move is not None
    assert found >= 390


# SHA-256 of every equitable-serial and equitable-batch benchmark output at
# seed 1 (coloring, trace JSONL and CSV, ledger JSON), as
# scripts/output_hashes.py computes it
DRIVER_OUTPUTS_SHA256 = {
    "equitable-serial": "bdd0ca33cebdad7eea3207085ac5e13cb7df53fa63ecf9977c73c1b545da1474",
    "equitable-batch": "bb4d3a50e061bd7e56f0da37b42f34b841a8eef97e8f796c5b538b2c7a7866a1",
}


def test_driver_outputs_are_pinned(monkeypatch):
    # a change to the driver, the index or the ledger must leave every
    # round, witness and ledger step of the benchmark corpora byte-identical
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.syspath_prepend(str(root / "scripts"))
    import output_hashes
    import workloads

    for name, expected in DRIVER_OUTPUTS_SHA256.items():
        assert output_hashes.corpus_digest(workloads, name, 1) == expected, name
