import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equicolor import (
    PartialColoring,
    build_graph,
    cost,
    equitable_delta_coloring,
    extract_dense_set,
    greedy_extend_full,
    is_proper,
    quick_balance,
)
from equicolor import pipeline
from equicolor.errors import ImproperAux, ImproperInput, OutOfRange, PreconditionViolated
from equicolor.generators import InstanceSpec, generate

from conftest import (
    complete,
    cycle,
    random_graph,
    reference_direct_pass,
    reference_quick_balance,
    star,
)


def test_cost_examples():
    c6 = cycle(6)
    assert cost(c6, range(6)).value == 1
    assert cost(c6, []).value == 0
    e = build_graph(2, [(0, 1)])
    assert cost(e, [0]).value == Fraction(1, 2)
    rep = cost(c6, [0, 1, 2])
    assert rep.boundary_edges == 2 and rep.internal_edges == 2
    assert rep.value == Fraction(4, 6)
    # ids outside [0, n): 7 used to raise IndexError, -1 to yield a report
    for bad in (7, -1):
        with pytest.raises(OutOfRange):
            cost(c6, [0, bad])


def test_cost_additivity_random():
    rng = random.Random(4)
    for seed in range(30):
        g = random_graph(9, 0.3, seed)
        members = [v for v in range(9) if rng.random() < 0.7]
        part = {v for v in members if rng.random() < 0.5}
        rest = set(members) - part
        if not part or not rest:
            continue
        cross = sum(1 for v in rest for w in g.adjacency(v) if w in part)
        assert cost(g, members).value == (
            cost(g, part).value + cost(g, rest).value - Fraction(cross, g.n)
        )


def test_extract_dense_set_star():
    g = star(6)
    assert extract_dense_set(g, 2) == (0,)


def test_extract_dense_set_zero_threshold():
    g = cycle(5)
    assert extract_dense_set(g, 0) == tuple(range(5))


def test_extract_dense_set_bounds():
    for seed in range(20):
        g = random_graph(12, 0.25, seed)
        t = Fraction(3, 2)
        x = frozenset(extract_dense_set(g, t))
        for y in range(g.n):
            if y in x:
                continue
            assert g.degree(y) < 2 * t
            assert sum(1 for w in g.adjacency(y) if w not in x) < t
        # cost floor on every subset (exhaustive at this scale)
        members = sorted(x)
        for mask in range(1, 1 << min(len(members), 10)):
            sub = [members[i] for i in range(len(members)) if mask >> i & 1]
            assert cost(g, sub).value >= t * Fraction(len(sub), g.n)


def test_quick_balance_balanced_input_unchanged():
    g = cycle(6)
    f = greedy_extend_full(g, 3)
    f2 = PartialColoring(6, 3, [0, 1, 2, 0, 1, 2])
    out = quick_balance(g, f2, [], f)
    assert out.as_list() == f2.as_list()


def test_quick_balance_isolated():
    g = build_graph(4, [])
    f = PartialColoring(4, 2, [1, 1, 1, 1])
    aux = PartialColoring(4, 1, [0, 0, 0, 0])
    out = quick_balance(g, f, [], aux)
    assert out.counts() == (2, 2)


def test_quick_balance_respects_frozen():
    g = build_graph(5, [])
    f = PartialColoring(5, 2, [1, 1, 1, 1, 1])
    aux = PartialColoring(5, 1, [0] * 5)
    out = quick_balance(g, f, [0, 1], aux)
    assert out.get(0) == 1 and out.get(1) == 1
    assert out.gap() <= 1


def test_quick_balance_blocked_vertices_stay():
    # class-1 vertices all adjacent to class 0: nothing can move
    g = star(4)
    f = PartialColoring(5, 2, [0, 1, 1, 1, 1])
    aux = greedy_extend_full(g, 5)
    out = quick_balance(g, f, [], aux)
    assert out.as_list() == f.as_list()


def test_quick_balance_validation():
    g = cycle(4)
    aux = greedy_extend_full(g, 3)
    with pytest.raises(ImproperInput):
        quick_balance(g, PartialColoring(4, 2, [0, 0, 1, 1]), [], aux)
    with pytest.raises(ImproperAux):
        quick_balance(g, PartialColoring(4, 2, [0, 1, 0, 1]), [],
                      PartialColoring(4, 1, [0, 0, 0, 0]))


def test_quick_balance_rejects_malformed_input():
    # each of these was accepted or raised a bare IndexError: a 5-vertex f
    # came back "balanced" with a phantom vertex counted in its classes
    g = build_graph(4, [(0, 1)])
    f = PartialColoring(4, 2, [0, 1, 0, 0])
    aux = PartialColoring(4, 2, [0, 1, 0, 0])
    with pytest.raises(ImproperInput):
        quick_balance(g, PartialColoring(5, 2, [0, 1, 0, 0, 0]), [], aux)
    with pytest.raises(ImproperInput):
        quick_balance(g, PartialColoring(3, 2, [0, 1, 0]), [], aux)
    with pytest.raises(ImproperAux):
        quick_balance(g, f, [], PartialColoring(3, 2, [0, 1, 0]))
    with pytest.raises(ImproperAux):
        quick_balance(g, f, [], PartialColoring(5, 2, [0, 1, 0, 0, 0]))
    for frozen in ([9], [-1], [0, 4]):
        with pytest.raises(OutOfRange):
            quick_balance(g, f, frozen, aux)


def test_quick_balance_fixpoint_guarantee():
    for seed in range(15):
        g = random_graph(30, 0.08, seed)
        k = max(g.max_degree + 1, 3)
        f = greedy_extend_full(g, k)
        aux = greedy_extend_full(g, k + 1)
        out = quick_balance(g, f, [], aux)
        counts = out.counts()
        for alpha in range(k):
            for beta in range(k):
                if counts[beta] - counts[alpha] >= 2:
                    for y in range(g.n):
                        if out.get(y) == beta:
                            assert any(out.get(w) == alpha for w in g.adjacency(y))


def _first_fit(g, k, rng):
    """First-fit coloring over one shuffled color order, so the first colors
    of the order take most vertices; None when some vertex sees all k."""
    order = list(range(k))
    rng.shuffle(order)
    f = PartialColoring(g.n, k)
    for v in range(g.n):
        taken = {f.get(w) for w in g.adjacency(v)}
        c = next((c for c in order if c not in taken), None)
        if c is None:
            return None
        f.assign(v, c)
    return f


@st.composite
def balance_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    p = draw(st.sampled_from([0.0, 0.03, 0.08, 0.15, 0.3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = random_graph(n, p, rng.getrandbits(32))
    k = max(2, g.max_degree + draw(st.integers(min_value=0, max_value=2)))
    f = _first_fit(g, k, rng)
    assume(f is not None)
    share = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    frozen = [v for v in range(n) if rng.random() < share]
    order = list(range(n))
    rng.shuffle(order)
    aux = greedy_extend_full(g, k + draw(st.integers(min_value=1, max_value=3)), order=order)
    return g, f, frozen, aux


@st.composite
def hub_balance_inputs(draw):
    """A hub graph with a first-fit coloring over a shuffled color order
    (a few colors take most vertices), a frozen share and a shuffled aux
    coloring."""
    delta = draw(st.integers(min_value=3, max_value=15))
    n = draw(st.integers(min_value=10 * delta, max_value=400))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    g = generate(InstanceSpec.parse(f"hub:n={n},delta={delta}", rng.getrandbits(32)))
    f = _first_fit(g, delta + draw(st.integers(min_value=0, max_value=2)), rng)
    assume(f is not None)
    share = draw(st.sampled_from([0.0, 0.25, 0.6, 0.9]))
    frozen = [v for v in range(n) if rng.random() < share]
    order = list(range(n))
    rng.shuffle(order)
    aux = greedy_extend_full(g, delta + 1, order=order)
    return g, f, frozen, aux


@settings(max_examples=300, deadline=None)
@given(st.one_of(balance_inputs(), hub_balance_inputs()))
def test_quick_balance_matches_scan_reference(inputs):
    # hub graphs with large frozen shares leave gaps the pairwise passes
    # then work on
    g, f, frozen, aux = inputs
    assert quick_balance(g, f, frozen, aux) == reference_quick_balance(g, f, frozen, aux)


def test_quick_balance_residual_loop_two_hop():
    # class 0 is one above its target, but its only unfrozen vertex 3 sees
    # the short class 2, so the direct pass moves nothing and leaves gap 3;
    # a pairwise pass then routes 3 into class 1 and vertex 4 on into class 2
    g = build_graph(7, [(3, 6)])
    f = PartialColoring(7, 3, [0, 0, 0, 0, 1, 1, 2])
    aux = PartialColoring(7, 2, [0, 0, 0, 0, 0, 0, 1])
    frozen = [0, 1, 2]
    out = quick_balance(g, f, frozen, aux)
    assert reference_direct_pass(g, f, frozen, aux) == f
    assert out.as_list() == [0, 0, 0, 1, 2, 1, 2]
    assert out == reference_quick_balance(g, f, frozen, aux)


def test_pipeline_balance_moves_each_vertex_once(monkeypatch):
    # the direct pass balances this hub on its own, assigning each
    # recolored vertex once, never through an intermediate class, and the
    # pairwise passes move nothing
    seen = []
    balance = pipeline._quick_balance
    recolor = pipeline._recolor

    def counted(g, f, frozen, aux):
        calls = []

        def counting_recolor(f, v, c):
            calls.append(v)
            recolor(f, v, c)

        monkeypatch.setattr(pipeline, "_recolor", counting_recolor)
        out = balance(g, f, frozen, aux)
        monkeypatch.setattr(pipeline, "_recolor", recolor)
        seen.append((len(calls), sum(1 for v in range(g.n) if f.get(v) != out.get(v))))
        assert out == reference_direct_pass(g, f, frozen, aux)
        return out

    # the pipeline balances through the unchecked core
    monkeypatch.setattr(pipeline, "_quick_balance", counted)
    g = generate(InstanceSpec.parse("hub:n=2000,delta=15", 1))
    _, report = equitable_delta_coloring(g, 15)
    [(assigns, recolored)] = seen
    assert assigns == recolored > 1000
    # the earlier balancer's verdicts and gap; VIII reads this gap-1
    # coloring (n mod 15 = 5) as failing under the claim report's rounding
    assert report.final_gap == 1
    assert [(c.name, c.verdict) for c in report.claims] == [
        ("I", "holds"), ("II", "holds-with-slack"), ("III", "holds"),
        ("IV", "holds"), ("V", "holds"), ("VI", "holds"), ("VII", "holds"),
        ("VIII", "fails"),
    ]


def test_balance_debug_flag_keeps_outputs(monkeypatch):
    # the debug flag adds the pipeline's cost and dense-set checks and the
    # driver's rescans; the balancer's and the pipeline's outputs must not
    # change
    rng = random.Random(11)
    cases = []
    for seed in range(12):
        g = random_graph(40, 0.06, seed)
        k = max(2, g.max_degree + seed % 3)
        f = _first_fit(g, k, rng)
        if f is None:
            continue
        frozen = [v for v in range(g.n) if rng.random() < 0.2]
        order = list(range(g.n))
        rng.shuffle(order)
        cases.append((g, f, frozen, greedy_extend_full(g, k + 1 + seed % 3, order=order)))
    assert len(cases) >= 8
    hub = generate(InstanceSpec.parse("hub:n=200,delta=10", 3))
    runs = []
    for debug in ("", "1"):
        monkeypatch.setenv("EQUICOLOR_DEBUG_ASSERT", debug)
        outs = [quick_balance(*case).as_list() for case in cases]
        f, report = equitable_delta_coloring(hub, 10)
        runs.append((outs, f.as_list(), report.to_json()))
    assert runs[0] == runs[1]


def test_quick_balance_residual_scales():
    # the direct pass leaves gap 8,598 here and seven pairwise passes bring
    # it to 212; the index loop these passes replaced took about 0.7 s
    # (Python 3.11, 2 vCPUs)
    g = generate(InstanceSpec.parse("regular:n=100000,d=3", 1))
    f = greedy_extend_full(g, 4)
    rng = random.Random(1)
    frozen = [v for v in range(g.n) if rng.random() < 0.6]
    aux = greedy_extend_full(g, 5)
    direct = reference_direct_pass(g, f, frozen, aux)
    t0 = time.perf_counter()
    out = quick_balance(g, f, frozen, aux)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"balancer on {g.n} vertices took {elapsed:.1f} s"
    assert direct.gap() == 8598 and out.gap() == 212
    assert out != direct


def test_pipeline_hub_scales():
    # the balancer rescanned whole classes for every (aux class, target,
    # source) triple of every pass: about 50 s here
    g = generate(InstanceSpec.parse("hub:n=100000,delta=10", 1))
    t0 = time.perf_counter()
    f, _ = equitable_delta_coloring(g, 10)
    elapsed = time.perf_counter() - t0
    assert f.is_total() and is_proper(g, f)
    assert elapsed < 20.0, f"pipeline on hub n={g.n} took {elapsed:.1f} s"


def test_pipeline_preconditions():
    with pytest.raises(PreconditionViolated):
        equitable_delta_coloring(cycle(5), 2)          # max degree below 3
    with pytest.raises(PreconditionViolated):
        equitable_delta_coloring(complete(5), 4)       # clique on delta+1
    dense = complete(6)
    with pytest.raises(PreconditionViolated):
        equitable_delta_coloring(dense, 5)             # average degree too big
    with pytest.raises(PreconditionViolated):
        equitable_delta_coloring(cycle(6), 3)          # delta != max degree


def test_pipeline_hub_instance():
    g = generate(InstanceSpec.parse("hub:n=120,delta=10,target_avg=2", seed=4))
    f, report = equitable_delta_coloring(g, 10)
    assert f.is_total() and is_proper(g, f)
    assert f.k == 10
    assert report.final_gap <= 2
    assert report.all_verdicts_ok()
    assert report.claim("I").lhs <= Fraction(1, 4)
    data = report.to_json()
    assert '"claims"' in data


def test_pipeline_empty_dense_set():
    # a long path has max degree 2... use a sparse tree with max degree 15:
    # spokes of a single hub, no vertex reaches degree 2t = 6 except the hub
    g = generate(InstanceSpec.parse("hub:n=75,delta=15,target_avg=3", seed=9))
    f, report = equitable_delta_coloring(g, 15)
    assert f.is_total() and is_proper(g, f)
    assert report.final_gap <= 2


def test_pipeline_deterministic():
    g = generate(InstanceSpec.parse("hub:n=100,delta=10,target_avg=2", seed=11))
    f1, r1 = equitable_delta_coloring(g, 10)
    f2, r2 = equitable_delta_coloring(g, 10)
    assert f1.as_list() == f2.as_list()
    assert r1.to_json() == r2.to_json()
