"""Acceptance battery.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
enforces its criterion at the stated tolerance.  Exact-arithmetic bounds are
checked with zero tolerance; corpus-level gap targets are the stated
empirical thresholds.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from equicolor import (
    ColorDistribution,
    DominationInstance,
    DriverConfig,
    ListAssignment,
    PartialColoring,
    build_graph,
    build_one_ended_subforest,
    components,
    discrepancy,
    dominates,
    dominating_delta_coloring,
    dominating_full_coloring,
    equitable_delta_coloring,
    equitable_k_coloring,
    extract_dense_set,
    forest_recolor,
    greedy_extend_full,
    is_proper,
    l1_distance,
    rearranged,
)
from equicolor.colorings import is_proper_list_coloring
from equicolor.generators import InstanceSpec, generate
from equicolor.graphs import is_gallai_tree
from equicolor.oracle import (
    OracleBudget,
    canonical_graphs,
    colorings_up_to_color_permutation,
    domination_exists,
    enumerate_proper_colorings,
    equitable_exists,
    improving_move_exists,
)
from equicolor.pipeline import cost

from conftest import (
    complete,
    complete_bipartite,
    cycle,
    random_degree_lists,
    random_graph,
    random_partial_list_coloring,
)

BUDGET = OracleBudget(max_vertices=10, max_palette=10, max_list_size=12)
ARCHIVE = Path(__file__).parent / "artifacts"


def _families(index):
    n = (50, 200, 500)[index % 3]
    torus_dims = {50: (5, 10), 200: (10, 20), 500: (20, 25)}[n]
    return n, torus_dims


def _corpus_instance(family, index):
    n, torus_dims = _families(index)
    seed = 10_000 * (family_id(family)) + index
    if family.startswith("regular"):
        d = int(family[-1])
        return generate(InstanceSpec("regular", {"n": n, "d": d}, seed))
    if family == "gnp":
        return generate(InstanceSpec("gnp", {"n": n, "p": 3.0 / n}, seed))
    if family == "torus":
        rows, cols = torus_dims
        return generate(InstanceSpec("torus", {"rows": rows, "cols": cols}, seed))
    raise AssertionError(family)


def family_id(family):
    return ("regular3", "regular4", "regular5", "gnp", "torus").index(family)


@pytest.fixture(scope="module")
def driver_corpus():
    """The criterion-1 corpus: 500 (family, index, graph) instances."""
    return [
        (family, index, _corpus_instance(family, index))
        for family in ("regular3", "regular4", "regular5", "gnp", "torus")
        for index in range(100)
    ]


def _run_driver_corpus(corpus, batch):
    """Drive every corpus graph from its greedy (max degree + 1)-coloring."""
    results = []
    config = DriverConfig(batch_mode=batch)
    for family, index, g in corpus:
        k = g.max_degree + 1
        f0 = greedy_extend_full(g, k)
        t0 = time.perf_counter()
        f, trace = equitable_k_coloring(g, k, f0=f0, config=config)
        elapsed = time.perf_counter() - t0
        d0 = ColorDistribution.from_coloring(f0)
        changed = sum(1 for v in range(g.n) if f.get(v) != f0.get(v))
        results.append({
            "family": family, "index": index, "n": g.n, "k": k,
            "gap": f.gap(), "proper": is_proper(g, f),
            "elapsed": elapsed, "restarts": trace.restarts,
            "cumulative": trace.ledger.cumulative,
            "bound": trace.ledger.bound(),
            "dist_frac": Fraction(changed, g.n),
            "disc0": discrepancy(d0),
        })
    return results


@pytest.fixture(scope="module")
def driver_corpus_results(driver_corpus):
    """Run the criterion-1 corpus once; criteria 1-3 all read it."""
    return _run_driver_corpus(driver_corpus, batch=False)


def test_criterion_1_equitable_driver(driver_corpus_results):
    bad = [
        r for r in driver_corpus_results
        if not r["proper"] or r["gap"] > 1 or r["restarts"] > 0
        or r["elapsed"] >= 5.0
    ]
    slowest = max(r["elapsed"] for r in driver_corpus_results)
    print(f"\nACCEPTANCE 1 (equitable driver, 500 instances, "
          f"slowest {slowest:.3f}s): {'FAIL ' + str(bad[:3]) if bad else 'PASS'}")
    assert not bad


def test_criterion_1_batch_driver_contract(driver_corpus):
    # batch rounds take other trajectories than serial steps, so batch mode
    # meets criteria 1-3 on the same corpus instead of matching outputs; a
    # Stalled run fails the test by raising
    results = _run_driver_corpus(driver_corpus, batch=True)
    bad = [
        r for r in results
        if not r["proper"] or r["gap"] > 1 or r["restarts"] > 0
        or r["cumulative"] > r["bound"]
        or r["dist_frac"] > Fraction(7 ** (r["k"] + 1), 2) * r["disc0"]
    ]
    print(f"\nACCEPTANCE 1 (batch driver, 500 instances, proper, gap <= 1, "
          f"ledger and stability bounds): {'FAIL ' + str(bad[:3]) if bad else 'PASS'}")
    assert not bad


def test_criterion_2_ledger_bound(driver_corpus_results):
    bad = [
        r for r in driver_corpus_results if r["cumulative"] > r["bound"]
    ]
    print(f"\nACCEPTANCE 2 (ledger bound A=6, exact): "
          f"{'FAIL' if bad else 'PASS'}")
    assert not bad


def test_criterion_3_stability_bound(driver_corpus_results):
    bad = []
    for r in driver_corpus_results:
        budget = Fraction(7 ** (r["k"] + 1), 2) * r["disc0"]
        if r["dist_frac"] > budget:
            bad.append(r)
    print(f"\nACCEPTANCE 3 (stability bound, exact): "
          f"{'FAIL' if bad else 'PASS'}")
    assert not bad


def test_criterion_4_rearrangement_contraction():
    rng = random.Random(424242)

    def rand_dist(k):
        total = rng.randint(k, 40)
        cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
        counts, prev = [], 0
        for c in cuts:
            counts.append(c - prev)
            prev = c
        counts.append(total - prev)
        return ColorDistribution(counts)

    t0 = time.perf_counter()
    for _ in range(10_000):
        k = rng.randint(1, 6)
        a, b = rand_dist(k), rand_dist(k)
        sorted_l1 = sum(
            (abs(x - y) for x, y in zip(rearranged(a), rearranged(b))),
            Fraction(0),
        )
        assert sorted_l1 <= l1_distance(a, b)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 4 (rearrangement contraction, 10^4 pairs, "
          f"{elapsed:.2f}s): {'PASS' if elapsed < 1.0 else 'FAIL'}")
    assert elapsed < 1.0


def test_criterion_5_finite_move_probe():
    counterexamples = []
    checked = 0
    for n in range(1, 8):
        for g in canonical_graphs(n):
            k = g.max_degree + 1
            for colors in colorings_up_to_color_permutation(g, k):
                f = PartialColoring(n, k, list(colors))
                if f.gap() < 2:
                    continue
                checked += 1
                if not improving_move_exists(g, f, 3, BUDGET):
                    counterexamples.append({
                        "n": n, "edges": g.edges(), "coloring": list(colors),
                    })
    # seeded probe beyond the exhaustive range
    rng = random.Random(5)
    probed = 0
    for n in (8, 9):
        for _ in range(150):
            g = random_graph(n, rng.uniform(0.1, 0.6), rng.randint(0, 10**6))
            k = g.max_degree + 1
            f = greedy_extend_full(g, k, order=sorted(
                range(n), key=lambda v: rng.random()))
            if f.gap() < 2:
                continue
            probed += 1
            if not improving_move_exists(g, f, 3, BUDGET):
                counterexamples.append({
                    "n": n, "edges": g.edges(), "coloring": f.as_list(),
                })
    if counterexamples:
        ARCHIVE.mkdir(exist_ok=True)
        (ARCHIVE / "move_probe_counterexamples.json").write_text(
            json.dumps(counterexamples, indent=2))
    print(f"\nACCEPTANCE 5 (finite move probe: {checked} exhaustive "
          f"colorings n<=7 up to iso/color-perm + {probed} sampled n in 8..9): "
          f"{'FAIL, archived' if counterexamples else 'PASS'}")
    assert not counterexamples


def _seeded_domination_instance(g, sd):
    rng = random.Random(716_000_003 * g.n + sd)
    lists = random_degree_lists(g, rng)
    k = max(lists.max_color() + 1, 1)
    seed = random_partial_list_coloring(g, lists, k, rng)
    return lists, seed


def test_criterion_6_list_domination_exhaustive():
    failures = 0
    instances = 0
    oracle_confirmed = 0
    for n in range(2, 9):
        for g in canonical_graphs(n):
            if len(components(g)) != 1:
                continue
            if is_gallai_tree(g, range(g.n)):
                continue
            for sd in range(50):
                lists, seed = _seeded_domination_instance(g, sd)
                f = dominating_full_coloring(DominationInstance(g, lists, seed))
                ok = (
                    f.is_total()
                    and is_proper_list_coloring(g, lists, f)
                    and dominates(f, seed, lists.union_colors())
                )
                if not ok:
                    failures += 1
                instances += 1
                if n <= 6 or sd == 0:
                    assert domination_exists(g, lists, seed, BUDGET)
                    oracle_confirmed += 1
    print(f"\nACCEPTANCE 6 (list domination, {instances} instances over all "
          f"connected non-Gallai graphs n<=8 up to iso, "
          f"{oracle_confirmed} oracle-confirmed): "
          f"{'FAIL' if failures else 'PASS'}")
    assert failures == 0


def _witness_injection_ok(g, f, seed, psi, k):
    for alpha in range(k):
        targets = [y for y in range(g.n) if seed.get(y) == alpha]
        sources = [v for v in range(g.n) if f.get(v) == alpha]
        image = {psi[v] for v in sources}
        if not set(targets) <= image:
            return False
        used = set()
        for y in targets:
            pick = next(
                (v for v in sources if psi[v] == y and v not in used), None)
            if pick is None:
                return False
            used.add(pick)
    return True


def test_criterion_7_forest_recoloring():
    failures = 0
    ran = 0
    # all canonical graphs with n <= 7: deterministic anchors and seeds
    for n in range(1, 8):
        for g in canonical_graphs(n):
            k = max(g.max_degree, 1)
            anchors = frozenset(min(c) for c in components(g))
            forest = build_one_ended_subforest(g, anchors)
            rng = random.Random(n * 31 + g.edge_count)
            seed = random_partial_list_coloring(
                g, ListAssignment.uniform(g.n, k), k, rng, density=0.4)
            f, psi = forest_recolor(g, forest, seed, k)
            ok = (
                all(f.is_assigned(v) for v in range(g.n) if v not in anchors)
                and is_proper(g, f)
                and dominates(f, seed, range(k))
                and _witness_injection_ok(g, f, seed, psi, k)
            )
            failures += 0 if ok else 1
            ran += 1
    # 200 seeded random triples
    rng = random.Random(77)
    for _ in range(200):
        g = random_graph(rng.randint(4, 12), rng.uniform(0.1, 0.45),
                         rng.randint(0, 10**6))
        k = max(g.max_degree, 1) + rng.randint(0, 1)
        anchors = set()
        for comp in components(g):
            size = rng.randint(1, max(1, len(comp) // 2))
            anchors.update(rng.sample(comp, size))
        forest = build_one_ended_subforest(g, anchors)
        seed = random_partial_list_coloring(
            g, ListAssignment.uniform(g.n, k), k, rng, density=0.5)
        f, psi = forest_recolor(g, forest, seed, k)
        ok = (
            all(f.is_assigned(v) for v in range(g.n) if v not in anchors)
            and is_proper(g, f)
            and dominates(f, seed, range(k))
            and _witness_injection_ok(g, f, seed, psi, k)
        )
        failures += 0 if ok else 1
        ran += 1
    print(f"\nACCEPTANCE 7 (forest recoloring, {ran} instances): "
          f"{'FAIL' if failures else 'PASS'}")
    assert failures == 0


def _valid_delta_instance(g):
    k = g.max_degree
    if k < 3:
        return None
    for comp in components(g):
        if all(g.degree(v) == k for v in comp) and is_gallai_tree(g, comp):
            return None
    return k


def test_criterion_8_dominating_delta_coloring():
    failures = 0
    ran = 0
    oracle_confirmed = 0
    for n in range(1, 8):
        for g in canonical_graphs(n):
            k = _valid_delta_instance(g)
            if k is None:
                continue
            for sd in range(6):
                rng = random.Random(1000 * n + sd)
                seed = (PartialColoring(g.n, k) if sd == 0 else
                        random_partial_list_coloring(
                            g, ListAssignment.uniform(g.n, k), k, rng))
                f = dominating_delta_coloring(g, seed, k)
                ok = (f.is_total() and is_proper(g, f)
                      and dominates(f, seed, range(k)))
                failures += 0 if ok else 1
                ran += 1
                if n <= 6:
                    assert domination_exists(
                        g, ListAssignment.uniform(g.n, k), seed, BUDGET)
                    oracle_confirmed += 1
    rng = random.Random(88)
    sampled = 0
    while sampled < 200:
        n = rng.choice((8, 9))
        g = random_graph(n, rng.uniform(0.15, 0.5), rng.randint(0, 10**6))
        k = _valid_delta_instance(g)
        if k is None:
            continue
        seed = random_partial_list_coloring(
            g, ListAssignment.uniform(g.n, k), k, rng)
        f = dominating_delta_coloring(g, seed, k)
        ok = (f.is_total() and is_proper(g, f)
              and dominates(f, seed, range(k)))
        failures += 0 if ok else 1
        sampled += 1
        ran += 1
    print(f"\nACCEPTANCE 8 (dominating max-degree coloring, {ran} instances, "
          f"{oracle_confirmed} oracle-confirmed): "
          f"{'FAIL' if failures else 'PASS'}")
    assert failures == 0


def _sparse_corpus():
    specs = []
    for i in range(25):
        for delta, n in ((10, 100), (10, 400), (15, 100), (15, 400)):
            specs.append((delta, n, 31_000 + 7 * i + delta + n))
    return specs


def _x_set_checks(g, t, x, rng):
    xs = frozenset(x)
    for y in range(g.n):
        if y in xs:
            continue
        if not g.degree(y) < 2 * t:
            return False
        if not sum(1 for w in g.adjacency(y) if w not in xs) < t:
            return False
    members = sorted(xs)
    if len(members) <= 9:
        subsets = [
            [members[i] for i in range(len(members)) if mask >> i & 1]
            for mask in range(1, 1 << len(members))
        ]
    else:
        subsets = [members]
        for _ in range(100):
            subsets.append([v for v in members if rng.random() < 0.5])
    for sub in subsets:
        if sub and cost(g, sub).value < t * Fraction(len(sub), g.n):
            return False
    return True


def test_criterion_9_dense_set():
    failures = 0
    checked = 0
    rng = random.Random(990)
    for delta, n, seed in _sparse_corpus()[:40]:
        g = generate(InstanceSpec(
            "hub", {"n": n, "delta": delta, "target_avg": Fraction(delta, 5)},
            seed))
        t = Fraction(2 * delta, 5)
        x = extract_dense_set(g, t)
        if not _x_set_checks(g, t, x, rng):
            failures += 1
        if not 4 * len(x) <= g.n:
            failures += 1
        checked += 1
    # full subset quantification on tiny graphs, arbitrary thresholds
    for i in range(60):
        g = random_graph(9, rng.uniform(0.1, 0.5), rng.randint(0, 10**6))
        t = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        x = extract_dense_set(g, t)
        if not _x_set_checks(g, t, x, rng):
            failures += 1
        checked += 1
    print(f"\nACCEPTANCE 9 (dense-set extraction, {checked} instances): "
          f"{'FAIL' if failures else 'PASS'}")
    assert failures == 0


def test_criterion_10_delta_pipeline():
    gap_over_2 = 0
    failures = []
    results = []
    for delta, n, seed in _sparse_corpus():
        g = generate(InstanceSpec(
            "hub", {"n": n, "delta": delta, "target_avg": Fraction(delta, 5)},
            seed))
        f, report = equitable_delta_coloring(g, delta)
        ok_proper = is_proper(g, f) and f.is_total() and f.k == delta
        ok_claims = report.all_verdicts_ok()
        if report.final_gap > 2:
            gap_over_2 += 1
        if not ok_proper or not ok_claims or report.final_gap > delta + 1:
            failures.append((delta, n, seed, report.final_gap,
                             [(c.name, c.verdict) for c in report.claims]))
        results.append(report.final_gap)
    share_within_2 = (len(results) - gap_over_2) / len(results)
    ok = not failures and share_within_2 >= 0.95
    print(f"\nACCEPTANCE 10 (sparse max-degree pipeline, {len(results)} "
          f"instances, gap<=2 on {share_within_2:.0%}): "
          f"{'PASS' if ok else 'FAIL ' + str(failures[:2])}")
    assert ok


def test_criterion_11_oracle_self_checks():
    k3 = complete(3)
    six = sum(1 for _ in enumerate_proper_colorings(k3, palette=3))
    k33_equitable = equitable_exists(complete_bipartite(3, 3), 3)
    c5ch = sum(1 for _ in enumerate_proper_colorings(cycle(5), palette=2))
    ok = six == 6 and not k33_equitable and c5ch == 0
    print(f"\nACCEPTANCE 11 (oracle self-checks): {'PASS' if ok else 'FAIL'}")
    assert ok
