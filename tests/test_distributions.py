import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equicolor import (
    ColorDistribution,
    ConvergenceLedger,
    discrepancy,
    initial_sums_witness,
    is_more_equitable,
    l1_distance,
    rearranged,
)
from equicolor.distributions import d_plus
from equicolor.errors import (
    BoundViolation,
    HypothesisViolation,
    LedgerViolation,
    MonotonicityViolation,
    NotComparable,
    OutOfRange,
    PaletteMismatch,
)


def test_distribution_validation():
    d = ColorDistribution((2, 2, 2))
    assert d.total == 6 and d.k == 3
    with pytest.raises(OutOfRange):
        ColorDistribution((1, 2), total=4)
    with pytest.raises(OutOfRange):
        ColorDistribution((0, 0), total=0)


def test_distribution_equality_is_by_value():
    half = ColorDistribution((1, 1))
    assert half == ColorDistribution((2, 2)) and hash(half) == hash(ColorDistribution((2, 2)))
    assert half != ColorDistribution((1, 2)) and half != (1, 1)
    assert repr(ColorDistribution((1, 2))) == "ColorDistribution((1, 2)/3)"


def test_discrepancy_examples():
    assert discrepancy(ColorDistribution((2, 2, 2))) == 0
    assert discrepancy(ColorDistribution((3, 2, 1))) == Fraction(1, 6)
    assert discrepancy(ColorDistribution((6, 0, 0))) == Fraction(2, 3)


def test_l1_examples():
    d1 = ColorDistribution((3, 2, 1))
    assert l1_distance(d1, d1) == 0
    assert l1_distance(ColorDistribution((1, 0)), ColorDistribution((0, 1))) == 2
    assert l1_distance(d1, ColorDistribution((2, 2, 2))) == Fraction(1, 3)
    with pytest.raises(PaletteMismatch):
        l1_distance(d1, ColorDistribution((1, 1)))


def test_l1_cross_totals():
    assert l1_distance(ColorDistribution((1, 1)), ColorDistribution((2, 2))) == 0
    assert l1_distance(ColorDistribution((1, 0)), ColorDistribution((1, 3))) == Fraction(3, 2)


def test_rearranged_examples():
    assert rearranged(ColorDistribution((3, 1, 2))) == (
        Fraction(1, 6), Fraction(2, 6), Fraction(3, 6))
    uniform = ColorDistribution((2, 2, 2))
    assert rearranged(uniform) == tuple(uniform.values())
    assert rearranged(ColorDistribution((0, 0, 6))) == (0, 0, 1)


def test_more_equitable_examples():
    uniform = ColorDistribution((2, 2, 2))
    skew = ColorDistribution((3, 2, 1))
    assert is_more_equitable(skew, uniform)
    assert is_more_equitable(skew, skew, strict=False)
    assert not is_more_equitable(skew, skew, strict=True)
    w = ColorDistribution((5, 3, 2))
    e = ColorDistribution((4, 4, 2))
    assert is_more_equitable(w, e)
    assert not is_more_equitable(ColorDistribution((2, 1)), ColorDistribution((1, 2)))


def test_more_equitable_is_antisymmetric_and_irreflexive():
    rng = random.Random(11)
    for _ in range(500):
        k = rng.randint(2, 5)
        total = rng.randint(k, 14)
        a = _random_counts(rng, k, total)
        b = _random_counts(rng, k, total)
        da, db = ColorDistribution(a), ColorDistribution(b)
        assert not is_more_equitable(da, da, strict=True)
        if da != db and is_more_equitable(da, db, strict=True):
            assert not is_more_equitable(db, da, strict=True)


def _random_counts(rng, k, total):
    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
    out = []
    prev = 0
    for c in cuts:
        out.append(c - prev)
        prev = c
    out.append(total - prev)
    return out


def test_rearrangement_contraction_random():
    rng = random.Random(7)
    for _ in range(2000):
        k = rng.randint(1, 6)
        t1 = rng.randint(k, 30)
        t2 = rng.randint(k, 30)
        a = ColorDistribution(_random_counts(rng, k, t1))
        b = ColorDistribution(_random_counts(rng, k, t2))
        sorted_l1 = sum(
            (abs(x - y) for x, y in zip(rearranged(a), rearranged(b))),
            Fraction(0),
        )
        assert sorted_l1 <= l1_distance(a, b)


def test_initial_sums_witness_examples(monkeypatch):
    w = ColorDistribution((5, 3, 2))
    e = ColorDistribution((4, 4, 2))
    assert initial_sums_witness(w, e) == (2, 1)
    with pytest.raises(NotComparable):
        initial_sums_witness(ColorDistribution((2, 1)), ColorDistribution((1, 2)))
    with pytest.raises(NotComparable, match="equal"):
        initial_sums_witness(w, ColorDistribution((5, 3, 2)))
    skew = ColorDistribution((3, 2, 1))
    uniform = ColorDistribution((2, 2, 2))
    ell, alpha = initial_sums_witness(skew, uniform)
    assert ell == 1 and alpha == 2
    # the exhaustive recheck of the returned pair runs only in debug mode
    monkeypatch.setenv("EQUICOLOR_DEBUG_ASSERT", "1")
    assert initial_sums_witness(w, e) == (2, 1)
    assert initial_sums_witness(skew, uniform) == (1, 2)


def test_initial_sums_witness_postconditions_random():
    rng = random.Random(3)
    done = 0
    while done < 300:
        k = rng.randint(2, 5)
        total = rng.randint(k, 16)
        a = ColorDistribution(_random_counts(rng, k, total))
        b = ColorDistribution(_random_counts(rng, k, total))
        if a == b or not is_more_equitable(a, b):
            continue
        ell, alpha = initial_sums_witness(a, b)
        ra, rb = rearranged(a), rearranged(b)
        assert all(ra[i] <= rb[i] for i in range(ell))
        gap = sum(rb[:ell], Fraction(0)) - sum(ra[:ell], Fraction(0))
        assert gap >= b.value(alpha) - a.value(alpha)
        assert alpha in d_plus(a, b)
        done += 1


def test_ledger_example_bound():
    led = ConvergenceLedger(Fraction(6), 2, Fraction(1, 2))
    assert led.bound() == Fraction(343, 12)
    # a negative initial discrepancy made the budget negative
    with pytest.raises(OutOfRange):
        ConvergenceLedger(6, 3, -1)


def test_ledger_accepts_equal_steps():
    d = ColorDistribution((2, 0))
    led = ConvergenceLedger.for_initial(6, d)
    led.record(d, d)
    assert led.cumulative == 0 and len(led.steps) == 1


def test_ledger_rejects_hypothesis_violation():
    # a step whose l1 movement exceeds A times the witness gain
    led = ConvergenceLedger(Fraction(1), 2, Fraction(1, 2))
    before = ColorDistribution((8, 0))
    after = ColorDistribution((4, 4))
    with pytest.raises(HypothesisViolation):
        led.record(before, after, witness=1)


def test_ledger_rejects_bad_witness():
    led = ConvergenceLedger(Fraction(6), 2, Fraction(1, 2))
    with pytest.raises(HypothesisViolation):
        led.record(ColorDistribution((2, 0)), ColorDistribution((1, 1)), witness=0)


def test_ledger_rejects_non_monotone():
    led = ConvergenceLedger(Fraction(6), 3, Fraction(1))
    before = ColorDistribution((2, 2, 2))
    after = ColorDistribution((3, 2, 1))
    with pytest.raises(MonotonicityViolation):
        led.record(before, after, witness=0)


def test_ledger_bound_violation_is_detectable():
    # force a tiny budget by lying about disc0: the ledger must catch it
    led = ConvergenceLedger(Fraction(6), 2, Fraction(0))
    assert led.bound() == 0
    with pytest.raises(BoundViolation):
        led.record(ColorDistribution((2, 0)), ColorDistribution((1, 1)), witness=1)


def _admissible_transfer(rng, counts):
    """One random class-mass transfer that keeps the sequence monotone and
    within the per-step budget (single or double target, one source)."""
    k = len(counts)
    order = sorted(range(k), key=lambda c: counts[c])
    alpha = order[0]
    beta = max(range(k), key=lambda c: counts[c])
    if counts[beta] - counts[alpha] < 2:
        return None
    d = rng.randint(1, (counts[beta] - counts[alpha]) // 2)
    new = list(counts)
    new[alpha] += d
    new[beta] -= d
    return new, alpha


def test_ledger_end_to_end_random_monotone_sequences():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(2, 5)
        total = rng.randint(2 * k, 60)
        counts = _random_counts(rng, k, total)
        d0 = ColorDistribution(counts)
        led = ConvergenceLedger.for_initial(6, d0)
        cur = counts
        for _ in range(40):
            step = _admissible_transfer(rng, cur)
            if step is None:
                break
            new, alpha = step
            led.record(ColorDistribution(cur), ColorDistribution(new), witness=alpha)
            cur = new
        assert led.cumulative <= led.bound()


def test_ledger_json_round_trip():
    d0 = ColorDistribution((4, 0))
    led = ConvergenceLedger.for_initial(6, d0)
    led.record(d0, ColorDistribution((3, 1)), witness=1)
    data = led.to_json_dict()
    assert data["A"] == "6" and data["k"] == 2
    assert len(data["steps"]) == 1
    assert data["steps"][0]["witness"] == 1


def test_ledger_unequal_totals_exact():
    led = ConvergenceLedger(Fraction(10), 3, Fraction(1, 2))
    # (5,2,1)/8 -> (4,3,3)/10: changes -9/40, +2/40, +7/40
    led.record(ColorDistribution((5, 2, 1)), ColorDistribution((4, 3, 3)), witness=2)
    # (2,1,1)/4 -> (5,5,6)/16: changes -3/16, +1/16, +2/16; no witness, so
    # the gain is the smallest one
    led.record(ColorDistribution((2, 1, 1)), ColorDistribution((5, 5, 6)))
    first, second = led.steps
    assert (first.l1, first.gain) == (Fraction(9, 20), Fraction(7, 40))
    assert (second.l1, second.gain) == (Fraction(3, 8), Fraction(1, 16))
    assert led.cumulative == Fraction(9, 20) + Fraction(3, 8) == Fraction(33, 40)
    assert led.bound() == Fraction(11 ** 4, 20)
    # the same first step breaks the A-times-minimal-gain hypothesis at A = 6
    # (9/20 > 6 * 1/20), and an overshoot across totals is not monotone
    with pytest.raises(HypothesisViolation):
        ConvergenceLedger(Fraction(6), 3, Fraction(1, 2)).record(
            ColorDistribution((5, 2, 1)), ColorDistribution((4, 3, 3)))
    with pytest.raises(MonotonicityViolation):
        ConvergenceLedger(Fraction(6), 2, Fraction(1, 2)).record(
            ColorDistribution((1, 1)), ColorDistribution((3, 1)))


# ledger runs (A, k, disc0, [(before, after, witness, scales)]) that every
# check must see; the violation each one raises is in its comment
LEDGER_CASES = {
    # passes
    "zero step": (Fraction(6), 3, Fraction(1, 2), [((3, 2, 1), (3, 2, 1), None, (1, 1))]),
    # MonotonicityViolation
    "not monotone": (Fraction(6), 3, Fraction(1), [((2, 2, 2), (3, 2, 1), 0, (1, 1))]),
    # HypothesisViolation
    "witness does not gain": (Fraction(6), 2, Fraction(1, 2), [((2, 0), (1, 1), 0, (1, 1))]),
    # HypothesisViolation
    "over the A bound": (Fraction(1), 2, Fraction(1, 2), [((8, 0), (4, 4), 1, (1, 1))]),
    # BoundViolation
    "over the budget": (Fraction(6), 2, Fraction(0), [((2, 0), (1, 1), 1, (1, 1))]),
    # passes
    "mixed totals": (Fraction(6), 3, Fraction(1, 2),
                     [((5, 2, 1), (4, 3, 1), 1, (1, 3)), ((3, 1, 0), (2, 1, 1), None, (2, 1))]),
    # passes; chained over one total, as the driver's rounds are
    "one total": (Fraction(6), 3, Fraction(1, 2),
                  [((5, 2, 1), (4, 3, 1), None, (1, 1)), ((4, 3, 1), (4, 2, 2), 2, (1, 1))]),
}

# a starting cumulative over the prime 139, which divides no step total: a
# total is a count sum (k <= 5 counts of at most 9) times a scale of at most
# 6, both below 139.  So the ledger's running denominator stays a multiple
# of 139 and no step's total equals it
LEDGER_START = Fraction(1, 139)


@st.composite
def ledger_runs(draw):
    """A ledger and up to four steps, each a pair of count vectors of one
    total, a witness, and the scales by which `record` multiplies the two
    distributions' totals.  In a chained run each step starts where the
    last one ended, over one total, as the driver's rounds do."""
    k = draw(st.integers(2, 5))
    a_param = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(6)]))
    disc0 = draw(st.sampled_from([Fraction(0), Fraction(1, 20), Fraction(1, 2)]))
    chained = draw(st.booleans())
    steps = []
    after = None
    for _ in range(draw(st.integers(1, 4))):
        if after is None or not chained:
            before = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
        else:
            before = after
        after = list(before)
        # unit transfers, so zero, monotone and non-monotone steps all occur
        for src, dst in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                                st.integers(0, k - 1)), max_size=6)):
            if after[src]:
                after[src] -= 1
                after[dst] += 1
        witness = draw(st.none() | st.integers(0, k - 1))
        scales = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
        steps.append((tuple(before), tuple(after), witness, scales))
    return a_param, k, disc0, steps


def _ledger_outcome(record_step, run, start):
    a_param, k, disc0, steps = run
    led = ConvergenceLedger(a_param, k, disc0)
    if start is not None:
        led.cumulative = start
    error = None
    try:
        for before, after, witness, scales in steps:
            record_step(led, before, after, witness, scales)
    except LedgerViolation as exc:
        error = type(exc)
    return [s.to_dict() for s in led.steps], led.cumulative, error


def _record_counts(led, before, after, witness, scales):
    led.record_counts(before, after, sum(before), witness)


def _record_scaled(led, before, after, witness, scales):
    # the same values over the totals sum * scale, so lcm differs from both
    s1, s2 = scales
    led.record(ColorDistribution([c * s1 for c in before]),
               ColorDistribution([c * s2 for c in after]), witness)


def _reference_outcome(run, start):
    """The ledger's rules on Fractions, through the public order."""
    a_param, k, disc0, steps = run
    bound = (1 + a_param) ** (k + 1) / a_param * disc0
    dicts, cumulative = [], Fraction(0) if start is None else start
    for before, after, witness, _ in steps:
        d1, d2 = ColorDistribution(before), ColorDistribution(after)
        if not is_more_equitable(d1, d2, strict=False):
            return dicts, cumulative, MonotonicityViolation
        if d1 == d2:
            dicts.append({"l1": "0", "witness": witness, "gain": "0"})
            continue
        gains = {a: d2.value(a) - d1.value(a) for a in d_plus(d1, d2)}
        if witness is not None and witness not in gains:
            return dicts, cumulative, HypothesisViolation
        l1 = l1_distance(d1, d2)
        if l1 > a_param * min(gains.values()):
            return dicts, cumulative, HypothesisViolation
        cumulative += l1
        if cumulative > bound:
            return dicts, cumulative, BoundViolation
        gain = min(gains.values()) if witness is None else gains[witness]
        dicts.append({"l1": str(l1), "witness": witness, "gain": str(gain)})
    return dicts, cumulative, None


@settings(max_examples=400, deadline=None)
@given(ledger_runs(), st.none() | st.integers(1, 60).map(lambda p: LEDGER_START * p))
@example(LEDGER_CASES["zero step"], None)
@example(LEDGER_CASES["not monotone"], None)
@example(LEDGER_CASES["witness does not gain"], None)
@example(LEDGER_CASES["over the A bound"], None)
@example(LEDGER_CASES["over the budget"], None)
@example(LEDGER_CASES["mixed totals"], None)
@example(LEDGER_CASES["one total"], None)
@example(LEDGER_CASES["one total"], LEDGER_START)
def test_record_counts_matches_record_and_reference(run, start):
    # the integer entry point, the distribution wrapper at mixed totals and
    # the Fraction rules agree on steps, cumulative and the violation raised.
    # From no start a chained run's later steps share the ledger's running
    # denominator and skip the lcm; from LEDGER_START no step does
    outcome = _ledger_outcome(_record_counts, run, start)
    assert _ledger_outcome(_record_scaled, run, start) == outcome
    assert _reference_outcome(run, start) == outcome


def test_record_counts_rejects_malformed_counts():
    led = ConvergenceLedger(Fraction(6), 2, Fraction(1, 2))
    with pytest.raises(PaletteMismatch):
        led.record_counts((2, 0, 0), (1, 1, 0), 2)
    with pytest.raises(PaletteMismatch):
        led.record(ColorDistribution((2, 0, 0)), ColorDistribution((1, 1, 0)))
    with pytest.raises(OutOfRange):
        led.record_counts((2, 0), (1, 1), 3)
    assert led.steps == []
