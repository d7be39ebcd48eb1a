"""Exact-arithmetic color distributions, the more-equitable order, and the
convergence ledger.

A distribution is stored as integer counts over a common positive total, so
every comparison below is exact.  The ledger certifies, step by step, that a
sequence of distributions is monotone in the more-equitable order, that each
step's l1 movement is at most A times the gain of every strictly growing
color, and that the cumulative l1 movement stays within the guaranteed
budget (1+A)^(k+1)/A times the initial discrepancy.  The ledger is exact on
integer numerators over a common denominator, and compares its cumulative
movement with the budget by cross-multiplication; a Fraction is built only
when a value is read.  A budget violation is reported as a driver bug,
never silently absorbed.

`_record_step` holds the ledger's one set of step checks, on two integer
count sequences over one total; the driver passes every round of a
coloring to it over the total n, its k counts summing to n by
construction.  `ConvergenceLedger.record_counts` checks those lengths and
sums and calls it, and `record` scales two distributions to a common
total and calls `record_counts`.  A step costs one pass over the two
sequences, `_step_scan`, which also defines `witness_colors`: it gives the
l1 movement, the least gain and the witness test.  A and the budget are
compared through integer numerators and denominators fixed when the ledger
is built, and `lcm` runs only when a step's total differs from the running
denominator, so a driver run over one total n calls it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm
from typing import Iterable, Optional, Sequence

from .colorings import palette_size
from .errors import (
    BoundViolation,
    HypothesisViolation,
    LedgerViolation,
    MonotonicityViolation,
    NotComparable,
    OutOfRange,
    PaletteMismatch,
    debug_checks_enabled,
)


class ColorDistribution:
    """Exact rational distribution over colors 0..k-1: counts over a total."""

    __slots__ = ("counts", "total")

    def __init__(self, counts: Iterable[int], total: Optional[int] = None):
        self.counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in self.counts):
            raise OutOfRange("negative count in distribution")
        s = sum(self.counts)
        self.total = s if total is None else int(total)
        if self.total < 1:
            raise OutOfRange(f"total must be >= 1, got {self.total}")
        if s != self.total:
            raise OutOfRange(f"counts sum to {s}, expected total {self.total}")

    @classmethod
    def from_coloring(cls, f) -> "ColorDistribution":
        """Pushforward of a total coloring under normalized counting."""
        if not f.is_total():
            raise OutOfRange("pushforward distribution requires a total coloring")
        return cls(f.counts(), f.domain_size)

    @property
    def k(self) -> int:
        return len(self.counts)

    def value(self, color: int) -> Fraction:
        return Fraction(self.counts[color], self.total)

    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.total) for c in self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColorDistribution):
            return NotImplemented
        return self.k == other.k and all(
            self.counts[a] * other.total == other.counts[a] * self.total
            for a in range(self.k)
        )

    def __hash__(self) -> int:
        return hash(self.values())

    def __repr__(self) -> str:
        return f"ColorDistribution({self.counts}/{self.total})"


def discrepancy(d: ColorDistribution) -> Fraction:
    """Maximum deviation of a color's mass from the uniform share 1/k."""
    share = Fraction(1, d.k)
    return max(abs(Fraction(c, d.total) - share) for c in d.counts)


def _check_same_palette(d1: ColorDistribution, d2: ColorDistribution) -> None:
    if d1.k != d2.k:
        raise PaletteMismatch(f"palette sizes differ: {d1.k} vs {d2.k}")


def l1_distance(d1: ColorDistribution, d2: ColorDistribution) -> Fraction:
    _check_same_palette(d1, d2)
    # one Fraction over the common denominator d1.total * d2.total
    return Fraction(
        sum(abs(a * d2.total - b * d1.total) for a, b in zip(d1.counts, d2.counts)),
        d1.total * d2.total,
    )


def rearranged(d: ColorDistribution) -> tuple[Fraction, ...]:
    """The distribution's values sorted nondecreasingly."""
    # sorting the counts sorts the values: they share one positive total
    return tuple(Fraction(c, d.total) for c in sorted(d.counts))


def d_plus(omega: ColorDistribution, eta: ColorDistribution) -> frozenset[int]:
    _check_same_palette(omega, eta)
    return frozenset(
        a for a in range(omega.k)
        if eta.counts[a] * omega.total > omega.counts[a] * eta.total
    )


def d_minus(omega: ColorDistribution, eta: ColorDistribution) -> frozenset[int]:
    _check_same_palette(omega, eta)
    return frozenset(
        a for a in range(omega.k)
        if eta.counts[a] * omega.total < omega.counts[a] * eta.total
    )


def _step_scan(before: Sequence[int], after: Sequence[int]) -> tuple:
    """One pass over two count sequences on one positive scale: the l1
    movement, the least gain, and the least count afterwards of a gaining
    and of a losing color (inf over no color).  A witness is a gaining color
    ending at most at the last value, so one exists iff low <= cap."""
    moved = 0
    min_gain = low = cap = inf
    for b, a in zip(before, after):
        if a > b:
            moved += a - b
            if a - b < min_gain:
                min_gain = a - b
            if a < low:
                low = a
        elif a < b:
            moved += b - a
            if a < cap:
                cap = a
    return moved, min_gain, low, cap


def witness_colors(before: Sequence[int], after: Sequence[int]) -> list[int]:
    """Colors that gain mass and end with a count no larger than every color
    that loses mass, in increasing order.

    `before[c]` and `after[c]` are color c's counts on one positive scale.
    A step is strictly more equitable exactly when this list is nonempty,
    and weakly when it is nonempty or no color's mass changes.
    """
    cap = _step_scan(before, after)[3]
    return [c for c, (b, a) in enumerate(zip(before, after)) if b < a <= cap]


def _strict_witnesses(omega: ColorDistribution, eta: ColorDistribution) -> list[int]:
    """Colors a gaining mass with eta(a) <= eta(b) for every losing color b."""
    # both over the total omega.total * eta.total
    return witness_colors(
        [a * eta.total for a in omega.counts],
        [b * omega.total for b in eta.counts],
    )


def is_more_equitable(
    omega: ColorDistribution, eta: ColorDistribution, strict: bool = True
) -> bool:
    """Strict mode: eta is strictly more equitable than omega.  Lax mode also
    accepts equality."""
    _check_same_palette(omega, eta)
    if omega == eta:
        return not strict
    return bool(_strict_witnesses(omega, eta))


def initial_sums_witness(
    omega: ColorDistribution, eta: ColorDistribution
) -> tuple[int, int]:
    """For strictly comparable distributions, return (l, a) such that the
    first l sorted values of eta dominate those of omega and the prefix-sum
    gap is at least eta(a) - omega(a) for the witness color a.

    l is 1-indexed.  Raises NotComparable unless eta is strictly more
    equitable than omega.
    """
    _check_same_palette(omega, eta)
    if omega == eta:
        raise NotComparable("distributions are equal")
    witnesses = _strict_witnesses(omega, eta)
    if not witnesses:
        raise NotComparable("no witness color: eta is not more equitable than omega")
    alpha = min(witnesses, key=lambda a: (eta.counts[a], a))
    eta_sorted = rearranged(eta)
    target = eta.value(alpha)
    ell = next(i for i, v in enumerate(eta_sorted, start=1) if v == target)

    omega_sorted = rearranged(omega)
    assert all(omega_sorted[i] <= eta_sorted[i] for i in range(ell)), \
        "sorted prefix domination must hold for the constructed index"
    prefix_gap = sum(eta_sorted[:ell], Fraction(0)) - sum(omega_sorted[:ell], Fraction(0))
    assert prefix_gap >= eta.value(alpha) - omega.value(alpha), \
        "prefix-sum gap must cover the witness gain"

    if debug_checks_enabled():
        _debug_scan_witness(omega, eta, ell, alpha)
    return ell, alpha


def _debug_scan_witness(omega, eta, ell, alpha) -> None:
    # exhaustive recheck: the returned pair must be among all valid (l, a)
    omega_sorted, eta_sorted = rearranged(omega), rearranged(eta)
    valid = []
    for l in range(1, omega.k + 1):
        if any(omega_sorted[i] > eta_sorted[i] for i in range(l)):
            continue
        gap = sum(eta_sorted[:l], Fraction(0)) - sum(omega_sorted[:l], Fraction(0))
        for a in d_plus(omega, eta):
            if gap >= eta.value(a) - omega.value(a):
                valid.append((l, a))
    assert (ell, alpha) in valid, f"constructed witness {(ell, alpha)} not valid"


@dataclass(slots=True)
class LedgerStep:
    """One recorded step: its l1 movement and the gain of its witness (or of
    the least-gaining color), as integer numerators over `denom`."""

    moved: int
    witness: Optional[int]
    gained: int
    denom: int = 1

    @property
    def l1(self) -> Fraction:
        return Fraction(self.moved, self.denom)

    @property
    def gain(self) -> Fraction:
        return Fraction(self.gained, self.denom)

    def to_dict(self) -> dict:
        return {
            "l1": str(self.l1),
            "witness": self.witness,
            "gain": str(self.gain),
        }


@dataclass
class ConvergenceLedger:
    """Running certificate for a monotone improvement sequence.  The
    cumulative movement is kept as integers `_num / _den`; `cumulative`
    reads and assigns it as a Fraction."""

    a_param: Fraction
    k: int
    disc0: Fraction
    steps: list[LedgerStep] = field(default_factory=list)
    _num: int = field(default=0, init=False, repr=False)
    _den: int = field(default=1, init=False, repr=False)

    def __post_init__(self):
        self.a_param = Fraction(self.a_param)
        if self.a_param < 1:
            raise OutOfRange(f"A must be >= 1, got {self.a_param}")
        self.k = palette_size(self.k)
        self.disc0 = Fraction(self.disc0)
        if self.disc0 < 0:
            raise OutOfRange(f"initial discrepancy must be nonnegative, got {self.disc0}")
        self._bound = (1 + self.a_param) ** (self.k + 1) / self.a_param * self.disc0
        # the integer parts that every step compares against
        self._a_num, self._a_den = self.a_param.numerator, self.a_param.denominator
        self._bound_num, self._bound_den = self._bound.numerator, self._bound.denominator

    @classmethod
    def for_initial(cls, a_param, d0: ColorDistribution) -> "ConvergenceLedger":
        return cls(Fraction(a_param), d0.k, discrepancy(d0))

    @property
    def cumulative(self) -> Fraction:
        return Fraction(self._num, self._den)

    @cumulative.setter
    def cumulative(self, value) -> None:
        value = Fraction(value)
        self._num, self._den = value.numerator, value.denominator

    def bound(self) -> Fraction:
        return self._bound

    def record(
        self,
        before: ColorDistribution,
        after: ColorDistribution,
        witness: Optional[int] = None,
    ) -> "ConvergenceLedger":
        """`record_counts` on the two distributions' counts scaled to the
        common total lcm(before.total, after.total); a violation carries the
        distributions as its step."""
        denom = lcm(before.total, after.total)
        b_scale, a_scale = denom // before.total, denom // after.total
        try:
            return self.record_counts(
                [c * b_scale for c in before.counts],
                [c * a_scale for c in after.counts],
                denom, witness,
            )
        except LedgerViolation as exc:
            exc.step = (before, after)
            raise

    def record_counts(
        self,
        before: Sequence[int],
        after: Sequence[int],
        denom: int,
        witness: Optional[int] = None,
    ) -> "ConvergenceLedger":
        """Assert the step hypotheses on integer class counts over the one
        total `denom` and accumulate the l1 movement.

        Raises MonotonicityViolation if the step is not weakly more
        equitable, HypothesisViolation if some growing color's gain is too
        small relative to the l1 step (or the passed witness is not a
        growing color), and BoundViolation if the cumulative total exceeds
        the budget.
        """
        k = self.k
        if len(before) != k or len(after) != k:
            raise PaletteMismatch("ledger palette size mismatch")
        if sum(before) != denom or sum(after) != denom:
            raise OutOfRange(f"step counts must both sum to the total {denom}")
        _record_step(self, before, after, denom, witness)
        return self

    def observed_ratio(self) -> Optional[Fraction]:
        """Cumulative movement over initial discrepancy, for probing how
        loose the exponential budget is in practice."""
        if self.disc0 == 0:
            return None
        return self.cumulative / self.disc0

    def to_json_dict(self) -> dict:
        return {
            "A": str(self.a_param),
            "k": self.k,
            "disc0": str(self.disc0),
            "cumulative": str(self.cumulative),
            "bound": str(self.bound()),
            "observed_ratio": (
                None if self.observed_ratio() is None else str(self.observed_ratio())
            ),
            "steps": [s.to_dict() for s in self.steps],
        }


def _record_step(
    ledger: ConvergenceLedger,
    before: Sequence[int],
    after: Sequence[int],
    denom: int,
    witness: Optional[int],
) -> int:
    """`ConvergenceLedger.record_counts` without its length and sum checks,
    for callers whose two count sequences have the ledger's k entries and
    both sum to `denom`; returns the step's l1 movement over `denom`."""
    moved, min_gain, low, cap = _step_scan(before, after)
    if moved == 0:
        ledger.steps.append(LedgerStep(0, witness, 0))
        return 0
    step_index = len(ledger.steps)
    step = (before, after)
    # monotone: unchanged, or with a witness color (is_more_equitable)
    if low > cap:
        raise MonotonicityViolation(f"step {step_index} is not monotone", step=step)
    if witness is None:
        gained = min_gain
    elif 0 <= witness < ledger.k and after[witness] > before[witness]:
        gained = after[witness] - before[witness]
    else:
        raise HypothesisViolation(
            f"step {step_index}: witness {witness} does not gain mass", step=step
        )
    if moved * ledger._a_den > ledger._a_num * min_gain:
        raise HypothesisViolation(
            f"step {step_index}: l1 step {Fraction(moved, denom)} exceeds "
            f"A * minimal gain {ledger.a_param * Fraction(min_gain, denom)}",
            step=step,
        )
    if denom == ledger._den:
        ledger._num += moved
    else:
        den = lcm(ledger._den, denom)
        ledger._num = ledger._num * (den // ledger._den) + moved * (den // denom)
        ledger._den = den
    if ledger._num * ledger._bound_den > ledger._bound_num * ledger._den:
        raise BoundViolation(
            f"step {step_index}: cumulative {ledger.cumulative} exceeds "
            f"budget {ledger._bound}; the driver violated its contract",
            step=step,
        )
    ledger.steps.append(LedgerStep(moved, witness, gained, denom))
    return moved
