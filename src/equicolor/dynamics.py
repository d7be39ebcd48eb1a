"""Local recoloring dynamics that drive a proper coloring toward equitable
class sizes for palettes of size at least max degree + 1.

The engine repeatedly applies small recoloring moves (domains of up to three
vertices inside one component).  A move is *admissible* when it keeps the
coloring proper, some strictly growing class starts strictly below every
strictly shrinking class, and after the move that witness class is still no
larger than any shrinking class.  The last condition rules out overshoot
swaps that could cycle; it is exactly what keeps the class-size distribution
monotone in the more-equitable order, so the convergence ledger's budget
bounds the total movement and hence the number of steps.

The move search scans three structured move patterns (single vertex into a
minimum class, solo-neighbor pair, solo-neighbor triple with a spare color),
then, for what the patterns miss, every connected domain of at most three
vertices.  If no move of size at most three exists while the class gap is
at least 2, the driver raises Stalled at once rather than guessing.

The driver recolors one working coloring in place, in rounds.  An
incremental pattern-1 index keeps per-vertex neighbor-color counts and one
lazily pruned min-heap per (color alpha, class beta) of the beta-vertices
with no alpha-neighbor.  Pattern-1 moves are always admissible, so the
smallest valid heap top over minimum colors alpha and classes beta of size
at least min + 2 is exactly the first move the pattern scan would return.
A round takes that move (x, alpha) and pops up to `cap` vertices of beta =
f(x) from heap (alpha, beta), smallest first; serial mode caps a round at
one move, batch mode at (c[beta] - c[alpha]) // 2.  The popped vertices all
leave one class, so in a proper coloring they are pairwise non-adjacent: a
separated set of moves with signature ({alpha}, {beta}), the paper's
parallel round.  After t of them alpha is still no larger than beta exactly
while t <= (c[beta] - c[alpha]) / 2, so the whole batch cap is the longest
monotone prefix.  One integer check of the take (strictly ascending, every
vertex in beta with no alpha-neighbor, c[alpha] + t <= c[beta] - t) proves
the round proper, separated and monotone, and the index then applies all
of it at once.  Only when the index is empty does a round fall back to one
step of patterns 2 and 3 or the exhaustive pass, in both modes.

A round builds no distribution.  The driver reads the class counts once
per round as one tuple: the trace record keeps it, the ledger's integer
entry point `record_counts` checks it against the last round's in one
pass over the total n, and the next round's `first_move` finds the
minimum colors and the big classes in one pass over it.  The index reads
the coloring's public color list and recolors through the unchecked
`colorings._recolor`.  `apply` takes the vertices and their new colors
(a round passes its take and its trace record's colors), updates each
neighbor count once and pushes each heap entry as it becomes valid, so
it builds no list; the check of a one-vertex take has no order to scan.
`first_move` validates a heap top only while it could still beat the
best vertex found so far, and leaves any other heap, stale entries and
all, for a later round to prune.  A serial round thus costs O(Δ + k)
list operations and heap pushes, plus one peek per pair of minimum color
and class of size at least min + 2.

The start costs no pass of its own: the index builds it while it fills
the neighbor-color counts, by the first fit of `greedy_extend_full` (each
uncolored vertex, in vertex order, takes the least color that none of its
colored neighbors has).  With debug checks on, the driver compares the
two.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain, combinations, product
from typing import Iterable, Iterator, Optional, Sequence

from .colorings import (
    PartialColoring,
    _check_coloring,
    _recolor,
    greedy_extend_full,
    is_proper,
    palette_size,
)
from .distributions import (
    ColorDistribution,
    ConvergenceLedger,
    is_more_equitable,
    witness_colors,
)
from .errors import (
    ImproperInput,
    ImproperSeed,
    MonotonicityViolation,
    NotSeparated,
    OutOfRange,
    SignatureMismatch,
    Stalled,
    UnacceptableMove,
    debug_checks_enabled,
)
from .graphs import Graph, _check_vertices, component_of


@dataclass(frozen=True)
class RecoloringMove:
    """Finite partial recoloring with a nonempty connected domain."""

    assignments: tuple[tuple[int, int], ...]  # sorted (vertex, color) pairs

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.assignments)

    @property
    def size(self) -> int:
        return len(self.assignments)

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignments)


def make_move(g: Graph, assignments: dict[int, int]) -> RecoloringMove:
    """Validated move: nonempty domain inside a single connected component."""
    if not assignments:
        raise OutOfRange("recoloring move must have a nonempty domain")
    _check_vertices(g, assignments)
    for v, c in assignments.items():
        if c < 0:
            raise OutOfRange(f"negative color {c} for vertex {v}")
    dom = sorted(assignments)
    comp = component_of(g, dom[0])
    if any(v not in comp for v in dom):
        raise OutOfRange("move domain spans more than one connected component")
    return RecoloringMove(tuple((v, assignments[v]) for v in dom))


def _assign_move(f: PartialColoring, move: RecoloringMove) -> list[int]:
    """Apply the move to f in place; return the vertices whose color changed."""
    recolored, colors = [], f.colors
    for v, c in move.assignments:
        if colors[v] != c:
            f.assign(v, c)
            recolored.append(v)
    return recolored


def _check_moves(f: PartialColoring, moves: Iterable[RecoloringMove]) -> None:
    """OutOfRange unless every vertex and color of the moves fits f."""
    for v, c in chain.from_iterable(mv.assignments for mv in moves):
        if not (0 <= v < f.n and 0 <= c < f.k):
            raise OutOfRange(f"move of vertex {v} to color {c} does not fit the coloring")


def apply_move(f: PartialColoring, move: RecoloringMove) -> PartialColoring:
    _check_moves(f, [move])
    out = f.copy()
    _assign_move(out, move)
    return out


def move_deltas(f: PartialColoring, move: RecoloringMove) -> list[int]:
    out, colors = [0] * f.k, f.colors
    for v, c in move.assignments:
        out[c] += 1
        old = colors[v]
        if old is not None:
            out[old] -= 1
    return out


def _signature(
    f: PartialColoring, move: RecoloringMove
) -> tuple[frozenset[int], frozenset[int]]:
    """(growing, shrinking) color sets of the move with respect to f."""
    deltas = move_deltas(f, move)
    return (
        frozenset(a for a, d in enumerate(deltas) if d > 0),
        frozenset(a for a, d in enumerate(deltas) if d < 0),
    )


def is_acceptable(g: Graph, f: PartialColoring, move: RecoloringMove) -> bool:
    """True iff applying the move keeps the coloring proper.

    Only the domain and its neighborhood are inspected.
    """
    _check_coloring(g, f, error=ImproperInput, proper=False)
    _check_moves(f, [move])
    return _acceptable(g, f, move)


def _acceptable(g: Graph, f: PartialColoring, move: RecoloringMove) -> bool:
    new, colors = move.as_dict(), f.colors
    for v, c in move.assignments:
        for w in g.adj[v]:
            if new.get(w, colors[w]) == c:
                return False
    return True


def admissible_witness(g: Graph, f: PartialColoring, move: RecoloringMove) -> Optional[int]:
    """Witness for admissibility: improvement plus no-overshoot.

    The witness class starts strictly below every strictly shrinking class
    and, after the move, is still no larger than any of them: one of the
    `witness_colors` of the move that was also below them before it.
    """
    if not _acceptable(g, f, move):
        return None
    deltas = move_deltas(f, move)
    counts = f.counts()
    pre_cap = min((c for c, d in zip(counts, deltas) if d < 0), default=None)
    witnesses = [
        a for a in witness_colors(counts, [c + d for c, d in zip(counts, deltas)])
        if pre_cap is None or counts[a] < pre_cap
    ]
    if not witnesses:
        return None
    return min(witnesses, key=lambda a: (counts[a], a))


def _solo_targets(g: Graph, f: PartialColoring, y: int, min_colors: set[int]) -> list[int]:
    """Vertices x adjacent to y, in a non-minimum class, for which y is the
    unique neighbor colored f(y)."""
    colors, adj = f.colors, g.adj
    alpha = colors[y]
    out = []
    for x in adj[y]:
        if colors[x] in min_colors:
            continue
        if sum(1 for w in adj[x] if colors[w] == alpha) == 1:
            out.append(x)
    return out


def _pattern1_moves(g: Graph, f: PartialColoring) -> Iterator[RecoloringMove]:
    """Pattern 1 in scan order: each vertex x of a class of size at least
    min + 2 moves to the smallest minimum color absent from its
    neighborhood.  Every such move is admissible, with its target color as
    witness."""
    colors, counts = f.colors, f.counts()
    a = min(counts)
    min_colors = [c for c in range(f.k) if counts[c] == a]
    for x, nbrs in enumerate(g.adj):
        beta = colors[x]
        if beta is None or counts[beta] < a + 2:
            continue
        taken = {colors[w] for w in nbrs}
        for alpha in min_colors:
            if alpha != beta and alpha not in taken:
                yield RecoloringMove(((x, alpha),))
                break


def _pattern23_moves(g: Graph, f: PartialColoring) -> Iterator[RecoloringMove]:
    """Candidate moves of patterns 2 and 3, in scan order.

    Every yielded move still goes through the admissibility check; the
    generators only have to be cheap and deterministic.
    """
    colors, adj, counts = f.colors, g.adj, f.counts()
    a = min(counts)
    min_colors = {c for c in range(f.k) if counts[c] == a}
    for y, alpha in enumerate(colors):
        if alpha not in min_colors:
            continue
        solo = _solo_targets(g, f, y, min_colors)
        if not solo:
            continue
        y_taken = {colors[w] for w in adj[y]}
        # pattern 2: x takes y's color, y slides into another minimum class
        for x in solo:
            if counts[colors[x]] < a + 2:
                continue
            for alpha2 in sorted(min_colors):
                if alpha2 != alpha and alpha2 not in y_taken:
                    pairs = tuple(sorted(((x, alpha), (y, alpha2))))
                    yield RecoloringMove(pairs)
                    break
        # pattern 3: two non-adjacent solo targets take y's color while y
        # moves to a color absent from its neighborhood outside the pair
        for x, x2 in combinations(sorted(solo), 2):
            if g.has_edge(x, x2):
                continue
            nbr_colors_outside = {colors[w] for w in adj[y] if w not in (x, x2)}
            found_gamma = False
            for gamma in range(f.k):
                if gamma == alpha or gamma in nbr_colors_outside:
                    continue
                found_gamma = True
                triple = tuple(sorted(((x, alpha), (x2, alpha), (y, gamma))))
                yield RecoloringMove(triple)
                break
            # no spare color forces a neighbor in every other class beyond
            # the pair itself, so the degree must exceed the palette; this
            # can only happen when the palette is at most the max degree
            assert found_gamma or g.degree(y) >= f.k + 1


def _connected_domains(g: Graph, m: int) -> Iterable[tuple[int, ...]]:
    """All connected vertex sets of size <= m, each exactly once.  Vertices
    skipped at a branch stay excluded below it."""

    def grow(members: tuple[int, ...], ext: list[int], banned: frozenset[int], minv: int):
        yield tuple(sorted(members))
        if len(members) == m:
            return
        for i, u in enumerate(ext):
            new_banned = banned | frozenset(ext[:i])
            new_ext = ext[i + 1:] + [
                w for w in g.adj[u]
                if w > minv and w not in members and w not in ext
                and w not in new_banned
            ]
            yield from grow(members + (u,), new_ext, new_banned, minv)

    for v in range(g.n):
        yield from grow((v,), [u for u in g.adj[v] if u > v], frozenset(), v)


def find_improving_move(g: Graph, f: PartialColoring) -> Optional[RecoloringMove]:
    """First admissible move of size <= 3, scanning the patterns before the
    exhaustive pass over connected domains of size <= 3.  None when no such
    move exists."""
    _check_coloring(g, f, error=ImproperSeed, proper=False, total=True)
    for move in chain(_pattern1_moves(g, f), _pattern23_moves(g, f)):
        if admissible_witness(g, f, move) is not None:
            return move
    for dom in _connected_domains(g, 3):
        current = tuple(f.colors[v] for v in dom)
        for colors in product(range(f.k), repeat=len(dom)):
            if colors == current:
                continue
            move = RecoloringMove(tuple(zip(dom, colors)))
            if admissible_witness(g, f, move) is not None:
                return move
    return None


@dataclass(frozen=True)
class Batch:
    """Separated moves sharing one (growing, shrinking) signature, as
    select_separated_batch builds them, applied as a monotone prefix."""

    moves: tuple[RecoloringMove, ...]
    grows: frozenset[int]
    shrinks: frozenset[int]
    m: int

    @property
    def size(self) -> int:
        return len(self.moves)


def _separated(g: Graph, moves: Iterable[RecoloringMove]) -> Iterator[RecoloringMove]:
    """Greedy maximal sub-collection with pairwise disjoint, pairwise
    non-adjacent domains, yielded lazily in input order."""
    blocked: set[int] = set()
    for mv in moves:
        dom = mv.domain
        if any(v in blocked for v in dom):
            continue
        if any(w in blocked for v in dom for w in g.adj[v]):
            continue
        blocked.update(dom)
        yield mv


def select_separated_batch(
    g: Graph,
    f: PartialColoring,
    candidates: Sequence[RecoloringMove],
) -> Batch:
    """Greedy maximal sub-collection with pairwise disjoint, pairwise
    non-adjacent domains, preserving input order.

    All candidates must share one signature (same growing and shrinking
    color sets with respect to f); otherwise SignatureMismatch is raised.
    """
    _check_coloring(g, f, error=ImproperInput, proper=False)
    _check_moves(f, candidates)
    if not candidates:
        return Batch((), frozenset(), frozenset(), 0)
    sig = _signature(f, candidates[0])
    if not sig[0] or not sig[1]:
        raise SignatureMismatch(
            "batch signature needs nonempty growing and shrinking color sets"
        )
    if any(_signature(f, mv) != sig for mv in candidates):
        raise SignatureMismatch("candidates do not share one signature")
    m = max(mv.size for mv in candidates)
    return Batch(tuple(_separated(g, candidates)), sig[0], sig[1], m)


def _check_batch(g: Graph, f: PartialColoring, batch: Batch) -> None:
    seen: set[int] = set()
    for mv in batch.moves:
        if not _acceptable(g, f, mv):
            raise UnacceptableMove(f"move on {mv.domain} breaks properness")
        for v in mv.domain:
            if v in seen:
                raise NotSeparated(f"vertex {v} in two move domains")
            if any(w in seen for w in g.adj[v]):
                raise NotSeparated(f"edge between move domains at vertex {v}")
        seen.update(mv.domain)


def apply_monotone_prefix(
    g: Graph, f: PartialColoring, batch: Batch
) -> tuple[PartialColoring, int]:
    """Apply the longest batch prefix whose result stays weakly more
    equitable than f's distribution; return the new coloring and the prefix
    length.

    Every move of the batch, applied or not, must keep f proper and be
    separated from the others, else UnacceptableMove or NotSeparated.  Each
    move walked must have the batch signature (G, S), else
    SignatureMismatch.  Then the counts of G only rise along the walk and
    those of S only fall, so "some a in G has a count <= every count in S"
    can turn from true to false but never back: the longest monotone prefix
    ends just before the first failing one, and the walk stops there.
    """
    _check_coloring(g, f, error=ImproperInput, proper=False)
    _check_moves(f, batch.moves)
    _check_batch(g, f, batch)
    out = f.copy()
    if not batch.moves:
        return out, 0
    if not f.is_total():
        raise OutOfRange("batch prefixes are compared on a total coloring")
    before = list(f.counts())
    counts = before
    recolored = 0
    best = 0
    for mv in batch.moves:
        deltas = move_deltas(f, mv)
        if any((d > 0) != (c in batch.grows) or (d < 0) != (c in batch.shrinks)
               for c, d in enumerate(deltas)):
            raise SignatureMismatch(f"move on {mv.domain} is off the batch signature")
        counts = [c + d for c, d in zip(counts, deltas)]
        if counts != before and not witness_colors(before, counts):
            break
        recolored += len(_assign_move(out, mv))
        best += 1
    # both bounds in units of 1/n: l1 = moved/n, each gain = delta/n
    moved = sum(abs(a - b) for a, b in zip(out.counts(), before))
    m = batch.m if batch.m else 1
    assert recolored <= m * moved, "distance bound violated"
    for a, b in zip(out.counts(), before):
        if a > b:
            assert moved <= 2 * m * (a - b), "l1-vs-gain bound violated"
    return out, best


# ---------------------------------------------------------------------------
# driver


# the ledger's movement-budget parameter A
LEDGER_A = 6


@dataclass(frozen=True)
class DriverConfig:
    batch_mode: bool = False


@dataclass
class TraceRecord:
    kind: str                      # "move" | "batch"
    step: int
    vertices: tuple[int, ...]
    new_colors: tuple[int, ...]
    witness: Optional[int]
    counts: tuple[int, ...]
    # l1 movement of this step and of the run so far, in units of 1/n
    moved: int
    moved_total: int

    @property
    def l1(self) -> Fraction:
        return Fraction(self.moved, sum(self.counts))

    @property
    def cumulative(self) -> Fraction:
        return Fraction(self.moved_total, sum(self.counts))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "step": self.step,
            "vertices": list(self.vertices),
            "new_colors": list(self.new_colors),
            "witness": self.witness,
            "counts": list(self.counts),
            "l1": str(self.l1),
            "cumulative": str(self.cumulative),
        }


@dataclass
class DynamicsTrace:
    """Observability record for one driver run."""

    n: int
    k: int
    initial_counts: tuple[int, ...]
    records: list[TraceRecord] = field(default_factory=list)
    ledgers: list[ConvergenceLedger] = field(default_factory=list)

    @property
    def ledger(self) -> ConvergenceLedger:
        return self.ledgers[-1]

    @property
    def step_count(self) -> int:
        return len(self.records)

    @property
    def restarts(self) -> int:
        """Count of "restart" records; 0 for every trace this driver writes."""
        return sum(1 for r in self.records if r.kind == "restart")

    def to_jsonl(self) -> str:
        header = {
            "kind": "header",
            "n": self.n,
            "k": self.k,
            "initial_counts": list(self.initial_counts),
        }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(r.to_dict()) for r in self.records)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "disc", "l1", "cumulative"])
        k = self.k
        # int true division rounds correctly, as float(Fraction) does
        for r in self.records:
            total = sum(r.counts)
            disc = max(abs(c * k - total) for c in r.counts) / (total * k)
            writer.writerow([r.step, disc, r.moved / total, r.moved_total / total])
        return buf.getvalue()


class _Pattern1Index:
    """Pattern-1 moves of a total coloring that the driver only ever changes
    through `apply`.

    `colors` is f's color list, `apply` recolors through `_recolor` and
    `first_move` reads the class counts its caller passes.  `nbr[x*k + c]`
    counts the neighbors of x colored c.  `heaps[alpha][beta]` holds every
    vertex x with f(x) = beta and no neighbor colored alpha, plus stale
    entries that are dropped when they reach the top.

    The constructor first completes f in place by first fit, exactly as
    `greedy_extend_full` does: it counts the seed's colors into `nbr`,
    then each uncolored vertex, in vertex order, takes the least color c
    with nbr[v*k + c] == 0 and adds itself to its neighbors' counts.  It
    then fills each heap by appending in ascending vertex order, since a
    sorted list is a heap: O(n*k + m) in all, with no sifting.
    `first_move` peeks at heap tops and `take` pops a round; each moved
    vertex costs O(deg + k) pushes in `apply`.
    """

    def __init__(self, g: Graph, f: PartialColoring):
        k, colors, adj = f.k, f.colors, g.adj
        self.g, self.f, self.k, self.colors = g, f, k, colors
        self.nbr = nbr = [0] * (g.n * k)
        for v, c in enumerate(colors):
            if c is not None:
                for w in adj[v]:
                    nbr[w * k + c] += 1
        # k exceeds every degree, so each row has a zero within its k slots
        for v, c in enumerate(colors):
            if c is None:
                base = v * k
                c = nbr.index(0, base, base + k) - base
                _recolor(f, v, c)
                for w in adj[v]:
                    nbr[w * k + c] += 1
        self.heaps: list[list[list[int]]] = [[[] for _ in range(k)] for _ in range(k)]
        # by beta: (alpha, heaps[alpha][beta]) for each alpha != beta
        into = [
            [(alpha, self.heaps[alpha][beta]) for alpha in range(k) if alpha != beta]
            for beta in range(k)
        ]
        # vertices come in ascending order and a sorted list is a heap
        for v, beta in enumerate(colors):
            base = v * k
            for alpha, heap in into[beta]:
                if not nbr[base + alpha]:
                    heap.append(v)

    def apply(self, vertices: Iterable[int], new_colors: Iterable[int]) -> None:
        """Recolor each vertex to its new color in place, in order.

        Every entry is pushed when it becomes valid: a recolored vertex
        joins heap (alpha, its class) for each color alpha it has no
        neighbor of, and a neighbor whose count of the old color drops to
        zero joins that color's heap.  Within a move of several vertices
        a later write may make an earlier push stale, never missing.
        """
        colors, nbr, k, adj, f, heaps = (
            self.colors, self.nbr, self.k, self.g.adj, self.f, self.heaps
        )
        for v, c in zip(vertices, new_colors):
            old = colors[v]
            if old == c:
                continue
            _recolor(f, v, c)
            into_old = heaps[old]
            for w in adj[v]:
                base = w * k
                nbr[base + c] += 1
                left = nbr[base + old] - 1
                nbr[base + old] = left
                if not left and colors[w] != old:
                    heappush(into_old[colors[w]], w)
            base = v * k
            for alpha in range(k):
                if alpha != c and not nbr[base + alpha]:
                    heappush(heaps[alpha][c], v)

    def take(self, alpha: int, beta: int, cap: int) -> list[int]:
        """Pop from heap (alpha, beta) up to `cap` distinct vertices of
        class beta that have no alpha-neighbor, in ascending order; stale
        entries on the way are dropped.

        The taken vertices leave the heap, so the caller moves each of them
        to alpha through `apply`.
        """
        colors, nbr, k = self.colors, self.nbr, self.k
        heap = self.heaps[alpha][beta]
        taken: list[int] = []
        while heap and len(taken) < cap:
            x = heappop(heap)
            if colors[x] != beta or nbr[x * k + alpha]:
                continue
            # duplicate entries of one vertex pop consecutively
            if not taken or taken[-1] != x:
                taken.append(x)
        return taken

    def first_move(self, counts: Sequence[int]) -> Optional[tuple[int, int]]:
        """The first pattern-1 move (x, alpha) of the scan order, or None:
        the smallest valid heap top over minimum colors alpha and classes
        beta of size >= min + 2, the smallest alpha on a tie.  `counts` are
        f's class counts.

        A heap whose top is no smaller than the best vertex found so far
        cannot hold a better one, so its stale entries are left for later;
        stale tops below it are dropped."""
        colors, nbr, k, heaps = self.colors, self.nbr, self.k, self.heaps
        a = min(counts)
        mins, big = [], []
        for c, size in enumerate(counts):
            if size == a:
                mins.append(c)
            elif size >= a + 2:
                big.append(c)
        best, best_alpha = len(colors), 0
        for alpha in mins:
            row = heaps[alpha]
            for beta in big:
                heap = row[beta]
                while heap:
                    x = heap[0]
                    if x >= best:
                        break
                    if colors[x] == beta and not nbr[x * k + alpha]:
                        best, best_alpha = x, alpha
                        break
                    heappop(heap)
        return (best, best_alpha) if best < len(colors) else None


def _check_round(
    index: _Pattern1Index, counts: Sequence[int], taken: Sequence[int], alpha: int, beta: int
) -> None:
    """Raise NotSeparated unless the take is strictly ascending,
    UnacceptableMove unless every taken vertex is in beta with no
    alpha-neighbor, and MonotonicityViolation unless alpha stays no larger
    than beta after the round.  Then the round is proper, separated (one
    class is independent) and monotone, with witness alpha."""
    t = len(taken)
    if t > 1 and any(a >= b for a, b in zip(taken, taken[1:])):
        raise NotSeparated(f"round takes {list(taken)}, not strictly ascending")
    colors, nbr, k = index.colors, index.nbr, index.k
    for y in taken:
        if colors[y] != beta or nbr[y * k + alpha]:
            raise UnacceptableMove(f"vertex {y} cannot move from {beta} to {alpha}")
    if counts[alpha] + t > counts[beta] - t:
        raise MonotonicityViolation(f"round of {t} from {beta} to {alpha} overshoots")


def equitable_k_coloring(
    g: Graph,
    k: int,
    f0: Optional[PartialColoring] = None,
    config: DriverConfig = DriverConfig(),
) -> tuple[PartialColoring, DynamicsTrace]:
    """Total proper k-coloring with class sizes within 1 of each other,
    for k >= max degree + 1, plus the full dynamics trace.

    The trace's ledger certifies the cumulative movement budget with A = 6;
    the driver additionally asserts that the fraction of recolored vertices
    is at most (1+A)^(k+1)/2 times the initial discrepancy.  Raises
    Stalled, with the coloring and its gap, when no move of size <= 3
    exists at gap >= 2.
    """
    size = palette_size(k, g.max_degree + 1)
    if f0 is not None:
        _check_coloring(g, f0, size, error=ImproperSeed)
    # the driver recolors this copy of the seed in place; the index
    # completes it by first fit, as greedy_extend_full does
    f = PartialColoring(g.n, size) if f0 is None else f0.copy()
    if g.n == 0:
        trace = DynamicsTrace(0, size, tuple([0] * size))
        trace.ledgers.append(ConvergenceLedger(Fraction(LEDGER_A), size, Fraction(0)))
        return f, trace

    n = g.n
    index = _Pattern1Index(g, f)
    debug = debug_checks_enabled()
    if debug:
        assert f == greedy_extend_full(g, size, f0), "start differs from first fit"
    counts = f.counts()
    trace = DynamicsTrace(n, size, counts)

    # f is the one working coloring: every move below is applied in place
    # through index.apply, which also keeps f's class counts
    start_colors = f.as_list()
    ledger = ConvergenceLedger.for_initial(LEDGER_A, ColorDistribution.from_coloring(f))
    trace.ledgers.append(ledger)
    colors = f.colors
    # each recorded round has a witness class that gains, so it moves at
    # least 2/n; record_counts raises once the total passes the ledger
    # budget, so there are at most step_cap rounds
    step_cap = ledger.bound() * n // 2
    moved_total = 0

    # `counts` holds the class counts before each round, as a tuple
    while max(counts) - min(counts) >= 2:
        assert len(trace.records) <= step_cap, "rounds outran the ledger budget"
        first = index.first_move(counts)
        if debug:
            scan = next(_pattern1_moves(g, f), None)
            assert first == (scan and scan.assignments[0]), "pattern-1 index out of date"
        if first is None:
            move = find_improving_move(g, f)
            if move is None:
                raise Stalled(
                    f"no admissible move of size <= 3 at gap {f.gap()}",
                    coloring=f, gap=f.gap(),
                )
            witness = admissible_witness(g, f, move)
            kind, changed = "move", move.domain
            new_colors = tuple(c for _, c in move.assignments)
        else:
            # a pattern-1 round, admissible with its target color as witness
            x, alpha = first
            beta = colors[x]
            cap = (counts[beta] - counts[alpha]) // 2 if config.batch_mode else 1
            taken = index.take(alpha, beta, cap)
            if debug:
                assert taken == sorted(
                    y for y in range(n) if colors[y] == beta
                    and all(colors[w] != alpha for w in g.adj[y])
                )[:cap], "round differs from the rescan"
            _check_round(index, counts, taken, alpha, beta)
            witness = alpha
            kind, changed = ("batch" if config.batch_mode else "move"), taken
            new_colors = (alpha,) * len(taken)
        index.apply(changed, new_colors)
        new_counts = f.counts()
        # steps between counts of one total n are kept over n
        ledger.record_counts(counts, new_counts, n, witness)
        if debug:
            assert is_proper(g, f), "applied round broke properness"
            assert is_more_equitable(
                ColorDistribution(counts, n), ColorDistribution(new_counts, n), strict=True
            )
        moved = ledger.steps[-1].moved
        moved_total += moved
        trace.records.append(TraceRecord(
            kind, len(trace.records), tuple(changed), new_colors, witness,
            new_counts, moved, moved_total,
        ))
        counts = new_counts

    assert f.is_total() and f.gap() <= 1
    # stability: recolored fraction within the guaranteed budget of the
    # start, whose discrepancy is the ledger's disc0
    changed = sum(1 for c, c0 in zip(colors, start_colors) if c != c0)
    budget = Fraction((1 + LEDGER_A) ** (size + 1), 2) * ledger.disc0
    assert Fraction(changed, n) <= budget, "stability bound violated"
    return f, trace
