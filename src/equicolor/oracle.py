"""Brute-force ground truth on tiny instances.

Everything here is deliberately naive: exhaustive enumeration with early
exits, independent of the engine code it cross-checks.  The module also
provides labeled and up-to-isomorphism atlases of small graphs for the
exhaustive verification sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional

from .colorings import (
    ListAssignment,
    PartialColoring,
    _check_coloring,
    _check_lists,
    palette_size,
)
from .errors import BudgetExceeded, ImproperSeed, OutOfRange, PreconditionViolated
from .graphs import Graph, build_graph, components


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 10
    max_palette: int = 6
    max_list_size: int = 8

    def check_graph(self, g: Graph) -> None:
        if g.n > self.max_vertices:
            raise BudgetExceeded(f"{g.n} vertices exceed cap {self.max_vertices}")

    def check_palette(self, k: int) -> None:
        if k > self.max_palette:
            raise BudgetExceeded(f"palette {k} exceeds cap {self.max_palette}")

    def check_lists(self, lists: ListAssignment) -> None:
        worst = max((len(l) for l in lists.lists), default=0)
        if worst > self.max_list_size:
            raise BudgetExceeded(f"list size {worst} exceeds cap {self.max_list_size}")


def _proper_colorings(
    g: Graph,
    k: int,
    choices: Callable[[int, list[int]], Iterable[int]],
    accept: Callable[[list[int]], bool] = lambda counts: True,
) -> Iterator[tuple[int, ...]]:
    """The one exhaustive search: every total proper coloring of g that
    colors each vertex v from `choices(v, counts)`, where counts[c] is how
    many earlier vertices have color c, and whose final counts pass
    `accept`.  Colors an earlier neighbor holds are skipped.  Colorings come
    in lexicographic order of the choices; with no vertices, the one empty
    coloring is judged like any other."""
    n, adj = g.n, g.adj
    colors = [0] * n
    counts = [0] * k

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if accept(counts):
                yield tuple(colors)
            return
        taken = {colors[w] for w in adj[v] if w < v}
        for c in choices(v, counts):
            if c in taken:
                continue
            colors[v] = c
            counts[c] += 1
            yield from extend(v + 1)
            counts[c] -= 1

    return extend(0)


def enumerate_proper_colorings(
    g: Graph,
    palette: Optional[int] = None,
    lists: Optional[ListAssignment] = None,
    budget: OracleBudget = OracleBudget(),
) -> Iterator[tuple[int, ...]]:
    """All total proper colorings, lexicographic by assignment vector.

    Exactly one of palette (uniform colors) or lists must be given.
    """
    if (palette is None) == (lists is None):
        raise PreconditionViolated("pass exactly one of palette or lists", name="palette")
    budget.check_graph(g)
    if palette is not None:
        k = palette_size(palette)
        budget.check_palette(k)
        allowed = [range(k)] * g.n
    else:
        _check_lists(g, lists, error=OutOfRange)
        budget.check_lists(lists)
        k = lists.max_color() + 1
        allowed = lists.ordered
    yield from _proper_colorings(g, k, lambda v, counts: allowed[v])


def count_proper_colorings(g: Graph, k: int, budget: OracleBudget = OracleBudget()) -> int:
    """Number of proper k-colorings, with closed forms for paths and cycles."""
    k = palette_size(k)
    shape = _path_or_cycle(g)
    if shape == "path" and g.n >= 1:
        return k * (k - 1) ** (g.n - 1)
    if shape == "cycle":
        return (k - 1) ** g.n + (k - 1) * (1 if g.n % 2 == 0 else -1)
    return sum(1 for _ in enumerate_proper_colorings(g, palette=k, budget=budget))


def _path_or_cycle(g: Graph) -> Optional[str]:
    if g.n == 0 or len(components(g)) != 1:
        return None
    degs = sorted(g.degrees)
    if g.n >= 3 and all(d == 2 for d in degs):
        return "cycle"
    if g.n == 1 and g.edge_count == 0:
        return "path"
    if g.n >= 2 and degs[:2] == [1, 1] and all(d == 2 for d in degs[2:]):
        return "path"
    return None


def equitable_exists(g: Graph, k: int, budget: OracleBudget = OracleBudget()) -> bool:
    """True iff some proper k-coloring has class sizes within 1 of each
    other (empty classes count)."""
    budget.check_graph(g)
    k = palette_size(k)
    budget.check_palette(k)
    ceiling = -(-g.n // k)
    found = _proper_colorings(
        g, k,
        lambda v, counts: [c for c in range(k) if counts[c] < ceiling],
        lambda counts: max(counts) - min(counts) <= 1,
    )
    return next(found, None) is not None


def domination_exists(
    g: Graph,
    lists: ListAssignment,
    seed: PartialColoring,
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """True iff some total proper list coloring has class counts at least
    the seed's on every color."""
    _check_lists(g, lists, error=OutOfRange)
    _check_coloring(g, seed, error=ImproperSeed, proper=False)
    budget.check_graph(g)
    budget.check_lists(lists)
    n = g.n
    need = [(c, d) for c, d in enumerate(seed.counts()) if d]
    allowed = [tuple(c for c in colors if c < seed.k) for colors in lists.ordered]

    def deficit(counts: list[int]) -> int:
        return sum(d - counts[c] for c, d in need if counts[c] < d)

    found = _proper_colorings(
        g, seed.k,
        # the vertices from v on cannot make up a larger deficit
        lambda v, counts: allowed[v] if deficit(counts) <= n - v else (),
        lambda counts: deficit(counts) == 0,
    )
    return next(found, None) is not None


def _oracle_connected_domains(g: Graph, m: int) -> list[tuple[int, ...]]:
    """All connected vertex sets of size <= m, each exactly once, sorted by
    (size, members).  Vertices skipped at a branch stay excluded below it."""

    out: list[tuple[int, ...]] = []

    def grow(
        members: tuple[int, ...],
        ext: list[int],
        banned: frozenset[int],
        minv: int,
    ) -> None:
        out.append(tuple(sorted(members)))
        if len(members) == m:
            return
        for i, u in enumerate(ext):
            new_banned = banned | frozenset(ext[:i])
            new_ext = ext[i + 1:] + [
                w for w in g.adj[u]
                if w > minv and w not in members and w not in ext
                and w not in new_banned
            ]
            grow(members + (u,), new_ext, new_banned, minv)

    for v in range(g.n):
        grow((v,), [u for u in g.adj[v] if u > v], frozenset(), v)
    return sorted(out, key=lambda d: (len(d), d))


def improving_move_exists(
    g: Graph,
    f: PartialColoring,
    m: int,
    budget: OracleBudget = OracleBudget(),
) -> bool:
    """Exhaustive scan over all connected domains of size <= m and all
    recolorings of them; true iff an admissible move exists.

    Admissibility is re-derived from first principles here: the recoloring
    keeps the graph properly colored, some strictly growing class starts
    strictly below every strictly shrinking class, and that class stays no
    larger than any shrinking class after the move.
    """
    _check_coloring(g, f, error=ImproperSeed, proper=False, total=True)
    if m < 1:
        raise OutOfRange(f"move size bound must be at least 1, got {m}")
    budget.check_graph(g)
    budget.check_palette(f.k)
    k = f.k
    counts = f.counts()
    for dom in _oracle_connected_domains(g, m):
        current = tuple(f.colors[v] for v in dom)
        for colors in product(range(k), repeat=len(dom)):
            if colors == current:
                continue
            new = dict(zip(dom, colors))
            ok = True
            for v, c in new.items():
                for w in g.adj[v]:
                    if new.get(w, f.colors[w]) == c:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            deltas = [0] * k
            for v, c in new.items():
                deltas[c] += 1
                deltas[f.colors[v]] -= 1
            losing = [b for b in range(k) if deltas[b] < 0]
            if not losing:
                continue
            pre = min(counts[b] for b in losing)
            post = min(counts[b] + deltas[b] for b in losing)
            if any(
                deltas[a] > 0 and counts[a] < pre and counts[a] + deltas[a] <= post
                for a in range(k)
            ):
                return True
    return False


# ---------------------------------------------------------------------------
# small-graph atlases


def _vertex_signature(g: Graph, v: int) -> tuple:
    nbr_degs = tuple(sorted(g.degrees[w] for w in g.adj[v]))
    triangles = sum(
        1 for a, b in combinations(g.adj[v], 2) if g.has_edge(a, b)
    )
    return (g.degrees[v], triangles, nbr_degs)


def _graph_invariant(g: Graph) -> tuple:
    return (g.n, g.edge_count, tuple(sorted(_vertex_signature(g, v) for v in range(g.n))))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test for tiny graphs."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    sig_g = [_vertex_signature(g, v) for v in range(g.n)]
    sig_h = [_vertex_signature(h, v) for v in range(h.n)]
    if sorted(sig_g) != sorted(sig_h):
        return False
    n = g.n
    order = sorted(range(n), key=lambda v: (sig_g.count(sig_g[v]), -g.degrees[v]))
    mapping = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for w in range(n):
            if used[w] or sig_g[v] != sig_h[w]:
                continue
            ok = True
            for u in order[:i]:
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if backtrack(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return backtrack(0)


_ATLAS_CACHE: dict[int, list[Graph]] = {}


def canonical_graphs(n: int) -> list[Graph]:
    """All simple graphs on n vertices up to isomorphism.

    Built by augmenting the (n-1)-atlas with every possible neighborhood of
    a new vertex and deduplicating through invariant buckets plus exact
    isomorphism tests.  Sizes 1, 2, 4, 11, 34, 156, 1044, 12346 for
    n = 1..8.
    """
    if n in _ATLAS_CACHE:
        return _ATLAS_CACHE[n]
    if n <= 0:
        out = [build_graph(0, [])]
    elif n == 1:
        out = [build_graph(1, [])]
    else:
        prev = canonical_graphs(n - 1)
        buckets: dict[tuple, list[Graph]] = {}
        out = []
        for base in prev:
            base_edges = base.edges()
            for mask in range(1 << (n - 1)):
                edges = base_edges + [
                    (i, n - 1) for i in range(n - 1) if mask >> i & 1
                ]
                cand = build_graph(n, edges)
                inv = _graph_invariant(cand)
                bucket = buckets.setdefault(inv, [])
                if any(are_isomorphic(cand, other) for other in bucket):
                    continue
                bucket.append(cand)
                out.append(cand)
    _ATLAS_CACHE[n] = out
    return out


def connected_canonical_graphs(n: int) -> list[Graph]:
    return [g for g in canonical_graphs(n) if len(components(g)) == 1]


def colorings_up_to_color_permutation(g: Graph, k: int) -> Iterator[tuple[int, ...]]:
    """Proper total k-colorings with colors in first-use order, one
    representative per palette-permutation class."""
    # colors are used in first-use order, so the used ones are 0..used-1
    return _proper_colorings(
        g, k, lambda v, counts: range(min(k - counts.count(0) + 1, k))
    )
