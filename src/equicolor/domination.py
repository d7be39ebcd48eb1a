"""Dominating list colorings on connected graphs that are not Gallai trees.

Given a degree-list assignment (every list at least as large as the vertex
degree) and a proper partial list coloring, the solver produces a total
proper list coloring whose per-color class counts are at least those of the
seed.  The recursion peels removable vertices one at a time, keeping counts
non-decreasing via a color-shift swap when the peeled vertex is uncolored,
toward the least vertex of an anchored block that is neither a clique nor an
odd cycle.  If that vertex is left uncolored, the block alone (its lists less
the colors of its outside neighbors) is solved by one of:

* a vertex with a list strictly larger than its degree (greedy completion),
* an edge with unequal lists (remove one endpoint, recurse with a surplus),
* an even cycle (parity extension),
* a regular block with all lists equal (exhaustive backtracking with
  per-color count lower bounds).  This search is exponential in the block
  size and recurses once per vertex: it raises RecursionError on
  `regular:n=2000,d=3` seed 0 from a tight seed, and does not finish on
  some cubic blocks of 120 vertices.  A constructive solver for this case
  is open item 1 of ROADMAP.md.

`dominating_full_coloring` and `forests.dominating_delta_coloring` share
this anchored-block path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .colorings import (
    ListAssignment,
    PartialColoring,
    _greedy_fill,
    dominates,
    greedy_maximal,
    is_proper,
)
from .errors import (
    GallaiTree,
    ImproperSeed,
    NotConnected,
    NotDegreeList,
    OutOfRange,
    debug_checks_enabled,
)
from .graphs import Graph, _anchor_blocks, components


@dataclass(frozen=True)
class DominationInstance:
    graph: Graph
    lists: ListAssignment
    seed: PartialColoring
    pivot: Optional[int] = None

    @property
    def palette(self) -> int:
        return self.seed.k


def _validate(inst: DominationInstance, need_pivot: bool = False) -> None:
    g, lists, seed = inst.graph, inst.lists, inst.seed
    count = len(components(g))
    if count != 1:
        raise NotConnected(f"graph has {count} components, need 1")
    if len(lists) != g.n:
        raise NotDegreeList(f"list assignment covers {len(lists)} vertices, graph has {g.n}")
    if not lists.is_degree_list(g):
        bad = next(v for v in range(g.n) if len(lists[v]) < g.degree(v))
        raise NotDegreeList(
            f"vertex {bad}: list size {len(lists[bad])} < degree {g.degree(bad)}"
        )
    if seed.n != g.n:
        raise ImproperSeed("seed size mismatch")
    if lists.max_color() >= seed.k:
        raise OutOfRange(
            f"list color {lists.max_color()} outside the seed palette {seed.k}"
        )
    if not is_proper(g, seed):
        raise ImproperSeed("seed not proper")
    for v in range(g.n):
        c = seed.get(v)
        if c is not None and c not in lists[v]:
            raise ImproperSeed(f"seed color {c} at vertex {v} outside its list")
    if need_pivot and inst.pivot is None:
        raise OutOfRange("pivot vertex required")
    if inst.pivot is not None and not (0 <= inst.pivot < g.n):
        raise OutOfRange(f"pivot {inst.pivot} outside range")


def _postorder(g: Graph, root: int) -> list[int]:
    """Vertices in the order a DFS from root finishes them; the root comes
    last.  Deleting the first of them leaves the rest of that DFS unchanged,
    so this is also the order of repeatedly peeling the first-finished
    vertex."""
    seen = [False] * g.n
    seen[root] = True
    order: list[int] = []
    stack = [(root, 0)]
    while stack:
        v, i = stack.pop()
        nbrs = g.adjacency(v)
        while i < len(nbrs):
            w = nbrs[i]
            i += 1
            if not seen[w]:
                seen[w] = True
                stack.append((v, i))
                stack.append((w, 0))
                break
        else:
            order.append(v)
    return order


def _all_but_one(
    g: Graph, lists: ListAssignment, seed: PartialColoring, pivot: int
) -> PartialColoring:
    """Proper partial list coloring covering every vertex except possibly the
    pivot, with class counts at least the seed's.

    Peels a spanning-tree leaf z (keeping the rest connected) per round.  If
    the maximalized coloring leaves z uncolored, z's neighbors hold each of
    z's list colors exactly once, so z can take the color of its smallest
    neighbor y while y is uncolored; counts are unchanged and the recursion
    proceeds on the smaller graph with y now playing z's former role.  A
    peeled vertex keeps its color, which blocks its neighbors as deleting
    that color from their lists would, so one coloring serves every round;
    the next round re-maximalizes only y and its uncolored neighbors.
    """
    f = seed.copy()
    deleted = [False] * g.n
    pending: Iterable[int] = range(g.n)
    debug = debug_checks_enabled()

    for z in _postorder(g, pivot)[:-1]:
        prev = f.copy() if debug else f
        _greedy_fill(g, lists, f, pending)
        if debug:
            assert f == greedy_maximal(g, lists, prev), "pending fill missed a vertex"
        pending = ()
        if not f.is_assigned(z):
            # maximality: all neighbors colored, each list color exactly once
            y = min(w for w in g.adjacency(z) if not deleted[w])
            cy = f.get(y)
            assert cy is not None, "uncolored vertex with uncolored neighbor in maximal coloring"
            if debug:
                assert cy in lists[z]
                assert sum(1 for w in g.adjacency(z) if f.get(w) == cy) == 1
            f.unassign(y)
            f.assign(z, cy)
            pending = sorted([y] + [
                w for w in g.adjacency(y) if not f.is_assigned(w)
            ])
        deleted[z] = True
    return f


def color_all_but_one(inst: DominationInstance) -> PartialColoring:
    """Proper partial list coloring with domain covering everything except
    possibly the pivot, dominating the seed."""
    _validate(inst, need_pivot=True)
    out = _all_but_one(inst.graph, inst.lists, inst.seed, inst.pivot)
    assert dominates(out, inst.seed, inst.lists.union_colors())
    return out


def _extend_at(
    g: Graph, lists: ListAssignment, f: PartialColoring, v: int
) -> Optional[PartialColoring]:
    """Assign v a free list color if one exists."""
    taken = {f.get(w) for w in g.adjacency(v)}
    free = [c for c in lists[v] if c not in taken]
    if not free:
        return None
    out = f.copy()
    out.assign(v, min(free))
    return out


def _large_list_completion(
    g: Graph, lists: ListAssignment, seed: PartialColoring, x: int
) -> PartialColoring:
    """Total dominating coloring when |L(x)| > deg(x): color everything but
    x, then x always has a spare color."""
    f = _all_but_one(g, lists, seed, x)
    if f.is_assigned(x):
        return f
    out = _extend_at(g, lists, f, x)
    assert out is not None, "a list larger than the degree always leaves a spare color"
    return out


def large_list_shortcut(inst: DominationInstance) -> Optional[PartialColoring]:
    """Total dominating coloring via a vertex whose list exceeds its degree;
    None when no such vertex exists."""
    _validate(inst)
    g, lists = inst.graph, inst.lists
    x = next((v for v in range(g.n) if len(lists[v]) > g.degree(v)), None)
    if x is None:
        return None
    out = _large_list_completion(g, lists, inst.seed, x)
    assert out.is_total()
    assert dominates(out, inst.seed, lists.union_colors())
    return out


def _regular_block_search(
    g: Graph, common: frozenset[int], required: list[int], k: int
) -> Optional[PartialColoring]:
    """Exhaustive search for a total proper coloring from one shared list
    with per-color count lower bounds."""
    n = g.n
    colors = sorted(common)
    need = list(required)
    assign: list[Optional[int]] = [None] * n

    def deficit() -> int:
        return sum(max(0, d) for d in need)

    def backtrack(v: int) -> bool:
        if v == n:
            return deficit() == 0
        if deficit() > n - v:
            return False
        taken = {assign[w] for w in g.adjacency(v) if w < v}
        for c in colors:
            if c in taken:
                continue
            assign[v] = c
            need[c] -= 1
            if backtrack(v + 1):
                return True
            need[c] += 1
            assign[v] = None
        return False

    if backtrack(0):
        return PartialColoring(n, k, assign)
    return None


def _solve_block(
    h: Graph, lists: ListAssignment, seed: PartialColoring, pivot: int
) -> PartialColoring:
    """Total dominating list coloring of a 2-connected block that is neither
    a clique nor an odd cycle."""
    k = seed.k
    n = h.n

    surplus = next((v for v in range(n) if len(lists[v]) > h.degree(v)), None)
    if surplus is not None:
        return _large_list_completion(h, lists, seed, surplus)

    # all lists now have size exactly the degree
    for x in range(n):
        for y in h.adjacency(x):
            extra = lists[x] - lists[y]
            if not extra:
                continue
            beta = min(extra)
            f1 = _all_but_one(h, lists, seed, x)
            if f1.is_assigned(x):
                return f1
            done = _extend_at(h, lists, f1, x)
            if done is not None:
                return done
            # every color of L(x) sits on exactly one neighbor; move beta
            # out of the way and recurse on h - x where y gains a surplus
            zs = [w for w in h.adjacency(x) if f1.get(w) == beta]
            assert len(zs) == 1
            z = zs[0]
            assert z != y
            keep = [v for v in range(n) if v != x]
            sub, _ = h.induced_subgraph(keep)
            sub_lists = ListAssignment(tuple(
                lists[v] - {beta} if h.has_edge(v, x) else lists[v]
                for v in keep
            ))
            sub_seed = PartialColoring(
                sub.n, k, [None if v == z else f1.get(v) for v in keep]
            )
            y_new = keep.index(y)
            assert len(sub_lists[y_new]) > sub.degree(y_new)
            f2 = _large_list_completion(sub, sub_lists, sub_seed, y_new)
            out = PartialColoring(n, k)
            for v_new, v_old in enumerate(keep):
                out.assign(v_old, f2.get(v_new))
            out.assign(x, beta)
            return out

    # equal lists everywhere, so the block is regular of degree |L|
    common = lists[0]
    s = len(common)
    assert all(h.degree(v) == s for v in range(n))
    if s == 2:
        # even cycle: color all but the pivot, whose two neighbors then
        # agree, and use the remaining list color
        f1 = _all_but_one(h, lists, seed, pivot)
        if f1.is_assigned(pivot):
            return f1
        nbr_colors = {f1.get(w) for w in h.adjacency(pivot)}
        assert len(nbr_colors) == 1, "an even path alternates, endpoints agree"
        spare = min(common - nbr_colors)
        f1.assign(pivot, spare)
        return f1
    found = _regular_block_search(h, common, [seed.count_of(c) for c in range(k)], k)
    assert found is not None, (
        "a regular non-complete block of degree >= 3 always admits a "
        "dominating coloring"
    )
    return found


def _restrict(
    g: Graph, lists: ListAssignment, f: PartialColoring, block: frozenset[int]
) -> tuple[Graph, tuple[int, ...], ListAssignment, PartialColoring]:
    """The block's induced subgraph and its mapping to g, the block's lists
    less the colors of colored neighbors outside it, and f restricted to
    the block."""
    h, mapping = g.induced_subgraph(block)
    h_lists = ListAssignment(tuple(
        lists[old] - {f.get(w) for w in g.adjacency(old)
                      if w not in block and f.is_assigned(w)}
        for old in mapping
    ))
    return h, mapping, h_lists, PartialColoring(h.n, f.k, [f.get(old) for old in mapping])


def _anchored_block_coloring(
    g: Graph, lists: ListAssignment, seed: PartialColoring, block: frozenset[int]
) -> PartialColoring:
    """Total dominating list coloring of g anchored at a block that is
    neither a clique nor an odd cycle: peel toward the block's least vertex
    and, if it is left uncolored, solve the block with the rest fixed."""
    u = min(block)
    f = _all_but_one(g, lists, seed, u)
    if not f.is_assigned(u):
        h, mapping, h_lists, h_seed = _restrict(g, lists, f, block)
        # the mapping is sorted, so u is vertex 0 of the block
        f_block = _solve_block(h, h_lists, h_seed, 0)
        for new, old in enumerate(mapping):
            f.assign(old, f_block.get(new))

    assert f.is_total()
    assert is_proper(g, f)
    assert all(f.get(v) in lists[v] for v in range(g.n))
    assert dominates(f, seed, lists.union_colors())
    return f


def dominating_full_coloring(inst: DominationInstance) -> PartialColoring:
    """Total proper list coloring dominating the seed, for a connected graph
    that is not a Gallai tree with a degree-list assignment."""
    _validate(inst)
    g = inst.graph
    [block] = _anchor_blocks(g, [range(g.n)])
    if block is None:
        raise GallaiTree("every block is a clique or odd cycle; no guarantee exists")
    return _anchored_block_coloring(g, inst.lists, inst.seed, block)
