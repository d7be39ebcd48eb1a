"""Immutable finite simple undirected graphs and their structural queries.

Vertices are dense integers 0..n-1.  Graphs are immutable after
construction and safe to share across threads; all hot loops index
plain tuples.

One breadth-first walk, `_bfs`, serves every search toward a vertex set:
it returns the reached vertices in the order reached and a parent list.
`component_of` keeps the reached set, `build_one_ended_subforest` points
each vertex at its parent toward the anchors, and the domination solver
walks its hole along parents and tests connectivity after deleting a
vertex pair.  `components` partitions the whole graph with its own loop.

One counted Hopcroft-Tarjan pass, `_blocks`, serves every block query: a
block of s vertices and m edges is a clique iff m = s(s-1)/2 and an odd
cycle iff s is odd and m = s, so no block is rescanned.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import contains, ne
from typing import Iterable, Optional, Sequence

from .errors import (
    ComponentMissesAnchor,
    DuplicateEdge,
    EmptyGraph,
    NotAComponent,
    OutOfRange,
    SelfLoop,
    debug_checks_enabled,
)


class Graph:
    """A graph on vertices 0..n-1.  `adj[v]`, the ascending tuple of v's
    neighbors, is the one copy of the edges; `degrees[v]` is v's degree.
    These, `edge_count` and `max_degree` are public read-only views that
    hot loops read directly.  Callers must never rebind or mutate them."""

    __slots__ = ("n", "adj", "degrees", "edge_count", "max_degree")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        """The graph whose v-th list holds v's neighbors.  OutOfRange on a
        neighbor outside [0, n) or a pair listed at one end only, SelfLoop
        on a vertex listing itself, DuplicateEdge on a repeated neighbor."""
        if len(adj) != n:
            raise OutOfRange(f"{len(adj)} neighbor lists for {n} vertices")
        self.n = n
        self.adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self.degrees = tuple(len(nbrs) for nbrs in self.adj)
        # mirror[v] lists, in ascending order, every u whose list holds v
        mirror: list[list[int]] = [[] for _ in range(n)]
        for u, nbrs in enumerate(self.adj):
            if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n):
                raise OutOfRange(f"a neighbor of vertex {u} lies outside [0, {n})")
            for v in nbrs:
                mirror[v].append(u)
        if any(map(contains, self.adj, range(n))):
            raise SelfLoop(f"self-loop at vertex {next(u for u in range(n) if u in self.adj[u])}")
        if any(map(ne, map(len, map(set, self.adj)), self.degrees)):
            # when both ends list each pair, as build_graph lists them, the
            # first u with a repeat has only repeats above u
            u, v = next((u, v) for u, nbrs in enumerate(self.adj)
                        for v, w in zip(nbrs, nbrs[1:]) if v == w)
            raise DuplicateEdge(f"duplicate edge ({u}, {v})")
        if any(map(ne, map(tuple, mirror), self.adj)):
            u = next(u for u in range(n) if tuple(mirror[u]) != self.adj[u])
            v = min(set(mirror[u]) ^ set(self.adj[u]))
            raise OutOfRange(f"pair ({u}, {v}) is listed at one end only")
        self.edge_count = sum(self.degrees) // 2
        self.max_degree = max(self.degrees, default=0)

    def adjacency(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Return (subgraph, mapping) where mapping[new_id] = old_id;
        OutOfRange on an id outside [0, n)."""
        keep = sorted(set(vertices))
        _check_vertices(self, keep)
        index = {old: new for new, old in enumerate(keep)}
        adj = [[index[w] for w in self.adj[old] if w in index] for old in keep]
        return Graph(len(keep), adj), tuple(keep)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated simple graph.

    Rejects out-of-range endpoints and self-loops at the first such edge;
    the Graph constructor then rejects duplicate edges, naming the least
    repeated pair (duplicates signal generator bugs, so they are errors
    rather than silently deduplicated).
    """
    if n < 0:
        raise OutOfRange(f"vertex count must be nonnegative, got {n}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRange(f"edge ({u}, {v}) outside vertex range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, adj)


def _check_vertices(g: Graph, ids: Iterable[int], what: str = "vertex") -> None:
    """OutOfRange unless every id lies in [0, n)."""
    bad = [v for v in ids if not 0 <= v < g.n]
    if bad:
        raise OutOfRange(f"{what} {min(bad)} outside [0, {g.n})")


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    adj = g.adj
    seen = [False] * g.n
    out: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        # the loop also visits the vertices appended while it runs
        for v in comp:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comp.sort()
        out.append(comp)
    return out


def _bfs(
    g: Graph, sources: Iterable[int], avoid: frozenset[int] = frozenset()
) -> tuple[list[int], list[int]]:
    """Breadth-first walk of g - avoid from the sources: the reached vertices
    in the order reached, sources first, and the parent of every vertex, -1
    where it was not reached.  A source is its own parent."""
    adj = g.adj
    parent = [-1] * g.n
    order = list(sources)
    for s in order:
        parent[s] = s
    # the loop also visits the vertices appended while it runs
    for v in order:
        for w in adj[v]:
            if parent[w] == -1 and w not in avoid:
                parent[w] = v
                order.append(w)
    return order, parent


def component_of(g: Graph, v: int) -> frozenset[int]:
    return frozenset(_bfs(g, [v])[0])


@dataclass
class OneEndedForest:
    """A parent map on the non-anchor vertices, pointing along edges toward
    an anchor set that meets every component, with no cycles.  The height
    of a vertex is the length of the longest parent chain below it."""

    anchors: frozenset[int]
    parent: dict[int, int]          # defined exactly on non-anchor vertices
    heights: tuple[int, ...]

    def max_height(self) -> int:
        return max(self.heights, default=0)

    def validate(self, g: Graph) -> None:
        """OutOfRange unless this is a forest of g: heights in [0, n), anchors
        in range, and each other vertex's parent a neighbor of larger height
        (so every parent chain ends at an anchor).  O(n)."""
        if len(self.heights) != g.n:
            raise OutOfRange(f"forest covers {len(self.heights)} vertices, graph has {g.n}")
        _check_vertices(g, self.anchors, "anchor")
        _check_vertices(g, self.heights, "height")
        for v in range(g.n):
            p = self.parent.get(v)
            if v not in self.anchors and (
                p is None or not g.has_edge(v, p) or self.heights[p] <= self.heights[v]
            ):
                raise OutOfRange(f"parent of vertex {v} is not a neighbor of larger height")


def build_one_ended_subforest(g: Graph, anchors: Iterable[int]) -> OneEndedForest:
    """Multi-source BFS from the anchor set; parents point toward the
    anchors, heights are the longest child-chain lengths."""
    anchor_set = frozenset(anchors)
    if g.n and not anchor_set:
        raise ComponentMissesAnchor("anchor set is empty")
    _check_vertices(g, anchor_set, "anchor")
    order, parent = _bfs(g, sorted(anchor_set))
    if len(order) < g.n:
        raise ComponentMissesAnchor(
            f"no anchor in the component of vertex {parent.index(-1)}"
        )
    children = order[len(anchor_set):]
    heights = [0] * g.n
    # the order holds the anchors first, then every child after its parent
    for v in reversed(children):
        p = parent[v]
        if heights[p] <= heights[v]:
            heights[p] = heights[v] + 1
    forest = OneEndedForest(anchor_set, {v: parent[v] for v in children}, tuple(heights))
    if debug_checks_enabled():
        forest.validate(g)
    return forest


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal subgraphs without a cut-vertex) and cut vertices."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


def _blocks(g: Graph, roots: Iterable[int]) -> list[list[tuple[list[int], int]]]:
    """One iterative Hopcroft-Tarjan pass from each root, in the given
    order, that no earlier root reached: for each such root, the blocks of
    its component in closing order, each as (vertex list, edge count).

    A vertex stack stands in for the edge stack: a block closes when a
    child v finishes with low[v] >= disc[parent], and is v's stacked
    subtree plus the parent.  Each vertex counts its edges to vertices
    discovered before it (its tree parent and back edges), all of which
    lie in the block that pops it.  An isolated root is a block of its own.
    """
    adj = g.adj
    disc = [-1] * g.n
    low = [0] * g.n
    earlier = [0] * g.n
    out: list[list[tuple[list[int], int]]] = []
    timer = 0
    for root in roots:
        if disc[root] != -1:
            continue
        disc[root] = timer
        timer += 1
        blocks: list[tuple[list[int], int]] = []
        stack = [root]
        # frames: (vertex, its neighbor iterator, its place on the stack)
        path = [(root, iter(adj[root]), 0)]
        while path:
            v, nbrs, at = path[-1]
            dv = disc[v]
            for w in nbrs:
                dw = disc[w]
                if dw == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    path.append((w, iter(adj[w]), len(stack)))
                    stack.append(w)
                    break
                if dw < dv:
                    earlier[v] += 1
                    if dw < low[v]:
                        low[v] = dw
            else:
                path.pop()
                if path:
                    p = path[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        members = stack[at:]
                        del stack[at:]
                        blocks.append((members + [p], sum(map(earlier.__getitem__, members))))
        out.append(blocks or [([root], 0)])
    return out


def _gallai_block(size: int, edges: int) -> bool:
    """True iff a block with this many vertices and edges is a clique or an
    odd cycle: a 2-connected block with as many edges as vertices is a
    cycle, and blocks are induced."""
    return edges == size * (size - 1) // 2 or (size % 2 == 1 and edges == size)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks in closing order of one Hopcroft-Tarjan pass from every vertex
    in turn, and the cut vertices: those lying in at least 2 blocks.

    Isolated vertices form singleton blocks; bridges form 2-vertex blocks.
    """
    blocks = [frozenset(vs) for comp in _blocks(g, range(g.n)) for vs, _ in comp]
    count = Counter(v for b in blocks for v in b)
    return BlockDecomposition(tuple(blocks), frozenset(v for v, c in count.items() if c >= 2))


def _anchor_blocks(
    g: Graph, comps: Sequence[Iterable[int]]
) -> list[Optional[frozenset[int]]]:
    """For each given component, the first block in decomposition order
    with the least minimum vertex among its blocks that are neither a
    clique nor an odd cycle, or None when there is no such block: a
    connected graph is a Gallai tree exactly then.  One pass, from the
    least vertex of each component, serves every component."""
    anchors = [
        min((vs for vs, m in blocks if not _gallai_block(len(vs), m)), key=min, default=None)
        for blocks in _blocks(g, [min(comp) for comp in comps])
    ]
    return [None if vs is None else frozenset(vs) for vs in anchors]


def is_gallai_tree(g: Graph, component: Iterable[int]) -> bool:
    """True iff every block of the (connected) component induces a clique or
    an odd cycle.  Single edges count as cliques."""
    comp = frozenset(component)
    if not comp:
        raise NotAComponent("empty vertex set is not a component")
    _check_vertices(g, comp)
    [blocks] = _blocks(g, [min(comp)])
    if {v for vs, _ in blocks for v in vs} != comp:
        raise NotAComponent(f"{sorted(comp)} is not a connected component")
    return all(_gallai_block(len(vs), m) for vs, m in blocks)


def contains_clique(g: Graph, q: int) -> bool:
    """True iff some q vertices are pairwise adjacent.

    Neighborhood-restricted branch and bound; fine for q up to around the
    max degree plus one.  Only vertices of degree >= q - 1 can lie in a
    q-clique, and each clique is found from its least vertex, whose later
    candidates are its larger neighbors: setting up the branches costs
    O(n + m), not a test of every pair of vertices.
    """
    if q < 1:
        raise OutOfRange(f"clique size must be >= 1, got {q}")
    if q == 1:
        return g.n >= 1
    if q == 2:
        return g.edge_count >= 1
    adj, degrees = g.adj, g.degrees

    def extend(size: int, candidates: list[int]) -> bool:
        if size == q:
            return True
        if size + len(candidates) < q:
            return False
        for i, v in enumerate(candidates):
            if extend(size + 1, [w for w in candidates[i + 1:] if w in adj[v]]):
                return True
        return False

    return any(
        degrees[v] >= q - 1
        and extend(1, [w for w in adj[v] if w > v and degrees[w] >= q - 1])
        for v in range(g.n)
    )


def average_degree(g: Graph) -> Fraction:
    """Exact average degree 2|E|/|V|."""
    if g.n == 0:
        raise EmptyGraph("average degree of the empty graph is undefined")
    return Fraction(2 * g.edge_count, g.n)
