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
"""

from __future__ import annotations

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
        """Return (subgraph, mapping) where mapping[new_id] = old_id."""
        keep = sorted(set(vertices))
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
    seen = [False] * g.n
    out: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.adjacency(v):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
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


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Iterative Hopcroft-Tarjan articulation point / biconnected component search.

    Isolated vertices form singleton blocks; bridges form 2-vertex blocks.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    blocks: list[frozenset[int]] = []
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        if g.degree(root) == 0:
            blocks.append(frozenset((root,)))
            disc[root] = timer
            timer += 1
            continue
        edge_stack: list[tuple[int, int]] = []
        disc[root] = low[root] = timer
        timer += 1
        # frames: (vertex, parent, next adjacency index)
        stack = [(root, -1, 0)]
        while stack:
            v, parent, i = stack.pop()
            nbrs = g.adjacency(v)
            advanced = False
            while i < len(nbrs):
                w = nbrs[i]
                i += 1
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((v, parent, i))
                    stack.append((w, v, 0))
                    advanced = True
                    break
                elif w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            # v finished: every tree edge (parent, v) with low[v] >= disc[parent]
            # closes one biconnected component
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    members: set[int] = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (parent, v):
                            break
                    blocks.append(frozenset(members))
    # a vertex is a cut vertex iff it lies in at least 2 blocks
    count: dict[int, int] = {}
    for b in blocks:
        for v in b:
            count[v] = count.get(v, 0) + 1
    cuts = frozenset(v for v, c in count.items() if c >= 2)
    return BlockDecomposition(tuple(blocks), cuts)


def _block_is_clique(g: Graph, block: frozenset[int]) -> bool:
    m = sum(1 for v in block for w in g.adjacency(v) if w in block and w > v)
    s = len(block)
    return m == s * (s - 1) // 2


def _block_is_odd_cycle(g: Graph, block: frozenset[int]) -> bool:
    s = len(block)
    if s < 3 or s % 2 == 0:
        return False
    return all(sum(1 for w in g.adjacency(v) if w in block) == 2 for v in block)


def _anchor_blocks(
    g: Graph, comps: Sequence[Iterable[int]]
) -> list[Optional[frozenset[int]]]:
    """For each given component, the first block in decomposition order
    with the least minimum vertex among its blocks that are neither a
    clique nor an odd cycle, or None when there is no such block: a
    connected graph is a Gallai tree exactly then.  One decomposition
    serves every component."""
    if not comps:
        return []
    index = {v: i for i, comp in enumerate(comps) for v in comp}
    best: list[Optional[frozenset[int]]] = [None] * len(comps)
    for b in block_decomposition(g).blocks:
        i = index.get(min(b))
        if i is None or _block_is_clique(g, b) or _block_is_odd_cycle(g, b):
            continue
        if best[i] is None or min(b) < min(best[i]):
            best[i] = b
    return best


def is_gallai_tree(g: Graph, component: Iterable[int]) -> bool:
    """True iff every block of the (connected) component induces a clique or
    an odd cycle.  Single edges count as cliques."""
    comp = frozenset(component)
    if not comp:
        raise NotAComponent("empty vertex set is not a component")
    _check_vertices(g, comp)
    if component_of(g, min(comp)) != comp:
        raise NotAComponent(f"{sorted(comp)} is not a connected component")
    sub, _ = g.induced_subgraph(comp)
    return _anchor_blocks(sub, [range(sub.n)]) == [None]


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
