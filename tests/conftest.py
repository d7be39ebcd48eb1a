import random
from fractions import Fraction
from heapq import heappush

import pytest

from equicolor import (
    InstanceSpec,
    ListAssignment,
    PartialColoring,
    RecoloringMove,
    build_graph,
    find_improving_move,
    generate,
    generators,
    greedy_extend_full,
    select_separated_batch,
)
from equicolor.distributions import witness_colors
from equicolor.dynamics import (
    _pattern1_moves,
    is_acceptable,
    move_deltas,
)
from equicolor.errors import (
    DuplicateEdge,
    InfeasibleParameters,
    NotSeparated,
    OutOfRange,
    SelfLoop,
    UnacceptableMove,
)
from equicolor.graphs import BlockDecomposition, Graph


def reference_build_graph(n, edges):
    """The set-based builder: each edge is checked in input order, and a
    set of normalised keys rejects the first repeated pair."""
    if n < 0:
        raise OutOfRange(f"vertex count must be nonnegative, got {n}")
    adj = [[] for _ in range(n)]
    seen = set()
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise OutOfRange(f"edge ({u}, {v}) outside vertex range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, adj)


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def bowtie():
    return build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n, p, seed):
    return generate(InstanceSpec("gnp", {"n": n, "p": p}, seed))


def reference_regular(params, rng):
    """The pairing generator as `random.shuffle` of the stubs and a scan of
    consecutive pairs, at most `generators.REGULAR_ATTEMPTS` times."""
    n, d = generators._param(params, "n"), generators._param(params, "d")
    if n * d % 2 != 0 or not 0 <= d < n:
        raise InfeasibleParameters(f"no {d}-regular graph on {n} vertices")
    if d == 0:
        return build_graph(n, [])
    for _ in range(generators.REGULAR_ATTEMPTS):
        stubs = list(range(n)) * d
        rng.shuffle(stubs)
        edges = set()
        ok = True
        it = iter(stubs)
        for u, v in zip(it, it):
            key = (u, v) if u < v else (v, u)
            if u == v or key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return build_graph(n, sorted(edges))
    raise InfeasibleParameters(f"regular:n={n},d={d} drew no simple pairing")


def reference_gnp(params, rng):
    """G(n, p) with one `rng.random() < p` per pair u < v in order."""
    n, p = generators._param(params, "n"), generators._param(params, "p", float)
    return build_graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ])


def reference_bipartite(params, rng):
    """The random bipartite graph with one `rng.random() < p` per pair
    (u, n1 + v) in order."""
    n1, n2 = generators._param(params, "n1"), generators._param(params, "n2")
    p = generators._param(params, "p", float)
    return build_graph(n1 + n2, [
        (u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < p
    ])


def random_partial_list_coloring(g, lists, k, rng, density=0.5):
    """Proper partial coloring within the lists, seeded: each vertex, with
    probability density, takes `rng.choice` of its sorted free list colors
    below k, if any."""
    seed = PartialColoring(g.n, k)
    getrandbits = rng.getrandbits
    for v in range(g.n):
        if rng.random() < density:
            taken = {seed.get(w) for w in g.adjacency(v)}
            options = sorted(c for c in lists[v] if c < k and c not in taken)
            if options:
                bits = len(options).bit_length()
                j = getrandbits(bits)
                while j >= len(options):
                    j = getrandbits(bits)
                seed.assign(v, options[j])
    return seed


def random_degree_lists(g, rng, extra_max=2, spread=2):
    """Seeded degree-list assignment (every list at least the degree): each
    vertex takes `rng.sample(range(top), min(top, degree +
    rng.randint(0, extra_max)))`, drawn inline on the same stream.  Needs
    top <= 21, where `sample` draws from a pool."""
    top = g.max_degree + extra_max + spread
    assert top <= 21, "rng.sample draws from a set above 21 colors"
    getrandbits = rng.getrandbits
    extra_bits = (extra_max + 1).bit_length()
    lists = []
    for v in range(g.n):
        extra = getrandbits(extra_bits)
        while extra > extra_max:
            extra = getrandbits(extra_bits)
        size = min(top, g.degree(v) + extra)
        pool = list(range(top))
        picked = []
        for rest in range(top, top - size, -1):
            bits = rest.bit_length()
            j = getrandbits(bits)
            while j >= rest:
                j = getrandbits(bits)
            picked.append(pool[j])
            pool[j] = pool[rest - 1]
        lists.append(picked)
    return ListAssignment.of(lists)


def tight_seed(g):
    """Greedy (max degree + 1)-coloring with its largest class removed
    (ties: the smallest color), relabelled onto max degree colors."""
    k = g.max_degree
    full = greedy_extend_full(g, k + 1).as_list()
    drop = max(range(k + 1), key=lambda c: (full.count(c), -c))
    return PartialColoring(g.n, k, [None if c == drop else c - (c > drop) for c in full])


def reference_round(g, f, batch):
    """The rescan round: the first pattern-1 move (x, alpha) in scan order,
    then the smallest vertices of class beta = f(x) with no alpha-neighbor,
    one of them in serial mode and (c[beta] - c[alpha]) // 2 in batch
    mode, each moved to alpha, as a separated batch.  None when no
    pattern-1 move exists."""
    first = next(_pattern1_moves(g, f), None)
    if first is None:
        return None
    (x, alpha), = first.assignments
    beta = f.get(x)
    counts = f.counts()
    cap = (counts[beta] - counts[alpha]) // 2 if batch else 1
    movable = [
        y for y in range(g.n)
        if f.get(y) == beta and all(f.get(w) != alpha for w in g.adjacency(y))
    ]
    return select_separated_batch(
        g, f, [RecoloringMove(((y, alpha),)) for y in movable[:cap]]
    )


def reference_monotone_prefix(g, f, batch):
    """The full prefix walk: check every move of the separated batch against
    f, then test every prefix and keep the last one whose counts stay weakly
    more equitable.  Return the new coloring and the prefix length."""
    seen = set()
    for mv in batch.moves:
        if not is_acceptable(g, f, mv):
            raise UnacceptableMove(f"move on {mv.domain} breaks properness")
        for v in mv.domain:
            if v in seen or any(w in seen for w in g.adjacency(v)):
                raise NotSeparated(f"move domains meet at vertex {v}")
        seen.update(mv.domain)
    before = f.counts()
    counts = list(before)
    best = 0
    for t, mv in enumerate(batch.moves, start=1):
        for c, d in enumerate(move_deltas(f, mv)):
            counts[c] += d
        diffs = [c - b for c, b in zip(counts, before)]
        if not any(diffs) or witness_colors(before, counts):
            best = t
    out = f.copy()
    for mv in batch.moves[:best]:
        for v, c in mv.assignments:
            out.assign(v, c)
    return out, best


def _balance_order(g, frozen, aux):
    """The unfrozen vertices in (aux class, vertex) order."""
    return [
        y for r in range(aux.k) for y in range(g.n)
        if aux.get(y) == r and y not in frozen
    ]


def _free_colors(g, f, y):
    return [
        a for a in range(f.k) if a != f.get(y)
        and all(f.get(w) != a for w in g.adjacency(y))
    ]


def reference_direct_pass(g, f, frozen, aux):
    """The scan balancer's direct pass.  Targets: with the classes sorted by
    (-count, color), the first n mod k get ceil(n/k) and the rest
    floor(n/k).  The pass visits the unfrozen vertices in (aux class,
    vertex) order and moves each vertex of a class above its target to the
    free color furthest below its target, the smallest on a tie, rescanning
    its neighbors."""
    out = f.copy()
    k = out.k
    counts = out.counts()
    ranked = sorted(range(k), key=lambda c: (-counts[c], c))
    target = {c: g.n // k + (i < g.n % k) for i, c in enumerate(ranked)}
    for y in _balance_order(g, frozenset(frozen), aux):
        beta = out.get(y)
        if out.count_of(beta) <= target[beta]:
            continue
        free = [a for a in _free_colors(g, out, y) if out.count_of(a) < target[a]]
        if free:
            alpha = min(free, key=lambda a: (out.count_of(a) - target[a], a))
            out.assign(y, alpha)
    return out


def reference_quick_balance(g, f, frozen, aux):
    """The scan balancer: `reference_direct_pass`, then, while classes
    differ by 2 or more, passes in the same order move every vertex whose
    least-count free color (the smallest on a tie) is at least 2 smaller
    than its class into it, until a pass moves nothing.  Each move must
    drop the pairwise-difference potential by at least 2."""
    out = reference_direct_pass(g, f, frozen, aux)
    order = _balance_order(g, frozenset(frozen), aux)

    def potential(cs):
        return sum(abs(a - b) for i, a in enumerate(cs) for b in cs[i + 1:])

    while out.gap() >= 2:
        moved = 0
        for y in order:
            beta = out.get(y)
            free = _free_colors(g, out, y)
            if not free:
                continue
            alpha = min(free, key=lambda a: (out.count_of(a), a))
            if out.count_of(beta) - out.count_of(alpha) < 2:
                continue
            before = potential(out.counts())
            out.assign(y, alpha)
            assert 2 <= before - potential(out.counts())
            moved += 1
        if moved == 0:
            return out
    return out


def replay_trace(g, k, f, trace, batch):
    """Replay a driver trace from the greedy start.  Every round is
    `reference_round` cut by `reference_monotone_prefix`, which must apply
    all of it; when there is no round, the step is the move the stateless
    search picks on the replayed coloring.  Each record's l1 step and
    cumulative l1, and the ledger's steps and cumulative, must equal the
    Fractions recomputed from consecutive counts."""
    replay = greedy_extend_full(g, k)
    assert replay.counts() == trace.initial_counts
    ledger = trace.ledger.to_json_dict()
    assert len(ledger["steps"]) == len(trace.records)
    cumulative = Fraction(0)
    for rec, step in zip(trace.records, ledger["steps"]):
        ref = reference_round(g, replay, batch)
        if ref is not None:
            out, applied = reference_monotone_prefix(g, replay, ref)
            assert applied == ref.size
            assert rec.kind == ("batch" if batch else "move")
            changed = [v for mv in ref.moves for v, _ in mv.assignments]
            assert rec.vertices == tuple(changed)
            assert rec.new_colors == tuple(out.get(v) for v in changed)
        else:
            assert rec.kind == "move"
            move = find_improving_move(g, replay)
            assert move == RecoloringMove(tuple(zip(rec.vertices, rec.new_colors)))
        before = replay.counts()
        for v, c in zip(rec.vertices, rec.new_colors):
            replay.assign(v, c)
        assert replay.counts() == rec.counts
        l1 = Fraction(sum(abs(a - b) for a, b in zip(rec.counts, before)), g.n)
        cumulative += l1
        assert (rec.l1, rec.cumulative) == (l1, cumulative)
        assert (step["l1"], step["witness"]) == (str(l1), rec.witness)
    assert ledger["cumulative"] == str(cumulative)
    assert replay == f


@pytest.fixture
def rng():
    return random.Random(20260809)


def reference_greedy_fill(g, lists, f, vertices):
    """The comprehension-plus-min first fit: in place, each uncolored
    vertex in the given order takes the least of its list colors that no
    neighbor has."""
    for v in vertices:
        if f.is_assigned(v):
            continue
        taken = {f.get(w) for w in g.adjacency(v)}
        free = [c for c in lists[v] if c not in taken]
        if free:
            f.assign(v, min(free))


def reference_pattern1_index(g, f):
    """The neighbor-color counts and the heaps of a pattern-1 index over a
    total coloring, each heap built by heappush in vertex order:
    heaps[alpha][beta] holds each vertex of class beta with no
    alpha-neighbor."""
    k = f.k
    nbr = [0] * (g.n * k)
    for v in range(g.n):
        for w in g.adjacency(v):
            nbr[v * k + f.get(w)] += 1
    heaps = [[[] for _ in range(k)] for _ in range(k)]
    for v in range(g.n):
        beta = f.get(v)
        for alpha in range(k):
            if alpha != beta and nbr[v * k + alpha] == 0:
                heappush(heaps[alpha][beta], v)
    return nbr, heaps


def reference_block_decomposition(g):
    """The edge-stack Hopcroft-Tarjan search: blocks in closing order, each
    a frozenset built from the popped edges, isolated vertices as singleton
    blocks, and cut vertices as those lying in at least 2 blocks."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    blocks = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        if g.degree(root) == 0:
            blocks.append(frozenset((root,)))
            disc[root] = timer
            timer += 1
            continue
        edge_stack = []
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
            if parent != -1:
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    members = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        members.add(a)
                        members.add(b)
                        if (a, b) == (parent, v):
                            break
                    blocks.append(frozenset(members))
    count = {}
    for b in blocks:
        for v in b:
            count[v] = count.get(v, 0) + 1
    cuts = frozenset(v for v, c in count.items() if c >= 2)
    return BlockDecomposition(tuple(blocks), cuts)


def reference_block_is_clique(g, block):
    m = sum(1 for v in block for w in g.adjacency(v) if w in block and w > v)
    s = len(block)
    return m == s * (s - 1) // 2


def reference_block_is_odd_cycle(g, block):
    s = len(block)
    if s < 3 or s % 2 == 0:
        return False
    return all(sum(1 for w in g.adjacency(v) if w in block) == 2 for v in block)
