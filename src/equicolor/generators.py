"""Seeded instance generators.  The same spec always yields the same graph."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress, repeat

from .errors import InfeasibleParameters, ParseError
from .graphs import Graph, build_graph


@dataclass(frozen=True)
class InstanceSpec:
    name: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "InstanceSpec":
        """Parse "name:key=val,key=val" (values int, fraction p/q, or float)."""
        name, _, rest = text.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                key, _, raw = item.partition("=")
                params[key.strip()] = _parse_value(raw.strip())
        return cls(name.strip(), params, seed)


def _parse_value(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        if "/" in raw:
            num, _, den = raw.partition("/")
            return Fraction(int(num), int(den))
        return float(raw)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"parameter value {raw!r} is not an int, p/q or float") from None


def _param(params: dict, key: str, kind=int, default=None):
    """The named parameter, or the default, as a finite number of the given
    kind (int, float or Fraction); InfeasibleParameters if there is none."""
    raw = params.get(key, default)
    if raw is None:
        raise InfeasibleParameters(f"missing parameter {key!r}")
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or (kind is int and value != raw):
        raise InfeasibleParameters(f"parameter {key}={raw!r} is not of type {kind.__name__}")
    return value


def generate(spec: InstanceSpec) -> Graph:
    # each generator with the parameter keys it reads
    makers = {
        "regular": (_regular, ("n", "d")),
        "gnp": (_gnp, ("n", "p")),
        "torus": (_torus, ("rows", "cols")),
        "bipartite": (_bipartite, ("n1", "n2", "p")),
        "gallai_tree": (_gallai_tree, ("n",)),
        "hub": (_hub, ("n", "delta", "target_avg")),
    }
    if spec.name not in makers:
        raise InfeasibleParameters(
            f"unknown generator {spec.name!r}; choose from {sorted(makers)}"
        )
    maker, keys = makers[spec.name]
    unread = sorted(set(spec.params) - set(keys))
    if unread:
        raise InfeasibleParameters(
            f"{spec.name} does not read parameter {unread[0]!r}; it reads {', '.join(keys)}"
        )
    return maker(spec.params, random.Random(spec.seed))


# Pairing attempts before `_regular` gives up.  The largest count of any
# regular spec the tests and benchmark corpora draw was 5,372 (n=10, d=5);
# the acceptance rate is about exp(-(d*d-1)/4), and measured 1/2,400 at its
# worst for d <= 5 (n=6, d=5: K6), so such a spec exceeds the cap with
# probability below exp(-12).  A d=6 spec (about 1/6,300) exceeds it at
# about 1% of seeds and a d>=7 spec (1/160,000 or less) at most.
REGULAR_ATTEMPTS = 30_000


def _regular(params: dict, rng: random.Random) -> Graph:
    """Random d-regular graph via the pairing model with rejection, giving
    up after REGULAR_ATTEMPTS pairings."""
    n, d = _param(params, "n"), _param(params, "d")
    if n * d % 2 != 0:
        raise InfeasibleParameters(f"n*d = {n * d} must be even")
    if not 0 <= d < n:
        raise InfeasibleParameters(f"need 0 <= d < n, got d={d}, n={n}")
    if d == 0:
        return build_graph(n, [])
    for _ in range(REGULAR_ATTEMPTS):
        edges = _pairing(n, d, rng.getrandbits)
        if edges is not None:
            return build_graph(n, edges)
    raise InfeasibleParameters(
        f"regular:n={n},d={d} drew no simple pairing in {REGULAR_ATTEMPTS} attempts"
        " (about one pairing in exp((d*d-1)/4) is simple: a d=6 spec fails at"
        " about 1% of seeds, a d>=7 spec at most)"
    )


def _pairing(n: int, d: int, getrandbits) -> list[tuple[int, int]] | None:
    """One pairing: `random.shuffle` of the stubs `list(range(n)) * d`, then
    stubs 2t and 2t+1 form a pair.  The pairs, in that order, or None at a
    loop or a repeated pair.

    The shuffle's draws are inlined: position i, from the last down to 1,
    swaps with `_randbelow(i + 1)`, which is `getrandbits(k)` for the bit
    count k of i + 1, redrawn while above i.  Position 2t is final once it
    is drawn, so pair t is checked then.  After a bad pair the swaps stop
    but every remaining draw is still made, so the next pairing starts
    from the same generator state as after a full shuffle."""
    stubs = list(range(n)) * d
    keys: set[int] = set()     # u * n + v for each pair u < v
    for k, hi, lo in _draw_groups(len(stubs) - 1):
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            u = stubs[j]
            stubs[j] = stubs[i]
            stubs[i] = u
            if i & 1:
                continue
            v = stubs[i + 1]
            key = u * n + v if u < v else v * n + u
            if u == v or key in keys:
                _skip_draws(i - 1, getrandbits)
                return None
            keys.add(key)
    u, v = stubs[0], stubs[1]
    if u == v or (u * n + v if u < v else v * n + u) in keys:
        return None
    # tuples of the stubs' own ints: the graph keeps one int object per
    # vertex, not two new ones per edge
    return list(zip(stubs[::2], stubs[1::2]))


def _skip_draws(top: int, getrandbits) -> None:
    """Make the shuffle's draws for positions top, ..., 1 and drop them."""
    for k, hi, lo in _draw_groups(top):
        for i in range(hi, lo - 1, -1):
            while getrandbits(k) > i:
                pass


def _draw_groups(top: int):
    """The shuffle positions top, ..., 1 as (k, hi, lo): the runs hi down
    to lo whose i + 1 has bit count k."""
    for k in range((top + 1).bit_length(), 1, -1):
        yield k, min(top, (1 << k) - 2), (1 << (k - 1)) - 1


def _gnp(params: dict, rng: random.Random) -> Graph:
    n = _param(params, "n")
    p = _param(params, "p", float)
    if not 0 <= p <= 1:
        raise InfeasibleParameters(f"p must be in [0, 1], got {p}")
    vertices = list(range(n))
    return build_graph(n, _coin_edges(
        rng, p, ((u, vertices[u + 1:]) for u in range(n))
    ))


def _torus(params: dict, rng: random.Random) -> Graph:
    rows, cols = _param(params, "rows"), _param(params, "cols")
    if rows < 3 or cols < 3:
        raise InfeasibleParameters("torus needs rows, cols >= 3 to stay simple")
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            edges.append((vid(r, c), vid(r, (c + 1) % cols)))
            edges.append((vid(r, c), vid((r + 1) % rows, c)))
    return build_graph(rows * cols, edges)


def _bipartite(params: dict, rng: random.Random) -> Graph:
    n1, n2 = _param(params, "n1"), _param(params, "n2")
    p = _param(params, "p", float)
    if n1 < 0 or n2 < 0 or not 0 <= p <= 1:
        raise InfeasibleParameters(
            f"need n1, n2 >= 0 and p in [0, 1], got n1={n1}, n2={n2}, p={p}"
        )
    right = list(range(n1, n1 + n2))
    return build_graph(n1 + n2, _coin_edges(rng, p, ((u, right) for u in range(n1))))


def _coin_edges(rng: random.Random, p: float, rows) -> list[tuple[int, int]]:
    """The edges (u, v), for each row (u, vs) in turn and v in vs, for
    which `rng.random() < p`: the same edges and generator state as that
    loop.

    A row draws its words at once: `getrandbits(64 * m)` in little-endian
    bytes holds, word pair by word pair, the words a and b of m calls to
    `random()`, which returns x / 2**53 with x = (a >> 5) * 2**26 + (b >> 6).
    So `random() < p` exactly when x < threshold = ceil(p * 2**53).  The
    top byte of a is x >> 45: below threshold >> 45 the pair is an edge,
    above it not, and on a tie x is compared in full."""
    threshold = math.ceil(p * 2**53)
    tie = threshold >> 45
    table = bytes(1 if c < tie else 2 if c == tie else 0 for c in range(256))
    getrandbits = rng.getrandbits
    edges: list[tuple[int, int]] = []
    for u, vs in rows:
        m = len(vs)
        words = getrandbits(64 * m).to_bytes(8 * m, "little")
        flags = bytearray(words[3::8].translate(table))
        t = flags.find(2)
        while t >= 0:
            w = int.from_bytes(words[8 * t:8 * t + 8], "little")
            flags[t] = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < threshold
            t = flags.find(2, t + 1)
        edges.extend(zip(repeat(u), compress(vs, flags)))
    return edges


def _gallai_tree(params: dict, rng: random.Random) -> Graph:
    """Random block-cut composition of cliques and odd cycles (for negative
    tests: every block is a clique or odd cycle)."""
    n = _param(params, "n")
    if n < 1:
        raise InfeasibleParameters("need n >= 1")
    edges: list[tuple[int, int]] = []
    used = 1
    attachment = [0]
    while used < n:
        root = rng.choice(attachment)
        remaining = n - used
        odd_cycle = rng.random() < 0.5 and remaining >= 4
        if odd_cycle:
            size = rng.choice([s for s in (3, 5, 7) if s - 1 <= remaining])
        else:
            size = rng.randint(2, min(4, remaining + 1))
        fresh = list(range(used, used + size - 1))
        block = [root] + fresh
        # a cycle joins consecutive members, a clique every pair
        edges.extend(zip(block, fresh + [root]) if odd_cycle else combinations(block, 2))
        used += len(fresh)
        attachment.extend(fresh)
    return build_graph(n, edges)


def _hub(params: dict, rng: random.Random) -> Graph:
    """Sparse hub graph: max degree exactly delta, average degree at most
    target_avg."""
    n, delta = _param(params, "n"), _param(params, "delta")
    target = _param(params, "target_avg", Fraction, Fraction(delta, 5))
    # spokes are capped at delta - 1, so a hub needs delta >= 2
    if not 2 <= delta < n:
        raise InfeasibleParameters(f"need 2 <= delta < n, got delta={delta}, n={n}")
    max_edges = int(Fraction(n) * target / 2)
    if max_edges < delta:
        raise InfeasibleParameters(
            f"edge budget {max_edges} cannot host a degree-{delta} hub"
        )
    num_hubs = max(1, int(Fraction(2 * max_edges, 3) / delta))
    if n - num_hubs < delta:
        # a hub draws its delta distinct neighbors from the spokes only
        raise InfeasibleParameters(
            f"{num_hubs} hubs of degree {delta} need n >= {num_hubs + delta}, got n={n}"
        )
    capacity = (n - num_hubs) * (delta - 1)
    if num_hubs * delta > capacity:
        # the hubs' edges all end at spokes, each of degree at most delta - 1
        raise InfeasibleParameters(
            f"{num_hubs} hubs of degree {delta} need {num_hubs * delta} spoke edges, "
            f"but the spokes take at most {capacity}"
        )
    degree = [0] * n
    edge_set: set[tuple[int, int]] = set()

    def try_add(a: int, b: int, cap_a: int, cap_b: int) -> bool:
        if a == b or degree[a] >= cap_a or degree[b] >= cap_b:
            return False
        key = (a, b) if a < b else (b, a)
        if key in edge_set:
            return False
        edge_set.add(key)
        degree[a] += 1
        degree[b] += 1
        return True

    hubs = list(range(num_hubs))
    spokes = list(range(num_hubs, n))
    for h in hubs:
        tries = 0
        while degree[h] < delta:
            s = rng.choice(spokes)
            try_add(h, s, delta, delta - 1)
            tries += 1
            if tries > 50 * n:
                raise InfeasibleParameters("could not complete hub degrees")
    while len(edge_set) < max_edges:
        a, b = rng.choice(spokes), rng.choice(spokes)
        if not try_add(a, b, delta - 1, delta - 1):
            if rng.random() < 0.01:
                break
    g = build_graph(n, edge_set)
    assert g.max_degree == delta
    assert Fraction(2 * g.edge_count, n) <= target
    return g
