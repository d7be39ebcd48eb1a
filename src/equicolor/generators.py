"""Seeded instance generators.  The same spec always yields the same graph."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

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
        stubs = list(range(n)) * d
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        it = iter(stubs)
        for u, v in zip(it, it):
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return build_graph(n, sorted(edges))
    raise InfeasibleParameters(
        f"regular:n={n},d={d} drew no simple pairing in {REGULAR_ATTEMPTS} attempts"
        " (about one pairing in exp((d*d-1)/4) is simple: a d=6 spec fails at"
        " about 1% of seeds, a d>=7 spec at most)"
    )


def _gnp(params: dict, rng: random.Random) -> Graph:
    n = _param(params, "n")
    p = _param(params, "p", float)
    if not 0 <= p <= 1:
        raise InfeasibleParameters(f"p must be in [0, 1], got {p}")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


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
    return build_graph(rows * cols, sorted(set(
        (min(a, b), max(a, b)) for a, b in edges
    )))


def _bipartite(params: dict, rng: random.Random) -> Graph:
    n1, n2 = _param(params, "n1"), _param(params, "n2")
    p = _param(params, "p", float)
    if n1 < 0 or n2 < 0 or not 0 <= p <= 1:
        raise InfeasibleParameters(
            f"need n1, n2 >= 0 and p in [0, 1], got n1={n1}, n2={n2}, p={p}"
        )
    edges = [
        (u, n1 + v) for u in range(n1) for v in range(n2) if rng.random() < p
    ]
    return build_graph(n1 + n2, edges)


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
        if rng.random() < 0.5 and remaining >= 4:
            size = rng.choice([s for s in (3, 5, 7) if s - 1 <= remaining])
            fresh = list(range(used, used + size - 1))
            cycle = [root] + fresh
            for i in range(size):
                a, b = cycle[i], cycle[(i + 1) % size]
                edges.append((min(a, b), max(a, b)))
        else:
            size = rng.randint(2, min(4, remaining + 1))
            fresh = list(range(used, used + size - 1))
            block = [root] + fresh
            for i in range(len(block)):
                for j in range(i + 1, len(block)):
                    a, b = block[i], block[j]
                    edges.append((min(a, b), max(a, b)))
        used += len(fresh)
        attachment.extend(fresh)
    return build_graph(n, sorted(set(edges)))


def _hub(params: dict, rng: random.Random) -> Graph:
    """Sparse hub graph: max degree exactly delta, average degree at most
    target_avg."""
    n, delta = _param(params, "n"), _param(params, "delta")
    target = _param(params, "target_avg", Fraction, Fraction(delta, 5))
    if not 1 <= delta < n:
        raise InfeasibleParameters(f"need 1 <= delta < n, got delta={delta}, n={n}")
    max_edges = int(Fraction(n) * target / 2)
    if max_edges < delta:
        raise InfeasibleParameters(
            f"edge budget {max_edges} cannot host a degree-{delta} hub"
        )
    num_hubs = max(1, int(Fraction(2 * max_edges, 3) / delta))
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
    g = build_graph(n, sorted(edge_set))
    assert g.max_degree == delta
    assert Fraction(2 * g.edge_count, n) <= target
    return g
