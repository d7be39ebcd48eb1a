"""The generators draw the standard library's random stream bit for bit.

`regular`, `gnp` and `bipartite` draw their words in bulk or with inlined
rejection, and must give the graphs and the final generator state of the
plain loops kept in `conftest` as references.  The benchmark's inputs are
pinned by one hash, so a drift in any generator's stream fails loudly.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equicolor import generators
from equicolor.errors import InfeasibleParameters

from conftest import reference_bipartite, reference_gnp, reference_regular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one SHA-256 over [n, edges] of every graph the four benchmark workloads
# solve, at seed 1 and at the held-out seed 9173011, in corpus order
BENCHMARK_GRAPHS_SHA256 = "ebcf8443621cd5c6eac5c30da33c83649f6c0dbb6316b5dc2aa193b912d49a21"


def same_stream(maker, reference, params, seed):
    """The generator's edges, or InfeasibleParameters if it raises, after
    checking that its reference, each on its own `Random(seed)`, gives the
    same and leaves the same generator state."""
    runs = []
    for make in (maker, reference):
        rng = random.Random(seed)
        try:
            edges = make(params, rng).edges()
        except InfeasibleParameters:
            edges = InfeasibleParameters
        runs.append((edges, rng.getstate()))
    assert runs[0] == runs[1], params
    return runs[0][0]


# "3/n" stands for 3 / n, the density of the sparse corpora
COIN = st.one_of(st.sampled_from([0.0, 1e-9, "3/n", 0.5, 0.9, 1.0]), st.floats(0, 1))


def coin(p, n):
    return 3 / max(n, 3) if p == "3/n" else p


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 60), d=st.integers(0, 5), seed=st.integers(0, 2**32))
@example(n=6, d=5, seed=1)    # K6: about 2,400 rejected pairings per graph
@example(n=0, d=0, seed=0)
@example(n=1, d=0, seed=0)
@example(n=2, d=1, seed=3)
@example(n=60, d=5, seed=2)
def test_regular_draws_the_shuffle_stream(n, d, seed):
    same_stream(generators._regular, reference_regular, {"n": n, "d": d}, seed)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 60), p=COIN, seed=st.integers(0, 2**32))
@example(n=60, p="3/n", seed=1)
@example(n=40, p=0.9, seed=2)
def test_gnp_draws_the_random_stream(n, p, seed):
    same_stream(generators._gnp, reference_gnp, {"n": n, "p": coin(p, n)}, seed)


@settings(max_examples=200, deadline=None)
@given(n1=st.integers(0, 30), n2=st.integers(0, 30), p=COIN, seed=st.integers(0, 2**32))
@example(n1=0, n2=7, p=0.5, seed=1)
@example(n1=7, n2=0, p=0.5, seed=1)
def test_bipartite_draws_the_random_stream(n1, n2, p, seed):
    params = {"n1": n1, "n2": n2, "p": coin(p, n1 + n2)}
    same_stream(generators._bipartite, reference_bipartite, params, seed)


@pytest.mark.parametrize("n, d, seed", [(9, 8, 1), (6, 5, 1), (6, 5, 2), (10, 5, 7)])
def test_regular_attempt_cap_keeps_the_stream(monkeypatch, n, d, seed):
    # a spec that runs out of attempts leaves the generator where the
    # reference's last full shuffle leaves it
    monkeypatch.setattr(generators, "REGULAR_ATTEMPTS", 3)
    params = {"n": n, "d": d}
    assert same_stream(generators._regular, reference_regular, params, seed) is InfeasibleParameters


def test_benchmark_corpora_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    digest = hashlib.sha256()
    for workload in workloads.WORKLOADS.values():
        for seed in (1, 9173011):
            for inst in workload.corpus(seed):
                g = workloads.build(inst).graph
                digest.update(json.dumps([g.n, g.edges()]).encode())
    assert digest.hexdigest() == BENCHMARK_GRAPHS_SHA256
