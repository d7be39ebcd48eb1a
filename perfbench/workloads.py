"""The four benchmark workloads: corpus generation, the timed call into the
package, and the benchmark's own checks of every output.

A workload is a fixed corpus solved in a closed loop: one process, one
instance at a time, no threads.  Per-instance seeds derive from the workload
seed, so one seed always yields the same inputs.  The checks use only this
file's code and the input graph; they never call the package's own
verifiers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import equicolor as eq

# the driver's movement-budget parameter (DriverConfig.a_param, the paper's A)
LEDGER_A = 6

# Deadlines grow with the square of the instance size, because every engine
# is at most quadratic in equicolor 0.1.0; the per-family constant puts
# them at about 10x or more of the solve time measured there.  The floor keeps
# small instances from timing out on a loaded machine, the cap keeps a run
# inside its time limit.
MIN_DEADLINE_S = 2.0
MAX_DEADLINE_S = 30.0


@dataclass(frozen=True)
class Instance:
    family: str
    spec: str                  # generator spec, "name:key=val,..."
    seed: int
    deadline_c: float          # seconds per (n+m in thousands) squared
    cut: Optional[tuple[int, int]] = None   # edge deleted after generation
    pad: int = 0               # isolated vertices appended after generation


@dataclass
class Case:
    """A generated input, ready to solve."""

    inst: Instance
    graph: eq.Graph
    seed_coloring: Optional[eq.PartialColoring] = None
    seed_colors: Optional[list] = None

    @property
    def size(self) -> int:
        return self.graph.n + self.graph.edge_count

    @property
    def deadline_s(self) -> float:
        t = self.inst.deadline_c * (self.size / 1000) ** 2
        return min(MAX_DEADLINE_S, max(MIN_DEADLINE_S, t))


@dataclass
class Outcome:
    """Result of checking one output.  `problems` are broken guarantees of
    the coloring or the ledger; `claim_failures` are claims the pipeline's
    own report marks as failing."""

    problems: list[str] = field(default_factory=list)
    claim_failures: list[str] = field(default_factory=list)
    changed: int = 0           # vertices whose color differs from the start
    gap: int = 0               # max - min class size

    @property
    def ok(self) -> bool:
        return not self.problems and not self.claim_failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: Callable[[int], list[Instance]]
    solve: Callable[[Case], object]
    check: Callable[[Case, object], Outcome]


def derive_seed(seed: int, *parts) -> int:
    # str seeds hash with SHA-512, so this is stable across processes
    return random.Random("/".join(map(str, (seed,) + parts))).getrandbits(32)


def sqrt2_ladder(lo: int, count: int) -> list[int]:
    """Even sizes growing by sqrt(2) (cubic graphs need n even)."""
    return [2 * round(lo * 2 ** (i / 2) / 2) for i in range(count)]


# Driver sizes leave a remainder mod k, so every equitable output has gap
# exactly 1 and final_gap_mean does not jump with k dividing n or not:
# regular sizes are 2 mod 4 (cubic, k=4) and not multiples of 5 (4-regular,
# k=5); G(n, 3/n) sizes are primes, because k = max degree + 1 is random.
SERIAL_REGULAR = [706, 1002, 1414, 2002, 2826]
SERIAL_GNP = [709, 1009, 1409, 2003, 2819]


def build(inst: Instance) -> Case:
    g = eq.generate(eq.InstanceSpec.parse(inst.spec, inst.seed))
    if inst.cut is not None or inst.pad:
        edges = [e for e in g.edges() if e != inst.cut]
        g = eq.build_graph(g.n + inst.pad, edges)
    case = Case(inst, g)
    if inst.family.startswith("dominate"):
        case.seed_coloring = tight_seed(g)
        case.seed_colors = case.seed_coloring.as_list()
    return case


# ---------------------------------------------------------------------------
# reference computations, independent of the package


def greedy_colors(g: eq.Graph, k: int) -> list[int]:
    """First-fit coloring in vertex order: the driver's starting coloring."""
    colors: list[Optional[int]] = [None] * g.n
    for v in range(g.n):
        taken = {colors[w] for w in g.adjacency(v)}
        colors[v] = next(c for c in range(k) if c not in taken)
    return colors


def tight_seed(g: eq.Graph) -> eq.PartialColoring:
    """Greedy (max degree + 1)-coloring with its largest class removed
    (ties: the smallest color), relabelled onto max degree colors."""
    delta = g.max_degree
    colors = greedy_colors(g, delta + 1)
    counts = class_counts(colors, delta + 1)
    drop = max(range(delta + 1), key=lambda c: (counts[c], -c))
    seed = [None if c == drop else c - (c > drop) for c in colors]
    return eq.PartialColoring(g.n, delta, seed)


def class_counts(colors: list, k: int) -> list[int]:
    counts = [0] * k
    for c in colors:
        if c is not None:
            counts[c] += 1
    return counts


def coloring_problems(g: eq.Graph, colors: list, k: int) -> list[str]:
    """Total, inside the palette 0..k-1, and proper."""
    if len(colors) != g.n:
        return [f"coloring covers {len(colors)} vertices, graph has {g.n}"]
    for v, c in enumerate(colors):
        if c is None:
            return [f"vertex {v} uncolored"]
        if not (isinstance(c, int) and 0 <= c < k):
            return [f"vertex {v} has color {c!r} outside palette {k}"]
    for u, v in g.edges():
        if colors[u] == colors[v]:
            return [f"edge ({u}, {v}) monochromatic"]
    return []


def discrepancy(counts: list[int], n: int) -> Fraction:
    k = len(counts)
    return max(abs(Fraction(c, n) - Fraction(1, k)) for c in counts)


def ledger_problems(trace, n: int, k: int, final_counts: list[int]) -> list[str]:
    """Recompute each ledger segment's cumulative l1 movement from the
    recorded class counts and compare it, exactly, with the ledger and with
    the budget (1+A)^(k+1)/A times the segment's initial discrepancy."""
    problems: list[str] = []
    budget_factor = Fraction((1 + LEDGER_A) ** (k + 1), LEDGER_A)

    def close(index: int, start: list[int], cumulative: Fraction) -> None:
        if index >= len(trace.ledgers):
            problems.append(f"ledger segment {index} missing")
            return
        ledger = trace.ledgers[index]
        if ledger.cumulative != cumulative:
            problems.append(
                f"ledger {index} cumulative {ledger.cumulative} != recomputed {cumulative}"
            )
        if not ledger.cumulative <= ledger.bound():
            problems.append(f"ledger {index} exceeds its own bound")
        if not cumulative <= budget_factor * discrepancy(start, n):
            problems.append(f"ledger {index} movement {cumulative} exceeds the budget")

    index, cumulative = 0, Fraction(0)
    start = prev = list(trace.initial_counts)
    for record in trace.records:
        counts = list(record.counts)
        if record.kind == "restart":
            close(index, start, cumulative)
            index, start, prev, cumulative = index + 1, counts, counts, Fraction(0)
            continue
        cumulative += Fraction(sum(abs(a - b) for a, b in zip(counts, prev)), n)
        prev = counts
    close(index, start, cumulative)
    if len(trace.ledgers) != index + 1:
        problems.append(f"{len(trace.ledgers)} ledgers for {index + 1} segments")
    if prev != final_counts:
        problems.append("last recorded counts differ from the final coloring")
    return problems


# ---------------------------------------------------------------------------
# equitable-serial and equitable-batch


def driver_corpus(ladders: dict[str, list[int]], deadline_c: float):
    """One instance per listed size; a size listed twice gives two graphs."""
    specs = {
        "cubic": "regular:n={n},d=3",
        "quartic": "regular:n={n},d=4",
        "gnp": "gnp:n={n},p=3/{n}",
    }

    def corpus(seed: int) -> list[Instance]:
        return [
            Instance(family, specs[family].format(n=n),
                     derive_seed(seed, family, n, j), deadline_c)
            for family, ladder in ladders.items()
            for j, n in enumerate(ladder)
        ]
    return corpus


def _solve_driver(batch: bool):
    config = eq.DriverConfig(batch_mode=batch)

    def solve(case: Case):
        g = case.graph
        return eq.equitable_k_coloring(g, g.max_degree + 1, config=config)
    return solve


def check_equitable(case: Case, out) -> Outcome:
    f, trace = out
    g = case.graph
    k = g.max_degree + 1
    colors = f.as_list()
    problems = coloring_problems(g, colors, k)
    if f.k != k:
        problems.append(f"palette {f.k}, expected {k}")
    if problems:
        return Outcome(problems)
    counts = class_counts(colors, k)
    gap = max(counts) - min(counts)
    if gap > 1:
        problems.append(f"class gap {gap} > 1")
    problems += ledger_problems(trace, g.n, k, counts)
    start = greedy_colors(g, k)
    if class_counts(start, k) != list(trace.initial_counts):
        problems.append("driver did not start from the greedy coloring")
    changed = sum(1 for a, b in zip(colors, start) if a != b)
    if trace.restarts == 0:
        disc0 = discrepancy(class_counts(start, k), g.n)
        if not Fraction(changed, g.n) <= Fraction((1 + LEDGER_A) ** (k + 1), 2) * disc0:
            problems.append(f"recolored {changed} of {g.n} exceeds the stability bound")
    return Outcome(problems, changed=changed, gap=gap)


# ---------------------------------------------------------------------------
# delta-dominate

# repro of the block-solver hang listed in ROADMAP.md: this seed hangs
# dominating_delta_coloring
DOMINATE_REPRO = Instance("dominate-repro", "regular:n=120,d=3", 7, 3.0)


def dominate_corpus(seed: int) -> list[Instance]:
    # about 7% of these hang the block solver in equicolor 0.1.0; many
    # small instances keep that share from swinging the totals between seeds
    cubic = [
        Instance("dominate-cubic", f"regular:n={n},d=3",
                 derive_seed(seed, "dominate-cubic", n, rep), 3.0)
        for n in sqrt2_ladder(200, 3)
        for rep in range(4)
    ]
    # 3 x L torus minus one edge: only its two endpoints fall below degree
    # 4, so the forest has two anchors and height about L/2
    tori = [
        Instance("dominate-torus", f"torus:rows=3,cols={cols}", 0, 3.0, cut=(0, 1))
        for cols in sqrt2_ladder(250, 5)
    ]
    return cubic + tori + [DOMINATE_REPRO]


def solve_dominate(case: Case):
    return eq.dominating_delta_coloring(case.graph, case.seed_coloring, case.graph.max_degree)


def check_dominate(case: Case, f) -> Outcome:
    g = case.graph
    delta = g.max_degree
    colors = f.as_list()
    problems = coloring_problems(g, colors, delta)
    if problems:
        return Outcome(problems)
    if case.seed_coloring.as_list() != case.seed_colors:
        problems.append("the solver modified its seed coloring")
    counts = class_counts(colors, delta)
    seed_counts = class_counts(case.seed_colors, delta)
    short = [c for c in range(delta) if counts[c] < seed_counts[c]]
    if short:
        problems.append(f"colors {short} fall below the seed's counts")
    # vertices the seed left uncolored count as changed
    changed = sum(1 for a, s in zip(colors, case.seed_colors) if a != s)
    return Outcome(problems, changed=changed, gap=max(counts) - min(counts))


# ---------------------------------------------------------------------------
# sparse-pipeline

# repro of the sparse-pipeline hang listed in ROADMAP.md: seed 19 padded
# to n=600, so the average degree is exactly D/5 with D=3
PIPELINE_REPRO = Instance("pipeline-repro", "regular:n=120,d=3", 19, 0.5, pad=480)


def pipeline_corpus(seed: int) -> list[Instance]:
    hubs = [
        Instance(f"pipeline-hub{delta}", f"hub:n={n},delta={delta}",
                 derive_seed(seed, "hub", delta, n), 0.5)
        for delta in (10, 15)
        for n in (1000, 2000, 4000, 8000)
    ]
    return hubs + [PIPELINE_REPRO]


def solve_pipeline(case: Case):
    return eq.equitable_delta_coloring(case.graph, case.graph.max_degree)


def check_pipeline(case: Case, out) -> Outcome:
    f, report = out
    g = case.graph
    delta = g.max_degree
    colors = f.as_list()
    problems = coloring_problems(g, colors, delta)
    if f.k != delta:
        problems.append(f"palette {f.k}, expected the max degree {delta}")
    if problems:
        return Outcome(problems)
    counts = class_counts(colors, delta)
    claim_failures = []
    if not report.all_verdicts_ok():
        claim_failures = [c.name for c in report.claims if c.verdict == "fails"]
    changed = sum(1 for a, b in zip(colors, report.extended_coloring) if a != b)
    return Outcome(problems, claim_failures, changed, max(counts) - min(counts))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "equitable-serial",
            "serial driver from the greedy coloring on cubic, 4-regular and "
            "G(n,3/n) graphs: the dynamics and distributions layers",
            driver_corpus(
                {"cubic": SERIAL_REGULAR, "quartic": SERIAL_REGULAR, "gnp": SERIAL_GNP}, 0.4
            ),
            _solve_driver(batch=False),
            check_equitable,
        ),
        Workload(
            "equitable-batch",
            "the same driver layer in batch mode, regular graphs to 8k and "
            "smaller G(n,3/n), where batch mode is slower than serial",
            driver_corpus({
                "cubic": [1002, 1414, 2002, 2826, 4002, 5658, 8002],
                "quartic": [502, 706, 1002, 1414, 2002, 2826, 4002],
                # G(n, 3/n) varies most between seeds here: two per size
                "gnp": [503, 503, 709, 709, 1009, 1009],
            }, 1.5),
            _solve_driver(batch=True),
            check_equitable,
        ),
        Workload(
            "delta-dominate",
            "dominating max-degree colorings from a tight seed: cubic graphs "
            "load the domination solver, cut 3xL tori the forest sweep",
            dominate_corpus,
            solve_dominate,
            check_dominate,
        ),
        Workload(
            "sparse-pipeline",
            "the sparse max-degree pipeline on hub graphs with D in {10, 15}: "
            "dense set, clique test and balancing run only here",
            pipeline_corpus,
            solve_pipeline,
            check_pipeline,
        ),
    )
}
