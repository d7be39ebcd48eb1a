"""Equitable graph coloring toolkit.

Finite-graph engines for equitable k-colorings via local recoloring moves
(k >= max degree + 1), dominating list colorings on non-Gallai-tree graphs,
anchored-forest dominating recolorings, and near-equitable max-degree
colorings of sparse graphs, all with exact rational invariant checks and a
brute-force oracle for tiny instances.
"""

from .colorings import (
    ListAssignment,
    PartialColoring,
    dominates,
    greedy_extend_full,
    greedy_maximal,
    is_proper,
    maximal_independent_superset,
)
from .distributions import (
    ColorDistribution,
    ConvergenceLedger,
    discrepancy,
    initial_sums_witness,
    is_more_equitable,
    l1_distance,
    rearranged,
)
from .domination import (
    DominationInstance,
    color_all_but_one,
    dominating_full_coloring,
    large_list_shortcut,
)
from .dynamics import (
    Batch,
    DriverConfig,
    DynamicsTrace,
    RecoloringMove,
    apply_monotone_prefix,
    apply_move,
    equitable_k_coloring,
    find_improving_move,
    is_acceptable,
    make_move,
    select_separated_batch,
)
from .errors import EquicolorError
from .forests import (
    OneEndedForest,
    build_one_ended_subforest,
    dominating_delta_coloring,
    forest_recolor,
)
from .generators import InstanceSpec, generate
from .graphio import read_graph, write_graph
from .graphs import (
    BlockDecomposition,
    Graph,
    average_degree,
    block_decomposition,
    build_graph,
    components,
    contains_clique,
    is_gallai_tree,
)
from .oracle import (
    OracleBudget,
    domination_exists,
    enumerate_proper_colorings,
    equitable_exists,
    improving_move_exists,
)
from .pipeline import (
    CostReport,
    PipelineReport,
    cost,
    equitable_delta_coloring,
    extract_dense_set,
    quick_balance,
)

__version__ = "0.1.0"
