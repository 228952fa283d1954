"""Fair division of indivisible goods and chores under graph conflict
constraints: maximal EF1 solvers, a brute-force oracle, hardness-instance
generators, and maximal equitable tree coloring."""

from types import ModuleType as _ModuleType

from .core import (
    CHORES,
    GOODS,
    Additive,
    Allocation,
    Composite,
    ConflictGraph,
    Instance,
    Negated,
    Table,
    ValidationReport,
    ValuationModel,
    complete_to_maximal_is,
    evaluate,
    is_ef1,
    is_independent_set,
    is_maximal,
    validate_allocation,
    value_minus_one,
)
from .chain import Chain, ChainOutcome, build_chain, chain_ef1, cut_and_choose
from .swap import SwapIteration, iteration_bound_additive, swap_ef1
from .graph_classes import (
    IntervalChains,
    IntervalSet,
    bipartite_ef1,
    bipartition,
    interval_chains,
    interval_ef1,
    interval_scheduling_greedy,
    is_bipartite,
    round_robin_small,
)
from .oracle import (
    BudgetExceededError,
    EnumerationBudget,
    ExistenceResult,
    compute_gamma,
    count_maximal_allocations,
    enumerate_maximal_allocations,
    exists_maximal_ef1,
)
from .solver import InapplicableError, NoAlgorithmError, Solution, solve
from .hardness import (
    GoodMap,
    ISInstance,
    ReductionSpec,
    build_reduction,
    gen_counterexample,
    yes_certificate,
)
from .treecolor import PartialColoring, RootedTree, coloring_violations, equitable_tree_coloring

__version__ = "0.1.0"

# The public API is every name imported above, listed once.
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType))
