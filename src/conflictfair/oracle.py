"""Brute-force ground truth: enumerate every maximal allocation of a small
instance by assigning each good to an agent or to nobody.

The enumerator is a depth-first search over per-good labels (label 0 =
unassigned, label a = agent a's bundle). It decides goods 0..m-1 in order
and tries labels 0..n in increasing order at each good, so allocations come
out in mixed-radix order over the label vectors, good 0 most significant:
the order of a sweep over all (n+1)^m labelings. Callers rely on that order:
``exists_maximal_ef1`` returns the first EF1 allocation, and the reduction's
gamma allocation is the first one attaining gamma.

A good joins a bundle only if it has no neighbour there. A branch is cut as
soon as some good u is unassigned and every good in u's closed neighbourhood
is decided, yet some bundle holds no neighbour of u: no later placement can
make u blocked everywhere. Every leaf is therefore maximal, and each one is
re-checked with the definitional checkers before it is handed out.

Budgets: the search refuses up front (``BudgetExceededError``) when (n+1)^m
exceeds ``max_assignments``, however much of the tree pruning would cut; the
wall-clock deadline is checked every 1024 visited search nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

from .core import (
    Allocation,
    Instance,
    ValuationModel,
    evaluate,
    is_ef1,
    is_maximal,
    validate_allocation,
    value_minus_one,
)


class BudgetExceededError(Exception):
    """Enumeration would exceed the configured budget; never a wrong answer."""


@dataclass(frozen=True)
class EnumerationBudget:
    max_assignments: int = 10**8
    wall_clock_seconds: Optional[float] = None


DEFAULT_BUDGET = EnumerationBudget()


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    witness: Optional[Allocation]


def enumerate_maximal_allocations(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Iterator[Allocation]:
    """Yield every maximal allocation once, in mixed-radix order over per-good
    labels (good 0 most significant; label 0 = unassigned, label a = agent a).

    Depth-first with an explicit stack: one label cursor per good, no
    recursion, so m is limited by the budget alone. Raises
    ``BudgetExceededError`` before the search when (n+1)^m exceeds
    ``budget.max_assignments``, and during it when the wall clock passes
    ``budget.wall_clock_seconds`` (checked every 1024 visited nodes).
    """
    budget = budget or DEFAULT_BUDGET
    n, m = instance.n, instance.m
    total = (n + 1) ** m
    if total > budget.max_assignments:
        raise BudgetExceededError(
            f"(n+1)^m = {total} assignments exceed the budget of {budget.max_assignments}"
        )
    adj_mask = [0] * m
    for u, w in instance.graph.edges:
        adj_mask[u] |= 1 << w
        adj_mask[w] |= 1 << u
    # settled[d]: (u, adj_mask[u]) for each good u whose last neighbour, or u
    # itself, is good d; once d is decided, an unassigned u is final.
    settled = [[] for _ in range(m)]
    for u in range(m):
        settled[max(u, adj_mask[u].bit_length() - 1)].append((u, adj_mask[u]))

    deadline = None
    if budget.wall_clock_seconds is not None:
        deadline = time.monotonic() + budget.wall_clock_seconds

    agents = range(1, n + 1)
    bundle_mask = [0] * (n + 1)  # bundle_mask[a] for label a; index 0 unused
    labels = [-1] * m  # the label cursor of each decided good; -1 = none tried yet
    depth = visited = 0
    while depth >= 0:
        visited += 1
        if deadline is not None and visited % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("enumeration exceeded the wall-clock budget")
        if depth == m:
            allocation = Allocation(
                [g for g in range(m) if bundle_mask[a] >> g & 1] for a in agents
            )
            report = validate_allocation(instance, allocation)
            if not report.wellformed or not is_maximal(instance, allocation):
                raise RuntimeError("prefilter and checkers disagree; enumeration bug")
            yield allocation
            depth -= 1
            continue
        # Advance good `depth` to its next label: leave its current bundle,
        # then skip every agent whose bundle holds a neighbour.
        label = labels[depth]
        if label > 0:
            bundle_mask[label] ^= 1 << depth
        label += 1
        if label:
            conflicts = adj_mask[depth]
            while label <= n and conflicts & bundle_mask[label]:
                label += 1
            if label > n:  # labels exhausted: backtrack
                labels[depth] = -1
                depth -= 1
                continue
            bundle_mask[label] |= 1 << depth
        labels[depth] = label
        # Descend unless a good settled by this decision stays unassigned
        # while some bundle holds none of its neighbours.
        for u, neighbours in settled[depth]:
            if not labels[u] and not all(neighbours & bundle_mask[a] for a in agents):
                break
        else:
            depth += 1


def exists_maximal_ef1(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> ExistenceResult:
    """Decide by exhaustion whether a maximal EF1 allocation exists."""
    for allocation in enumerate_maximal_allocations(instance, budget):
        if is_ef1(instance, allocation):
            return ExistenceResult(True, allocation)
    return ExistenceResult(False, None)


def count_maximal_allocations(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> int:
    return sum(1 for _ in enumerate_maximal_allocations(instance, budget))


def worst_envy_gap(model: ValuationModel, allocation: Allocation) -> Fraction:
    """max over bundles of v_minus_one minus min over bundles of v: the
    worst gap v_minus_one(A_i) - v(A_i') over agent pairs, i = i' included."""
    return max(value_minus_one(model, b) for b in allocation.bundles) - min(
        evaluate(model, b) for b in allocation.bundles
    )


def _gamma_and_allocation(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Tuple[Fraction, Allocation]:
    """Smallest ``worst_envy_gap`` over all maximal allocations, and the
    first allocation in enumeration order that attains it. There is always
    one: greedy completion yields a maximal allocation."""
    if not instance.identical:
        raise ValueError("gamma is defined for identical valuations")
    model = instance.identical_model
    gaps = ((worst_envy_gap(model, a), a) for a in enumerate_maximal_allocations(instance, budget))
    return min(gaps, key=lambda pair: pair[0])


def compute_gamma(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Fraction:
    """Smallest ``worst_envy_gap`` over all maximal allocations."""
    return _gamma_and_allocation(instance, budget)[0]
