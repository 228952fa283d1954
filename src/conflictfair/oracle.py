"""Brute-force ground truth: enumerate every maximal allocation of a small
instance by assigning each good to an agent or to nobody."""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

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
    """Yield every maximal allocation, in mixed-radix order over per-good
    labels (good 0 most significant; label 0 = unassigned, label a = agent a).

    Candidates are pre-filtered with bitmask adjacency, then the survivors
    are re-checked with the definitional checkers before being yielded.
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

    deadline = None
    if budget.wall_clock_seconds is not None:
        deadline = time.monotonic() + budget.wall_clock_seconds

    count = 0
    for assignment in itertools.product(range(n + 1), repeat=m):
        count += 1
        if deadline is not None and count % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("enumeration exceeded the wall-clock budget")
        bundle_mask = [0] * (n + 1)
        ok = True
        for g, label in enumerate(assignment):
            if label and adj_mask[g] & bundle_mask[label]:
                ok = False
                break
            bundle_mask[label] |= 1 << g
        if not ok:
            continue
        maximal = True
        for g, label in enumerate(assignment):
            if label:
                continue
            for a in range(1, n + 1):
                if not adj_mask[g] & bundle_mask[a]:
                    maximal = False
                    break
            if not maximal:
                break
        if not maximal:
            continue
        allocation = Allocation(
            [g for g in range(m) if assignment[g] == a + 1] for a in range(n)
        )
        report = validate_allocation(instance, allocation)
        if not report.wellformed or not is_maximal(instance, allocation):
            raise RuntimeError("prefilter and checkers disagree; enumeration bug")
        yield allocation


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


def compute_gamma(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Fraction:
    """Smallest ``worst_envy_gap`` over all maximal allocations."""
    if not instance.identical:
        raise ValueError("gamma is defined for identical valuations")
    model = instance.identical_model
    gamma = None
    for allocation in enumerate_maximal_allocations(instance, budget):
        worst = worst_envy_gap(model, allocation)
        if gamma is None or worst < gamma:
            gamma = worst
    if gamma is None:
        raise RuntimeError("no maximal allocation found; greedy completion always yields one")
    return gamma
