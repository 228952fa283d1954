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
re-checked with the definitional checkers before it is handed out. Each
bundle's goods are kept as an ascending list beside its bitmask, so a leaf
is built from the lists.

With identical valuations, relabeling the agents of an allocation changes
neither its maximality, nor EF1, nor its worst envy gap. The symmetric
search lets good d take agent a+1 only once some earlier good holds agent
a. Its leaves are exactly the orbit minima under relabeling: the least
labeling of an orbit in sweep order gives agents their first goods in the
order 1, 2, 3, .... The first leaf in sweep order with an orbit-invariant
property is the least of its orbit, so the symmetric search finds it too,
with no earlier leaf having the property. ``exists_maximal_ef1`` on an
identical instance and the gamma sweep search this way and return what the
full search returns. Maximality depends on the graph and n alone, so
``count_maximal_allocations`` searches this way on every instance and weighs
each leaf by its orbit's size: the k non-empty bundles of a leaf are
disjoint, hence distinct, so the only relabelings that fix it permute its
n - k empty bundles, and its orbit has n!/(n-k)! members.

Budgets: the search refuses up front (``BudgetExceededError``) when (n+1)^m
exceeds ``max_assignments``, however much of the tree pruning would cut; the
wall-clock deadline is checked at the first search node and every 1024 after.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Tuple

from .core import (
    GOODS,
    Allocation,
    Instance,
    ValuationModel,
    is_ef1,
    is_maximal,
    validate_allocation,
)
from .chain import InapplicableError


class BudgetExceededError(Exception):
    """Enumeration would exceed the configured budget; never a wrong answer."""


class EnumerationBudget(NamedTuple):
    max_assignments: int = 10**8
    wall_clock_seconds: Optional[float] = None


class ExistenceResult(NamedTuple):
    exists: bool
    witness: Optional[Allocation]


def enumerate_maximal_allocations(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
    *,
    symmetric: bool = False,
) -> Iterator[Allocation]:
    """Yield every maximal allocation once, in mixed-radix order over per-good
    labels (good 0 most significant; label 0 = unassigned, label a = agent a).
    With ``symmetric``, yield only the orbit minima under agent relabeling:
    good d may take agent a+1 only once some earlier good holds agent a.

    Depth-first with an explicit stack: one label cursor per good, no
    recursion, so m is limited by the budget alone. Raises
    ``BudgetExceededError`` before the search when (n+1)^m exceeds
    ``budget.max_assignments``, and during it when the wall clock passes
    ``budget.wall_clock_seconds`` (checked at the first node, then every 1024).
    """
    budget = budget or EnumerationBudget()
    n, m = instance.n, instance.m
    total = (n + 1) ** m
    if total > budget.max_assignments:
        raise BudgetExceededError(
            f"(n+1)^m = {total} assignments exceed the budget of {budget.max_assignments}"
        )
    adj_mask = [sum(1 << w for w in nbrs) for nbrs in instance.graph.adj]
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
    members = [[] for _ in range(n + 1)]  # bundle a's goods, ascending
    labels = [-1] * m  # the label cursor of each decided good; -1 = none tried yet
    # cap[d]: the highest label good d may take, set on descent. Symmetric:
    # one more than the highest agent among goods 0..d-1, at most n.
    cap = [1 if symmetric else n] * (m + 1)
    depth = visited = 0
    while depth >= 0:
        visited += 1
        if deadline is not None and visited % 1024 == 1 and time.monotonic() >= deadline:
            raise BudgetExceededError("enumeration exceeded the wall-clock budget")
        if depth == m:
            allocation = Allocation(members[1:])
            report = validate_allocation(instance, allocation)
            if not report.wellformed or not is_maximal(instance, allocation):
                raise RuntimeError("prefilter and checkers disagree; enumeration bug")
            yield allocation
            depth -= 1
            continue
        # Advance good `depth` to its next label: leave its current bundle,
        # where it is the last member, then skip every agent whose bundle
        # holds a neighbour.
        label = labels[depth]
        if label > 0:
            bundle_mask[label] ^= 1 << depth
            members[label].pop()
        label += 1
        if label:
            conflicts, top = adj_mask[depth], cap[depth]
            while label <= top and conflicts & bundle_mask[label]:
                label += 1
            if label > top:  # labels exhausted: backtrack
                labels[depth] = -1
                depth -= 1
                continue
            bundle_mask[label] |= 1 << depth
            members[label].append(depth)
        labels[depth] = label
        # Descend unless a good settled by this decision stays unassigned
        # while some bundle holds none of its neighbours.
        for u, neighbours in settled[depth]:
            if not labels[u]:
                for a in agents:
                    if not neighbours & bundle_mask[a]:
                        break  # u could still join bundle a: cut
                else:
                    continue  # u is blocked in every bundle
                break
        else:
            top = cap[depth]
            depth += 1
            cap[depth] = top + 1 if label == top < n else top


def exists_maximal_ef1(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> ExistenceResult:
    """Decide by exhaustion whether a maximal EF1 allocation exists, up to
    agent relabeling when the valuations are identical."""
    allocations = enumerate_maximal_allocations(instance, budget, symmetric=instance.identical)
    for allocation in allocations:
        if is_ef1(instance, allocation):
            return ExistenceResult(True, allocation)
    return ExistenceResult(False, None)


def count_maximal_allocations(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> int:
    """Number of maximal allocations, relabelings included, from the orbit minima."""
    leaves = enumerate_maximal_allocations(instance, budget, symmetric=True)
    return sum(math.perm(instance.n, sum(1 for b in leaf.bundles if b)) for leaf in leaves)


def worst_envy_gap(model: ValuationModel, allocation: Allocation) -> Fraction:
    """max over bundles of v_minus_one minus min over bundles of v: the
    worst gap v_minus_one(A_i) - v(A_i') over agent pairs, i = i' included,
    taken on one running bundle per bundle."""
    runs = [model._bundle(b) for b in allocation.bundles]
    return Fraction(max(r.min_drop for r in runs) - min(r.value for r in runs), model.den)


def require_gamma_applies(instance: Instance) -> None:
    """Raise InapplicableError, a ValueError, unless the valuations are identical goods ones."""
    if not instance.identical or instance.mode != GOODS:
        raise InapplicableError("gamma is defined for identical valuations of goods")


def _gamma_and_allocation(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Tuple[Fraction, Allocation]:
    """Smallest ``worst_envy_gap`` over all maximal allocations, and the
    first allocation in enumeration order that attains it. There is always
    one: greedy completion yields a maximal allocation. Refuses, before any
    search, an instance gamma does not apply to."""
    require_gamma_applies(instance)
    model = instance.identical_model
    allocations = enumerate_maximal_allocations(instance, budget, symmetric=True)
    gaps = ((worst_envy_gap(model, a), a) for a in allocations)
    return min(gaps, key=lambda pair: pair[0])


def compute_gamma(
    instance: Instance,
    budget: Optional[EnumerationBudget] = None,
) -> Fraction:
    """Smallest ``worst_envy_gap`` over all maximal allocations."""
    return _gamma_and_allocation(instance, budget)[0]
