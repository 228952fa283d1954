"""Escalating maximal-independent-set solver for two agents.

Starts from a maximal independent set containing the single most valuable
good and scans its chain step by step, as the chain is built, up to the
first EF1 step; whenever the chain has no EF1 step, the scan ends at its
last step, (X_1, S), and the more valuable side set seeds the next maximal
independent set. Each failed round strictly increases v(S), so the loop
terminates, and for additive valuations the increase is by a factor of at
least m/(m-1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .core import Allocation, Instance, complete_to_maximal_is
from .chain import chain_steps, first_ef1_step, most_valuable_source, _require_two_agent_identical_goods


class SwapIteration(NamedTuple):
    """One loop round: the set tried, its value, and which side set seeded
    the next round (``None`` on the terminal round)."""

    source: tuple
    value: Fraction
    chosen: Optional[int]


def swap_ef1(instance: Instance) -> Tuple[Allocation, Tuple[SwapIteration, ...]]:
    """Find a maximal EF1 allocation for 2 agents with identical monotone
    valuation (goods mode; negate chores first), with the tuple of rounds
    tried, the last one successful."""
    model = _require_two_agent_identical_goods(instance)
    graph = instance.graph
    source = most_valuable_source(instance)

    # Distinct maximal independent sets bound the loop; exceeding it means
    # the strict-escalation invariant was violated.
    limit = 3 ** ((graph.m + 2) // 3) + 1
    iterations = []
    for _ in range(limit):
        ordered = tuple(sorted(source))
        steps = chain_steps(graph, ordered)
        _, s, _, x2 = next(steps)
        one, two = model._bundle(s), model._bundle(x2)
        value = Fraction(one.value, model.den)
        if first_ef1_step(one, two, steps) is not None:
            iterations.append(SwapIteration(ordered, value, None))
            return Allocation((one.goods, two.goods)), tuple(iterations)
        # No step was EF1: the scan read every step and ended at the last, (X_1, S).
        chosen = 1 if one.value >= model._bundle(x2).value else 2
        iterations.append(SwapIteration(ordered, value, chosen))
        source = complete_to_maximal_is(graph, one.goods if chosen == 1 else x2)
    raise RuntimeError("escalation failed to terminate within the maximal-IS bound")


def iteration_bound_additive(m: int) -> int:
    """Iteration ceiling for additive valuations: ceil(log_{m/(m-1)} m) + 1.

    Computed by exact integer search: the smallest j with (m/(m-1))^j >= m.
    """
    if m < 2:
        raise ValueError("bound is defined for m >= 2")
    j = 0
    num = 1  # m^j
    den = 1  # (m-1)^j
    while num < m * den:
        num *= m
        den *= m - 1
        j += 1
    return j + 1
