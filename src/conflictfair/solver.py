"""Solver dispatch: one entry point from an instance to a maximal EF1
allocation, over the algorithms in ``chain``, ``swap`` and ``graph_classes``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Allocation, Instance, to_goods
from .chain import chain_ef1, cut_and_choose, most_valuable_source
from .swap import swap_ef1
from .graph_classes import IntervalSet, bipartite_ef1, interval_ef1, is_bipartite, round_robin_small

ALGORITHMS = ("chain", "swap", "bipartite", "interval", "roundrobin")


class InapplicableError(ValueError):
    """The requested algorithm does not apply to the instance."""


class NoAlgorithmError(ValueError):
    """No algorithm applies: three or more agents and more than n+1 goods."""


@dataclass(frozen=True)
class Solution:
    """The algorithm that ran and its allocation; the allocation is None
    only when the single chain (``chain``) has no EF1 step."""

    algorithm: str
    allocation: Optional[Allocation]


def _inapplicable(algorithm: str, instance: Instance, intervals: Optional[IntervalSet]) -> Optional[str]:
    """Why ``algorithm`` does not apply to the instance, or None if it does."""
    if algorithm not in ALGORITHMS:
        return f"unknown algorithm {algorithm!r}"
    if algorithm == "roundrobin":
        return f"round robin needs m <= n+1, got m={instance.m}" if instance.m > instance.n + 1 else None
    if instance.n != 2:
        return f"algorithm {algorithm} needs exactly 2 agents"
    if algorithm == "bipartite" and not is_bipartite(instance.graph):
        return "graph is not bipartite"
    if algorithm == "interval" and intervals is None:
        return "instance file has no intervals"
    return None


def _solve_identical(algorithm: str, instance: Instance, intervals: Optional[IntervalSet]) -> Optional[Allocation]:
    """Run a two-agent algorithm on an identical goods-mode instance."""
    if algorithm == "chain":
        return chain_ef1(instance, sorted(most_valuable_source(instance))).allocation
    if algorithm == "swap":
        return swap_ef1(instance)[0]
    if algorithm == "bipartite":
        return bipartite_ef1(instance)
    return interval_ef1(instance, intervals)


def solve(instance: Instance, algorithm: str = "auto", intervals: Optional[IntervalSet] = None) -> Solution:
    """Maximal EF1 allocation by ``algorithm``, one of ``ALGORITHMS`` or
    ``"auto"``, which takes round robin when m <= n+1 and else, for two
    agents, the interval solver when ``intervals`` is given, the bipartite
    solver when the graph is 2-colorable, and the swap solver otherwise.

    Round robin takes chores as they are; the two-agent solvers take them in
    negated goods form, and two agents with different valuations go through
    cut-and-choose on the original instance.
    """
    if algorithm == "auto":
        picks = ("roundrobin", "interval", "bipartite", "swap")
        algorithm = next((a for a in picks if _inapplicable(a, instance, intervals) is None), None)
        if algorithm is None:
            raise NoAlgorithmError(f"no algorithm applies to {instance.n} agents on {instance.m} goods")
    else:
        reason = _inapplicable(algorithm, instance, intervals)
        if reason is not None:
            raise InapplicableError(reason)
    if algorithm == "roundrobin":
        allocation = round_robin_small(instance)
    elif instance.identical:
        allocation = _solve_identical(algorithm, to_goods(instance), intervals)
    else:
        allocation = cut_and_choose(instance, solve=lambda inst: _solve_identical(algorithm, inst, intervals))
    return Solution(algorithm, allocation)
