"""Solver dispatch: one entry point from an instance to a maximal EF1
allocation, over the algorithms in ``chain``, ``swap`` and ``graph_classes``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Allocation, Instance, to_goods
from .chain import InapplicableError, chain_ef1, cut_and_choose, most_valuable_source
from .swap import swap_ef1
from .graph_classes import IntervalSet, bipartite_ef1, interval_ef1, round_robin_small

ALGORITHMS = ("chain", "swap", "bipartite", "interval", "roundrobin")


class NoAlgorithmError(ValueError):
    """No algorithm applies: n = 1, or n >= 3, with m > n+1."""


@dataclass(frozen=True)
class Solution:
    """The algorithm that ran and its allocation; the allocation is None
    only when the single chain (``chain``) has no EF1 step."""

    algorithm: str
    allocation: Optional[Allocation]


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
    ``"auto"``. A named algorithm raises ``InapplicableError`` from its
    guard when it does not apply; ``auto`` runs the first of round robin,
    the interval, the bipartite and the swap solver whose guard accepts
    the instance.

    Round robin takes chores as they are; the two-agent solvers take them in
    negated goods form, and two agents with different valuations go through
    cut-and-choose on the original instance, once for all the solvers tried.
    """
    if algorithm == "auto":
        names = ("interval", "bipartite", "swap")
        try:
            return Solution("roundrobin", round_robin_small(instance))
        except InapplicableError:
            pass
    elif algorithm == "roundrobin":
        return Solution("roundrobin", round_robin_small(instance))
    elif algorithm in ALGORITHMS:
        names = (algorithm,)
    else:
        raise InapplicableError(f"unknown algorithm {algorithm!r}")
    picked = []

    def solve_identical(goods_instance: Instance) -> Optional[Allocation]:
        """The allocation of the first of ``names`` whose guard accepts the
        instance; the last one's refusal propagates."""
        for name in names:
            try:
                allocation = _solve_identical(name, goods_instance, intervals)
            except InapplicableError:
                if name == names[-1]:
                    raise
            else:
                picked.append(name)
                return allocation

    try:
        if instance.identical:
            allocation = solve_identical(to_goods(instance))
        else:
            allocation = cut_and_choose(instance, solve=solve_identical)
    except InapplicableError:
        if algorithm != "auto":
            raise
        raise NoAlgorithmError(f"no algorithm applies to {instance.n} agents on {instance.m} goods") from None
    return Solution(picked[0], allocation)
