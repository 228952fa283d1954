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


def _auto(instance: Instance, intervals: Optional[IntervalSet]) -> str:
    if instance.m <= instance.n + 1:
        return "roundrobin"
    if instance.n == 2:
        if intervals is not None:
            return "interval"
        if is_bipartite(instance.graph):
            return "bipartite"
        return "swap"
    raise NoAlgorithmError(f"no algorithm applies to {instance.n} agents on {instance.m} goods")


def _require_applicable(algorithm: str, instance: Instance, intervals: Optional[IntervalSet]) -> None:
    if algorithm not in ALGORITHMS:
        raise InapplicableError(f"unknown algorithm {algorithm!r}")
    if algorithm != "roundrobin" and instance.n != 2:
        raise InapplicableError(f"algorithm {algorithm} needs exactly 2 agents")
    if algorithm == "bipartite" and not is_bipartite(instance.graph):
        raise InapplicableError("graph is not bipartite")
    if algorithm == "interval" and intervals is None:
        raise InapplicableError("instance file has no intervals")
    if algorithm == "roundrobin" and instance.m > instance.n + 1:
        raise InapplicableError(f"round robin needs m <= n+1, got m={instance.m}")


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
        algorithm = _auto(instance, intervals)
    _require_applicable(algorithm, instance, intervals)
    if algorithm == "roundrobin":
        allocation = round_robin_small(instance)
    elif instance.identical:
        allocation = _solve_identical(algorithm, to_goods(instance), intervals)
    else:
        allocation = cut_and_choose(instance, solve=lambda inst: _solve_identical(algorithm, inst, intervals))
    return Solution(algorithm, allocation)
