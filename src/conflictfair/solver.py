"""Solver dispatch: one entry point from an instance to a maximal EF1
allocation, over the algorithms in ``chain``, ``swap`` and ``graph_classes``."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import Allocation, Instance, to_goods
from .chain import InapplicableError, chain_ef1, cut_and_choose, most_valuable_source
from .swap import swap_ef1
from .graph_classes import IntervalSet, bipartite_ef1, interval_ef1, round_robin_small

# Each two-agent solver's call on an identical goods-mode instance. The
# lambdas look the solvers up in this module on each call, so that a wrapper
# bound to a module attribute (as the traced benchmark binds one) runs.
TWO_AGENT = {
    "chain": lambda instance, intervals: chain_ef1(instance, sorted(most_valuable_source(instance))).allocation,
    "swap": lambda instance, intervals: swap_ef1(instance)[0],
    "bipartite": lambda instance, intervals: bipartite_ef1(instance),
    "interval": lambda instance, intervals: interval_ef1(instance, intervals),
}
ALGORITHMS = (*TWO_AGENT, "roundrobin")
AUTO = ("roundrobin", "interval", "bipartite", "swap")


class NoAlgorithmError(ValueError):
    """No algorithm applies: n = 1, or n >= 3, with m > n+1."""


class Solution(NamedTuple):
    """The algorithm that ran and its allocation; the allocation is None
    only when the single chain (``chain``) has no EF1 step."""

    algorithm: str
    allocation: Optional[Allocation]


def solve(instance: Instance, algorithm: str = "auto", intervals: Optional[IntervalSet] = None) -> Solution:
    """Maximal EF1 allocation by ``algorithm``, one of ``ALGORITHMS`` or
    ``"auto"``. A named algorithm raises ``InapplicableError`` from its
    guard when it does not apply; ``auto`` runs the first of ``AUTO`` whose
    guard accepts the instance.

    Round robin takes chores as they are; the two-agent solvers take them in
    negated goods form, and two agents with different valuations go through
    cut-and-choose on the original instance, once for all the solvers tried.
    """
    if algorithm != "auto" and algorithm not in ALGORITHMS:
        raise InapplicableError(f"unknown algorithm {algorithm!r}")
    # Each name whose guard refuses is dropped, so the first one left is the
    # one that ran; the last one's refusal propagates.
    names = list(AUTO if algorithm == "auto" else (algorithm,))

    def two_agent(goods_instance: Instance) -> Optional[Allocation]:
        while True:
            try:
                return TWO_AGENT[names[0]](goods_instance, intervals)
            except InapplicableError:
                del names[0]
                if not names:
                    raise

    try:
        if names[0] == "roundrobin":
            try:
                return Solution("roundrobin", round_robin_small(instance))
            except InapplicableError:
                del names[0]
                if not names:
                    raise
        allocation = two_agent(to_goods(instance)) if instance.identical else cut_and_choose(instance, two_agent)
    except InapplicableError:
        if algorithm != "auto":
            raise
        raise NoAlgorithmError(f"no algorithm applies to {instance.n} agents on {instance.m} goods") from None
    return Solution(names[0], allocation)
