"""Solver dispatch: one entry point from an instance to a maximal EF1
allocation, over the algorithms in ``chain``, ``swap`` and ``graph_classes``."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import Allocation, Instance, to_goods
from .chain import InapplicableError, _require_two_agents, chain_ef1, cut_and_choose, most_valuable_source
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

    Round robin takes the instance as given. The two-agent solvers take one
    goods-form instance, built at the first of them asked: the instance
    itself, chores negated, or for two agents with different valuations
    agent 1's; then agent 2 picks a bundle of the allocation found
    (cut-and-choose).
    """
    if algorithm != "auto" and algorithm not in ALGORITHMS:
        raise InapplicableError(f"unknown algorithm {algorithm!r}")
    goods = None
    for name in AUTO if algorithm == "auto" else (algorithm,):
        try:
            if name == "roundrobin":
                return Solution(name, round_robin_small(instance))
            if goods is None and instance.identical:
                goods = to_goods(instance)
            elif goods is None:
                _require_two_agents(instance)
                goods = to_goods(Instance(instance.graph, 2, instance.models[0], instance.mode))
            allocation = TWO_AGENT[name](goods, intervals)
        except InapplicableError:
            if algorithm != "auto":
                raise
        else:
            return Solution(name, allocation if instance.identical else cut_and_choose(instance, allocation))
    raise NoAlgorithmError(f"no algorithm applies to {instance.n} agents on {instance.m} goods")
