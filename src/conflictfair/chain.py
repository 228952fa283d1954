"""Gapless-chain construction from a maximal independent set.

Given an ordered maximal independent set S = (s_1, ..., s_k) of the conflict
graph, the chain walks bundle 1 down from S while bundle 2 grows up to S,
padding both sides with greedily chosen independent sets X_1, X_2 so that
every intermediate allocation stays maximal. Whenever v(S) dominates both
side sets, the end-to-end value gap flips sign and some step must be EF1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from .core import (
    GOODS,
    Allocation,
    Instance,
    ValuationModel,
    _grow_independent,
    _most_valuable,
    complete_to_maximal_is,
    evaluate,
    is_ef1,
    is_independent_set,
    to_goods,
)


@dataclass(frozen=True)
class Chain:
    """The allocation sequence built from an ordered maximal independent set,
    with the side sets and per-good (p, q) indices that define each step."""

    steps: tuple
    source: tuple
    x1: frozenset
    x2: frozenset
    p: Mapping[int, int]
    q: Mapping[int, int]


@dataclass(frozen=True)
class ChainOutcome:
    """Result of scanning a chain for an EF1 step; the full chain is kept
    for invariant testing."""

    allocation: Optional[Allocation]
    step_index: Optional[int]
    chain: Chain

    @property
    def found(self) -> bool:
        return self.allocation is not None


def _require_two_agent_identical_goods(instance: Instance) -> ValuationModel:
    if instance.n != 2:
        raise ValueError("chain construction needs exactly 2 agents")
    if not instance.identical:
        raise ValueError("chain construction needs identical valuations")
    if instance.mode != GOODS:
        raise ValueError("chores instances must be negated into goods mode first")
    return instance.identical_model


def most_valuable_source(instance: Instance) -> frozenset:
    """Maximal independent set grown from the single most valuable good
    (lowest index among equals); empty when there are no goods."""
    model = _require_two_agent_identical_goods(instance)
    if instance.m == 0:
        return frozenset()
    return complete_to_maximal_is(instance.graph, (_most_valuable(model, range(instance.m)),))


def build_chain(
    instance: Instance,
    source: Sequence[int],
    *,
    x1: Optional[frozenset] = None,
    x2: Optional[frozenset] = None,
) -> Chain:
    """Build the full chain A^(0)..A^(k) for the ordered maximal independent
    set ``source``, without the EF1 short-circuit.

    ``x1``/``x2`` override the greedily computed side sets; an override must
    itself be a valid outcome of the greedy scan under some tie-break of
    equal q (resp. p) values, which is how the interval solver injects its
    endpoint-ordered greedy solutions.
    """
    _require_two_agent_identical_goods(instance)
    graph = instance.graph
    s = tuple(source)
    s_set = frozenset(s)
    if len(s) != len(s_set):
        raise ValueError("source contains duplicate goods")
    if not is_independent_set(graph, s_set):
        raise ValueError("source is not an independent set")
    k = len(s)
    pos = {g: i + 1 for i, g in enumerate(s)}  # 1-based positions in S

    p = {}
    q = {}
    for t in range(graph.m):
        if t in s_set:
            continue
        hits = [pos[u] for u in graph.adj[t] if u in s_set]
        if not hits:
            raise ValueError(f"source is not maximal: good {t} has no neighbor in it")
        p[t] = min(hits)
        q[t] = max(hits)

    if x1 is None:
        x1 = _grow_independent(graph, (), sorted(p, key=lambda t: (q[t], t)))
    if x2 is None:
        x2 = _grow_independent(graph, (), sorted(p, key=lambda t: (-p[t], -t)))

    steps = []
    for i in range(k + 1):
        a1 = frozenset(s[i:]) | frozenset(t for t in x1 if q[t] <= i)
        a2 = frozenset(s[:i]) | frozenset(t for t in x2 if p[t] > i)
        steps.append(Allocation([a1, a2]))
    return Chain(tuple(steps), s, x1, x2, p, q)


def _first_ef1(instance: Instance, steps: Sequence[Allocation]) -> Optional[int]:
    """Index of the first EF1 step, or None when no step is EF1."""
    return next((i for i, step in enumerate(steps) if is_ef1(instance, step)), None)


def chain_ef1(instance: Instance, source: Sequence[int]) -> ChainOutcome:
    """Walk the chain for ``source`` and return its first EF1 step, or a
    null outcome when no step is EF1."""
    chain = build_chain(instance, source)
    i = _first_ef1(instance, chain.steps)
    return ChainOutcome(None if i is None else chain.steps[i], i, chain)


def cut_and_choose(
    instance: Instance,
    solve: Callable[[Instance], Optional[Allocation]],
) -> Optional[Allocation]:
    """Two-agent protocol for possibly distinct valuations: ``solve`` the
    identical-valuation problem under agent 1's valuation, then let agent 2
    take the preferred bundle. When ``solve`` returns None (a solver that
    may fail), so does the protocol.

    Works in both modes: for chores the identical sub-problem is negated
    into goods form, while the choice step always compares agent 2's true
    valuation (a chores agent prefers the bundle of higher, i.e. less
    negative, value).
    """
    if instance.n != 2:
        raise ValueError("cut-and-choose needs exactly 2 agents")
    allocation = solve(to_goods(Instance(instance.graph, 2, instance.models[0], instance.mode)))
    if allocation is None:
        return None

    v2 = instance.models[1]
    if evaluate(v2, allocation[1]) < evaluate(v2, allocation[0]):
        allocation = Allocation([allocation[1], allocation[0]])
    return allocation
