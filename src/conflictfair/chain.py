"""Gapless-chain construction from a maximal independent set.

Given an ordered maximal independent set S = (s_1, ..., s_k) of the conflict
graph, the chain walks bundle 1 down from S while bundle 2 grows up to S,
padding both sides with greedily chosen independent sets X_1, X_2 so that
every intermediate allocation stays maximal. Whenever v(S) dominates both
side sets, the end-to-end value gap flips sign and some step must be EF1.

The step rule is one generator, :func:`chain_steps`; :func:`first_ef1_step`
scans its moves, or a :class:`Walk`'s, and stops at the first EF1 step.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .core import (
    GOODS,
    Allocation,
    ConflictGraph,
    Instance,
    ValuationModel,
    _ByFields,
    _grow_independent,
    _most_valuable,
    complete_to_maximal_is,
    is_independent_set,
)


class Walk(_ByFields):
    """A sequence of two-agent allocations kept as the first step's two
    bundles and, for each later step, the goods that leave and join each
    bundle: ``(out1, in1, out2, in2)``.

    Steps are built on demand. Iterating replays the moves once, and
    ``index`` replays as far as it needs; ``first_ef1`` scans with running
    bundles and materializes only the step it returns.
    """

    _fields = ("start", "moves")
    __slots__ = _fields

    def __init__(self, start: tuple, moves: tuple):
        self.start = start  # (bundle 1, bundle 2) of step 0, as frozensets
        self.moves = moves

    def __len__(self):
        return len(self.moves) + 1

    def _replay(self):
        """Each step's two bundles, as two sets changed in place."""
        one, two = set(self.start[0]), set(self.start[1])
        yield one, two
        for out1, in1, out2, in2 in self.moves:
            one.difference_update(out1)
            one.update(in1)
            two.difference_update(out2)
            two.update(in2)
            yield one, two

    def __iter__(self):
        return (Allocation(pair) for pair in self._replay())

    def index(self, allocation) -> int:
        """Position of the first step equal to ``allocation``."""
        if isinstance(allocation, Allocation):
            for i, pair in enumerate(self._replay()):
                if allocation.bundles == pair:
                    return i
        raise ValueError(f"{allocation!r} is not a step of this walk")

    def then(self, other: "Walk") -> "Walk":
        """This walk followed by ``other``, which must start at this walk's
        last step; the shared step appears once."""
        *_, end = self._replay()
        if end != other.start:
            raise RuntimeError("walks do not meet: the second does not start where the first ends")
        return Walk(self.start, self.moves + other.moves)

    def first_ef1(self, model: ValuationModel) -> Tuple[Optional[int], Optional[Allocation]]:
        """Index and allocation of the first EF1 step for two agents with the
        identical goods valuation ``model``, read from the running bundles
        where the scan stops; ``(None, None)`` when no step is EF1."""
        one, two = model._bundle(self.start[0]), model._bundle(self.start[1])
        i = first_ef1_step(one, two, self.moves)
        return (None, None) if i is None else (i, Allocation((one.goods, two.goods)))


class Chain(NamedTuple):
    """The chain A^(0)..A^(k) built from an ordered maximal independent set,
    as a :class:`Walk` whose steps are materialized on demand. The side sets
    are its ends: X_2 is ``steps.start[1]`` and X_1 is bundle 1 of the last
    step."""

    steps: Walk


class ChainOutcome(NamedTuple):
    """Result of scanning a chain for an EF1 step: the allocation the scan's
    running bundles hold where it stops, which is step ``step_index`` of
    ``chain.steps``; the full chain is kept for invariant testing."""

    allocation: Optional[Allocation]
    step_index: Optional[int]
    chain: Chain

    @property
    def found(self) -> bool:
        return self.allocation is not None


class InapplicableError(ValueError):
    """An algorithm does not apply to the instance; its solver's guard says why."""


def _require_two_agents(instance: Instance) -> None:
    if instance.n != 2:
        raise InapplicableError(f"algorithm needs exactly 2 agents, got n={instance.n}")


def _require_two_agent_identical_goods(instance: Instance) -> ValuationModel:
    _require_two_agents(instance)
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


def chain_steps(graph: ConflictGraph, source: Sequence[int], x1=None, x2=None) -> Iterator[tuple]:
    """The chain for the ordered maximal independent set ``source`` = S, one
    move ``(out1, in1, out2, in2)`` per step: step 0 as ``((), S, (), X_2)``
    from the empty allocation, then the move to each step i = 1..k: s_i goes
    from bundle 1 to bundle 2, the goods of X_1 with q = i join bundle 1 and
    those of X_2 with p = i leave bundle 2. The last step is (X_1, S).

    X_2, greedy in (-p, -t) order, is chosen before step 0; X_1, greedy in
    (q, t) order, a step at a time, so a consumer that stops early pays only
    for the steps it read. ``x1``/``x2`` override the side sets; an override
    must be a valid outcome of the greedy under some tie-break of equal q
    (resp. p), which is how the interval solver injects its own greedy sets.
    """
    adj, m = graph.adj, graph.m
    s = tuple(source)
    s_set, k = frozenset(s), len(s)
    if k != len(s_set):
        raise ValueError("source contains duplicate goods")
    if s and not 0 <= min(s) <= max(s) < m:
        raise ValueError(f"source holds a good outside [0,{m})")
    if not is_independent_set(graph, s_set):
        raise ValueError("source is not an independent set")
    # p(t) and q(t): the first and last 1-based position in S of a
    # neighbour of t, 0 for none; S is independent, so p and q are 0 on S.
    p, q = [0] * m, [0] * m
    for i, u in enumerate(s, 1):
        for t in adj[u]:
            if not p[t]:
                p[t] = i
            q[t] = i
    if p.count(0) != k:
        t = next(t for t in range(m) if not p[t] and t not in s_set)
        raise ValueError(f"source is not maximal: good {t} has no neighbor in it")
    # Side-set candidates by p and by q: all goods, ascending, or an override.
    by_p, by_q = [[] for _ in range(k + 1)], [[] for _ in range(k + 1)]
    for t in range(m) if x2 is None else x2:
        by_p[p[t]].append(t)
    for t in range(m) if x1 is None else x1:
        by_q[q[t]].append(t)

    if x2 is None:
        x2 = _grow_independent(graph, (), [t for i in range(k, 0, -1) for t in reversed(by_p[i])])
    yield (), s_set, (), x2
    grown = set()  # X_1 so far
    for i, u in enumerate(s, 1):
        in1 = []
        for t in by_q[i]:
            if x1 is not None or grown.isdisjoint(adj[t]):  # an override keeps all its goods
                grown.add(t)
                in1.append(t)
        yield (u,), tuple(in1), tuple([t for t in by_p[i] if t in x2]), (u,)


def first_ef1_step(one, two, moves: Iterable[tuple]) -> Optional[int]:
    """Index of the first EF1 step, or None, of a two-agent walk with one
    identical goods valuation, whose running bundles ``one`` and ``two`` hold
    step 0. Applies ``moves`` to them in place up to that step (or the last)."""
    for i, (out1, in1, out2, in2) in enumerate(itertools.chain([((), (), (), ())], moves)):
        for g in out1:
            one.remove(g)
        for g in in1:
            one.add(g)
        for g in out2:
            two.remove(g)
        for g in in2:
            two.add(g)
        # EF1: each non-empty bundle, less its best good, is worth at most the other.
        if (not len(two) or two.min_drop <= one.value) and (not len(one) or one.min_drop <= two.value):
            return i
    return None


def build_chain(instance: Instance, source: Sequence[int], *, x1=None, x2=None) -> Chain:
    """The chain A^(0)..A^(k) for the ordered maximal independent set
    ``source``: every move of :func:`chain_steps`, which says what
    ``x1``/``x2`` override, as a walk."""
    _require_two_agent_identical_goods(instance)
    steps = chain_steps(instance.graph, source, x1, x2)
    _, s, _, x2 = next(steps)
    return Chain(Walk((s, x2), tuple(steps)))


def chain_ef1(instance: Instance, source: Sequence[int]) -> ChainOutcome:
    """Walk the chain for ``source`` and return its first EF1 step, or a
    null outcome when no step is EF1."""
    chain = build_chain(instance, source)
    i, allocation = chain.steps.first_ef1(instance.identical_model)
    return ChainOutcome(allocation, i, chain)


def cut_and_choose(instance: Instance, allocation: Optional[Allocation]) -> Optional[Allocation]:
    """Agent 2's choice in the two-agent protocol for possibly distinct
    valuations: ``allocation`` solves the identical-valuation problem under
    agent 1's valuation, and agent 2 takes the preferred bundle. A None
    allocation (a solver that may fail) comes back as None.

    Works in both modes: the choice compares agent 2's true valuation (a
    chores agent prefers the bundle of higher, i.e. less negative, value).
    """
    _require_two_agents(instance)
    if allocation is None:
        return None
    v2 = instance.models[1]
    if v2._bundle(allocation[1]).value < v2._bundle(allocation[0]).value:
        allocation = Allocation([allocation[1], allocation[0]])
    return allocation
