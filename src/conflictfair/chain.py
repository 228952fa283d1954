"""Gapless-chain construction from a maximal independent set.

Given an ordered maximal independent set S = (s_1, ..., s_k) of the conflict
graph, the chain walks bundle 1 down from S while bundle 2 grows up to S,
padding both sides with greedily chosen independent sets X_1, X_2 so that
every intermediate allocation stays maximal. Whenever v(S) dominates both
side sets, the end-to-end value gap flips sign and some step must be EF1.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, NamedTuple, Optional, Sequence

from .core import (
    GOODS,
    Allocation,
    Instance,
    ValuationModel,
    _ByFields,
    _grow_independent,
    _most_valuable,
    complete_to_maximal_is,
    evaluate,
    is_independent_set,
    to_goods,
)


class Walk(_ByFields):
    """A sequence of two-agent allocations kept as the first step's two
    bundles and, for each later step, the goods that leave and join each
    bundle: ``(out1, in1, out2, in2)``.

    Steps are built on demand. Iterating replays the moves once; ``[i]``
    and ``index`` replay as far as they need and materialize only the
    allocation they return.
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

    def __getitem__(self, i: int) -> Allocation:
        return Allocation(next(islice(self._replay(), range(len(self))[i], None)))

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

    def first_ef1(self, model: ValuationModel) -> Optional[int]:
        """Index of the first EF1 step for two agents with the identical
        goods valuation ``model``, or None when no step is EF1.

        A step is EF1 when each non-empty bundle, less its best good, is
        worth at most the other. The scan keeps two running bundles, so
        each move costs a few bundle updates, not a valuation of each step.
        """
        one, two = model._bundle(self.start[0]), model._bundle(self.start[1])
        for i, (out1, in1, out2, in2) in enumerate((((), (), (), ()),) + self.moves):
            for g in out1:
                one.remove(g)
            for g in in1:
                one.add(g)
            for g in out2:
                two.remove(g)
            for g in in2:
                two.add(g)
            if (not len(two) or two.min_drop <= one.value) and (not len(one) or one.min_drop <= two.value):
                return i
        return None


class Chain(NamedTuple):
    """The chain A^(0)..A^(k) built from an ordered maximal independent set,
    as a :class:`Walk` whose steps are materialized on demand, with the side
    sets X_1 and X_2 that pad its bundles."""

    steps: Walk
    x1: frozenset
    x2: frozenset


class ChainOutcome(NamedTuple):
    """Result of scanning a chain for an EF1 step; the full chain is kept
    for invariant testing."""

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


def build_chain(
    instance: Instance,
    source: Sequence[int],
    *,
    x1: Optional[frozenset] = None,
    x2: Optional[frozenset] = None,
) -> Chain:
    """Build the chain A^(0)..A^(k) for the ordered maximal independent set
    ``source`` as a walk: from step i to i+1, s_{i+1} moves from bundle 1
    to bundle 2, the goods of X_1 with q = i+1 join bundle 1 and those of
    X_2 with p = i+1 leave bundle 2, so each good moves at most once.

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
    if s and not 0 <= min(s) <= max(s) < graph.m:
        raise ValueError(f"source holds a good outside [0,{graph.m})")
    if not is_independent_set(graph, s_set):
        raise ValueError("source is not an independent set")
    k = len(s)
    # p(t) and q(t): the first and last 1-based position in S of a
    # neighbour of t; S is independent, so no neighbour of S is in S.
    p = {}
    q = {}
    for i, u in enumerate(s, 1):
        for t in graph.adj[u]:
            if t not in p:
                p[t] = i
            q[t] = i
    if len(p) != graph.m - k:
        t = next(t for t in range(graph.m) if t not in s_set and t not in p)
        raise ValueError(f"source is not maximal: good {t} has no neighbor in it")

    if x1 is None:
        x1 = _grow_independent(graph, (), sorted(p, key=lambda t: (q[t], t)))
    if x2 is None:
        x2 = _grow_independent(graph, (), sorted(p, key=lambda t: (-p[t], -t)))

    joins1, leaves2 = [[] for _ in range(k + 1)], [[] for _ in range(k + 1)]
    for t in x1:
        joins1[q[t]].append(t)
    for t in x2:
        leaves2[p[t]].append(t)
    moves = tuple(((s[i],), tuple(joins1[i + 1]), tuple(leaves2[i + 1]), (s[i],)) for i in range(k))
    return Chain(Walk((s_set, frozenset(x2)), moves), x1, x2)


def chain_ef1(instance: Instance, source: Sequence[int]) -> ChainOutcome:
    """Walk the chain for ``source`` and return its first EF1 step, or a
    null outcome when no step is EF1."""
    chain = build_chain(instance, source)
    i = chain.steps.first_ef1(instance.identical_model)
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
    _require_two_agents(instance)
    allocation = solve(to_goods(Instance(instance.graph, 2, instance.models[0], instance.mode)))
    if allocation is None:
        return None

    v2 = instance.models[1]
    if evaluate(v2, allocation[1]) < evaluate(v2, allocation[0]):
        allocation = Allocation([allocation[1], allocation[0]])
    return allocation
